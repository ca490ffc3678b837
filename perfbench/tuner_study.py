"""``tuner_study``: the optimizer comparison the suite exists for, on cache replays.

Set-up builds the default-scale caches of Pnpoly, Convolution and Nbody on the RTX
3090 through the public ``Campaign`` API (all three are exhaustive, so every
configuration a tuner proposes is in the cache).  The timed phase runs all nine
``repro.tuners`` through ``run_tuning`` at a budget of 150 evaluations on a fresh
replay problem per run, in ``PASSES`` passes of the same shape: each pass runs the
eight model-free tuners ``REPETITIONS`` times on each benchmark and
``SurrogateSearch`` once on Pnpoly, every run with a tuner seed of its own.

This is the read side of the cache: index-table lookups, problem memos, engine
neighbourhood and sampling kernels and the optimizer logic do the work for the
model-free tuners.  ``SurrogateSearch`` refits its GBDT about 26 times per run on at
most 150 rows, so per-call overhead dominates it, where per-row histogram work
dominates the ``figures`` workload; a GBDT change that trades one for the other
shows on one of the two.

An operation is one tuning run.  Passes are timed on a :class:`common.HostClock`;
``wall_s`` is ``PASSES`` times the median pass and ``ops_per_s`` is a pass's runs
over the median pass.  Every best-value trace must be non-increasing, within the
budget and no better than the cache's optimum, and the traces must match the
digest pinned for the seed.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import numpy as np
from repro.analysis.campaign import Campaign
from repro.core.runner import run_tuning
from repro.gpus import all_gpus
from repro.kernels import all_benchmarks
from repro.tuners import all_tuners

from common import (HostClock, Outcome, check_pin, digest, peak_rss_mb, repeated_setup, rounds,
                    traced_run)

SAMPLE_SIZE = 2_500
GPU = "RTX_3090"
BENCHMARKS = ("pnpoly", "convolution", "nbody")
BUDGET = 150
PASSES = 5
REPETITIONS = 8
SURROGATE_BENCHMARK = "pnpoly"


def build_caches(seed: int) -> dict[str, Any]:
    """Set-up: the suite, the GPU and the replayed caches."""
    suite = all_benchmarks()
    campaign = Campaign(benchmarks={name: suite[name] for name in BENCHMARKS},
                        gpus={GPU: all_gpus()[GPU]}, sample_size=SAMPLE_SIZE, seed=seed)
    return {name: campaign.cache(name, GPU) for name in BENCHMARKS}


def plan(seed: int) -> list[list[tuple[str, str, int]]]:
    """Every ``(tuner, benchmark, tuner seed)`` of each pass, model-free runs first."""
    model_free = [tuner for tuner in all_tuners() if tuner != "surrogate"]
    return [[(tuner, bench, seed * 1000 + p * REPETITIONS + rep)
             for tuner in model_free for bench in BENCHMARKS for rep in range(REPETITIONS)]
            + [("surrogate", SURROGATE_BENCHMARK, seed * 1000 + p)]
            for p in range(PASSES)]


class Study:
    """Runs the planned passes and keeps their best-value traces."""

    def __init__(self, caches: dict[str, Any], seed: int, outcome: Outcome,
                 recorder: Any = None):
        self.caches = caches
        self.passes = plan(seed)
        self.outcome = outcome
        self.recorder = recorder
        self.factories = all_tuners()
        self.clock = HostClock()
        self.pass_s: list[float] = []
        self.pass_raw_s: list[float] = []
        self.seconds: dict[str, list[float]] = {"model_free": [], "surrogate": []}
        self.traces: dict[str, list[float]] = {}

    def one(self, tuner: str, bench: str, seed: int):
        problem = self.caches[bench].to_problem(strict=False)
        return run_tuning(self.factories[tuner](seed=seed), problem, max_evaluations=BUDGET)

    def __call__(self) -> None:
        self.traces = {}
        clock = self.clock
        for runs in self.passes:
            clock.flush()
            scaled, raw = clock.scaled_s, clock.raw_s
            for tuner, bench, seed in runs:
                label = f"run:{tuner}:{bench}:{seed}"
                if self.recorder is not None:
                    self.recorder.set_op(label)
                start = time.perf_counter()
                result = self.outcome.operation(label, self.one, tuner, bench, seed)
                seconds = time.perf_counter() - start
                clock.add(seconds)
                self.seconds["surrogate" if tuner == "surrogate" else "model_free"].append(seconds)
                if result is not None:
                    self.check(label, result, self.caches[bench])
                    self.traces[label] = result.best_value_trace().tolist()
            clock.flush()
            self.pass_s.append(clock.scaled_s - scaled)
            self.pass_raw_s.append(clock.raw_s - raw)

    def check(self, label: str, result: Any, cache: Any) -> None:
        trace = result.best_value_trace()
        check = self.outcome.check
        check(0 < trace.size <= BUDGET and trace.size == len(result.observations),
              f"{label}: {trace.size} trace points for {len(result.observations)} evaluations")
        check(bool(np.all(trace[1:] <= trace[:-1])), f"{label}: best-value trace increases")
        check(trace[-1] >= cache.optimum(), f"{label}: beat the cache optimum")


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    outcome = Outcome(op_unit="tuning run")
    if trace:
        return _traced(seed, outcome)
    caches = repeated_setup(outcome, import_s, lambda: build_caches(seed))
    study = Study(caches, seed, outcome)
    rounds(seconds, study)
    check_pin(outcome, "tuner_study", seed, digest(study.traces))

    pass_s = statistics.median(study.pass_s)
    runs_per_pass = len(study.passes[0])
    outcome.samples.update(pass_s=(study.pass_s, "s"), pass_raw_s=(study.pass_raw_s, "s"),
                           model_free_run_s=(study.seconds["model_free"], "s"),
                           surrogate_run_s=(study.seconds["surrogate"], "s"),
                           reference_s=(study.clock.refs, "s"))
    outcome.metrics.update(wall_s=PASSES * pass_s, ops_per_s=runs_per_pass / pass_s,
                           peak_rss_mb=peak_rss_mb())
    outcome.details["host_clock"] = {"raw_s": study.clock.raw_s, "scaled_s": study.clock.scaled_s}
    for kind, name in (("model_free", "tuner_runs_per_s"), ("surrogate", "surrogate_runs_per_s")):
        times = study.seconds[kind]
        outcome.details[name] = {"value": len(times) / sum(times), "unit": "runs/s",
                                 "base": f"{len(times)} runs at budget {BUDGET}, wall time"}
    return outcome


def _traced(seed: int, outcome: Outcome) -> Outcome:
    def body(caches, recorder):
        study = Study(caches, seed, outcome, recorder)
        study()
        return study

    _, study = traced_run(outcome, lambda: build_caches(seed), body,
                          lambda caches, study: digest(study.traces))
    check_pin(outcome, "tuner_study", seed, digest(study.traces))
    return outcome
