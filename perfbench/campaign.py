"""``campaign``: the write side -- a paper-scale campaign build through ``repro.exec``.

Seven kernels on four GPUs at ``sample_size=10000`` (Sec. V of the paper: the four
small spaces exhaustive, 10 000 samples for the three huge ones), 259 904
configurations for seed 2023.  The timed phase is ``run_campaign`` with a
``ParallelExecutor`` of ``nproc`` workers into a fresh columnar checkpoint, then
``resume_campaign`` on the finished checkpoint.  The perf model and its noise hash,
engine sampling and enumeration, cache merge, fragment IO and executor dispatch do
all the work; ``ml``, ``tuners`` and ``graph`` do none.

Correctness: every merged cache, and every cache ``resume_campaign`` returns, must
serialize to the same columnar bytes as a serial, checkpoint-free reference build of
the same plan.  An operation is a shard; ``ops_per_s`` counts configurations evaluated,
merged and checkpointed per second of the ``run_campaign`` call.  Both calls are
timed on a :class:`common.HostClock` that measures its reference on every CPU right
before and right after each, while the workers are idle.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from hashlib import sha256
from pathlib import Path
from typing import Any

from repro.core.errors import SerializationError
from repro.exec import (CheckpointStore, ParallelExecutor, RetryPolicy, SerialExecutor,
                        ShardPlanner, resume_campaign, run_campaign)
from repro.gpus import all_gpus
from repro.kernels import all_benchmarks

from common import (OUT_DIR, HostClock, Outcome, check_pin, digest, nproc, peak_rss_mb,
                    repeated_setup, rounds, timed)

SAMPLE_SIZE = 10_000
#: Transient shard failures are retried, and what still fails is quarantined and
#: counted, instead of aborting the build.
MAX_RETRIES = 2


def unit_digests(caches: dict[tuple[str, str], Any]) -> dict[str, str]:
    """SHA-256 of each cache's columnar serialization, keyed ``benchmark/gpu``.

    The columnar file is the repository's byte-deterministic format for campaign
    caches (rows, values, failure strings and metadata), and writing it does not
    materialize one Python object per row the way the JSON form does.
    """
    digests = {}
    with tempfile.TemporaryDirectory(prefix="digest-", dir=OUT_DIR) as tmp:
        path = Path(tmp) / "cache.col"
        for (b, g), cache in sorted(caches.items()):
            try:
                cache.to_columnar(path)
                digests[f"{b}/{g}"] = sha256(path.read_bytes()).hexdigest()
            except SerializationError as exc:
                digests[f"{b}/{g}"] = f"not serializable: {exc}"
    return digests


class _Campaign:
    def __init__(self, seed: int):
        self.seed = seed
        self.benchmarks = all_benchmarks()
        self.gpus = all_gpus()
        self.plan = ShardPlanner(benchmarks=self.benchmarks, gpus=self.gpus,
                                 sample_size=SAMPLE_SIZE, seed=seed).plan()

    def executor(self, parallel: bool):
        policy = RetryPolicy(max_retries=MAX_RETRIES)
        if parallel:
            return ParallelExecutor(workers=nproc(), retry_policy=policy)
        return SerialExecutor(retry_policy=policy)

    def build(self, parallel: bool, checkpoint=None) -> tuple[float, Any, Any]:
        """``(seconds, caches, executor)`` of one ``run_campaign`` call."""
        executor = self.executor(parallel)
        store = (CheckpointStore(checkpoint, fragment_format="columnar")
                 if checkpoint is not None else None)
        seconds, caches = timed(run_campaign, benchmarks=self.benchmarks, gpus=self.gpus,
                                sample_size=SAMPLE_SIZE, seed=self.seed,
                                executor=executor, checkpoint=store)
        return seconds, caches, executor

    def resume(self, parallel: bool, checkpoint) -> tuple[float, Any, Any]:
        executor = self.executor(parallel)
        seconds, caches = timed(resume_campaign, checkpoint, executor=executor)
        return seconds, caches, executor


class _Pass:
    """One build plus resume into a fresh checkpoint, with its digests and counts."""

    def __init__(self, campaign: _Campaign, parallel: bool, outcome: Outcome, label: str,
                 clock: HostClock):
        shards = len(campaign.plan.shards)
        checkpoint = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)
        try:
            clock.flush()
            self.run_s, caches, run_exec = campaign.build(parallel, checkpoint)
            self.run_scaled_s = clock.scale(self.run_s)
            self.run_digests = unit_digests(caches)
            del caches
            clock.flush()
            self.resume_s, resumed, resume_exec = campaign.resume(parallel, checkpoint)
            self.resume_scaled_s = clock.scale(self.resume_s)
            self.resume_digests = unit_digests(resumed)
            del resumed
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)
        executors = (run_exec, resume_exec)
        retries = sum(sum(e.retry_counts.values()) for e in executors)
        quarantined = sum(len(e.quarantine) for e in executors)
        outcome.attempted += shards
        outcome.failed += quarantined
        outcome.check(quarantined == 0, f"{label}: {quarantined} shard(s) quarantined")
        for key, value in (("exec_retries", retries), ("exec_quarantined", quarantined)):
            outcome.details[key] = outcome.details.get(key, 0) + value

    @property
    def wall_s(self) -> float:
        return self.run_s + self.resume_s

    def compare(self, outcome: Outcome, reference: dict[str, str], label: str) -> None:
        for name, digests in (("run", self.run_digests), ("resume", self.resume_digests)):
            differing = sorted(k for k in reference if digests.get(k) != reference[k])
            outcome.check(not differing and set(digests) == set(reference),
                          f"{label} {name}: caches differ from the serial reference: "
                          f"{differing[:5]}")


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    outcome = Outcome(op_unit="shard")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    campaign = repeated_setup(outcome, import_s, lambda: _Campaign(seed))
    n_configs = campaign.plan.n_configs
    outcome.details.update(configs=n_configs, shards=len(campaign.plan.shards),
                           units=len(campaign.plan.units), workers=nproc())

    if trace:
        return _traced(campaign, outcome, seed)

    _, reference, _ = campaign.build(parallel=False)
    expected = unit_digests(reference)
    del reference
    check_pin(outcome, "campaign", seed, digest(expected))

    walls: list[float] = []
    raw_walls: list[float] = []
    rates: list[float] = []
    clock = HostClock(every_cpu=True)

    def one_round() -> None:
        parallel = _Pass(campaign, True, outcome, f"round {len(walls)}", clock)
        parallel.compare(outcome, expected, f"round {len(walls)}")
        walls.append(parallel.run_scaled_s + parallel.resume_scaled_s)
        raw_walls.append(parallel.wall_s)
        rates.append(n_configs / parallel.run_scaled_s)

    rounds(seconds, one_round)
    outcome.samples.update(wall_s=(walls, "s"), raw_wall_s=(raw_walls, "s"),
                           ops_per_s=(rates, "ops/s"), reference_s=(clock.refs, "s"))
    outcome.metrics.update(wall_s=statistics.median(walls), ops_per_s=statistics.median(rates),
                           peak_rss_mb=peak_rss_mb())
    outcome.details["evals_per_s"] = {"value": statistics.median(rates), "unit": "configs/s",
                                      "base": f"{n_configs} configurations per run"}
    return outcome


def _traced(campaign: _Campaign, outcome: Outcome, seed: int) -> Outcome:
    """Untraced parallel and serial passes, then the traced serial pass."""
    from layers import install, layer_metrics
    from tracing import Patcher, SpanRecorder

    clock = HostClock(every_cpu=True)
    parallel = _Pass(campaign, True, outcome, "parallel", clock)
    serial = _Pass(campaign, False, outcome, "serial", clock)
    rec = SpanRecorder()
    with Patcher() as patcher:
        install(rec, patcher)
        traced = _Pass(campaign, False, outcome, "traced serial", clock)
    expected = serial.run_digests
    check_pin(outcome, "campaign", seed, digest(expected))
    parallel.compare(outcome, expected, "parallel")
    serial.compare(outcome, expected, "serial")
    traced.compare(outcome, expected, "traced serial")

    outcome.metrics.update(layer_metrics(
        rec, overhead_s=traced.wall_s - serial.wall_s, untraced_s=serial.wall_s,
        parallel_efficiency=serial.run_s / (nproc() * parallel.run_s),
        retries=outcome.details["exec_retries"],
        quarantined=outcome.details["exec_quarantined"]))
    outcome.details.update(parallel_run_s=parallel.run_s, serial_run_s=serial.run_s,
                           serial_wall_s=serial.wall_s, traced_wall_s=traced.wall_s)
    outcome.recorder = rec
    return outcome
