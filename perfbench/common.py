"""Shared pieces of the benchmark: outcome record, timing, statistics, host facts, digests."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: The checkout the benchmark runs in; everything it writes goes under ``OUT_DIR``.
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_per_s": "ops/s"}

#: Set-ups per run; ``setup_s`` reports their median (plus the one-off import time).
SETUPS = 3

#: Iterations of the reference loop, and its time on an unloaded core of the host the
#: benchmark was written on (Intel Xeon, 2 vCPUs under KVM).
REF_ITERATIONS = 50_000
REF_S = 0.0035
#: Longest stretch of timed work between two reference measurements.
REF_EVERY_S = 0.5


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    op_unit: str
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, tuple[list[float], str]] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    #: The traced run's :class:`tracing.SpanRecorder`, written out when the run ends.
    recorder: Any = None

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as an output mismatch unless ``ok``."""
        if not ok:
            self.mismatches.append(message)

    def operation(self, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one counted operation; a raise counts as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is data for error_rate, not a crash
            self.failed += 1
            self.mismatches.append(f"{label} raised {type(exc).__name__}: {exc}")
            return None


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def repeated_setup(outcome: Outcome, import_s: float, setup: Callable[[], Any]) -> Any:
    """Run ``setup`` :data:`SETUPS` times; record ``setup_s`` and return the last state.

    Times are on a :class:`HostClock`; the import time, taken before any reference,
    is scaled by the first one.
    """
    clock = HostClock()
    imports = import_s * REF_S / clock.refs[0]
    times, raw = [], []
    state = None
    for _ in range(SETUPS):
        state = None  # let the previous set-up's memory go before building the next
        clock.flush()
        seconds, state = timed(setup)
        times.append(imports + clock.scale(seconds))
        raw.append(import_s + seconds)
    outcome.samples.update(setup_s=(times, "s"), raw_setup_s=(raw, "s"))
    outcome.metrics["setup_s"] = float(np.median(times))
    return state


def rounds(seconds: float, body: Callable[[], None]) -> None:
    """Call ``body`` until ``seconds`` have passed, at least once."""
    start = time.perf_counter()
    body()
    while time.perf_counter() - start < seconds:
        body()


def _reference_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def reference_s(every_cpu: bool = False) -> float:
    """Seconds the fixed pure-Python reference loop takes right now, median of three.

    An interpreter loop, because on a shared host it slows in step with the workloads
    (GBDT fits, tuners, the perf model) where array kernels do not.  None of it is
    the program's own code.  With ``every_cpu`` it is the mean over the CPUs this
    process may run on, each measured pinned to it, for work spread over all of them.
    """
    if not every_cpu:
        return statistics.median(_reference_once() for _ in range(3))
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(reference_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


class HostClock:
    """Wall time of timed work, scaled to the host's reference speed.

    A shared host runs this benchmark up to half again slower for a minute at a time
    while neighbours load it, which no median within a run of this length removes.
    The clock measures :func:`reference_s` between timed operations, at least every
    :data:`REF_EVERY_S` of timed work, and scales the work timed between two
    measurements by ``REF_S`` over their mean.  The reference runs outside the timed
    operations and none of the program's code runs inside it, so a change to the
    program moves only the work's share of the scaled time.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.every_cpu = every_cpu
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.refs: list[float] = [reference_s(every_cpu)]
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        """Count one timed operation that took ``seconds`` of wall time."""
        self._pending += seconds
        if self._pending >= REF_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Measure the reference now and scale the work timed since the last one."""
        self.refs.append(reference_s(self.every_cpu))
        if self._pending:
            speed = REF_S / ((self.refs[-2] + self.refs[-1]) / 2)
            self.raw_s += self._pending
            self.scaled_s += self._pending * speed
            self._pending = 0.0

    def scale(self, seconds: float) -> float:
        """Scaled seconds of one operation timed right after a :meth:`flush`."""
        before = self.scaled_s
        self._pending += seconds
        self.flush()
        return self.scaled_s - before


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def summarize(samples: list[float]) -> dict[str, Any]:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out: dict[str, Any] = {"n": n, "median": float(np.median(values)) if n else None,
                           "tail_percentile": None, "tail": None}
    if n > 10:
        out["tail_percentile"] = round(100.0 * (n - 10) / n, 2)
        out["tail"] = float(values[n - 11])
    return out


def host_facts(workers: int) -> dict[str, Any]:
    """Facts that decide whether two results may be compared."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "mp_start_method": multiprocessing.get_start_method(),
        "workers": workers,
    }


def _plain(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form of ``value`` (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, default=_plain, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def traced_run(outcome: Outcome, setup: Callable[[], Any],
               body: Callable[[Any, Any], Any], fingerprint: Callable[[Any, Any], Any]
               ) -> tuple[Any, Any]:
    """One untraced set-up and timed phase, then both again with every layer traced.

    ``body(state, recorder)`` runs the timed phase; ``fingerprint(state, result)``
    must come out the same with tracing on and off.  Records the per-layer metrics,
    with the tracing overhead as the difference of the two wall times, and returns
    the traced ``(state, result)`` for the workload's own checks.
    """
    from layers import install, layer_metrics
    from tracing import Patcher, SpanRecorder

    setup_s, state = timed(setup)
    round_s, result = timed(body, state, None)
    plain = fingerprint(state, result)
    state = result = None
    rec = SpanRecorder()
    with Patcher() as patcher:
        install(rec, patcher)
        rec.set_op("setup")
        traced_setup_s, state = timed(setup)
        traced_round_s, result = timed(body, state, rec)
    outcome.check(fingerprint(state, result) == plain,
                  "the traced run computed different outputs from the untraced one")
    untraced_s = setup_s + round_s
    outcome.metrics.update(layer_metrics(
        rec, overhead_s=traced_setup_s + traced_round_s - untraced_s, untraced_s=untraced_s))
    outcome.details.update(untraced_setup_s=setup_s, untraced_round_s=round_s,
                           traced_setup_s=traced_setup_s, traced_round_s=traced_round_s)
    outcome.recorder = rec
    return state, result


def check_pin(outcome: Outcome, workload: str, seed: int, value: str) -> None:
    """Compare ``value`` with the digest pinned for ``seed``, if one is pinned."""
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.exists() else {}
    pinned = pins.get(workload, {}).get(str(seed))
    outcome.details["digest"] = value
    outcome.details["digest_pinned"] = pinned is not None
    if pinned is not None:
        outcome.check(value == pinned,
                      f"{workload} digest {value[:16]} differs from the one pinned for "
                      f"seed {seed} ({pinned[:16]})")
