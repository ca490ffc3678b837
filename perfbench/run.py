"""The repository's benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 2023 --seconds 5 --trace 0

Workloads (each a batch run of fixed work at a stated input size, in a fresh process
so that ``peak_rss_mb`` is that workload's alone):

* ``campaign`` -- paper-scale campaign build, the write side (``campaign.py``);
* ``figures`` -- the figure and table analyses from default-scale caches (``figures.py``);
* ``tuner_study`` -- all nine tuners replayed on campaign caches (``tuner_study.py``).

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:
``setup_s`` (process start to the first timed operation, median of several
set-ups), ``wall_s`` (the timed phase), ``peak_rss_mb`` (this process plus its
largest worker) and ``ops_per_s`` (the workload's throughput: configurations,
panels or tuning runs per second).  The timed phase repeats until ``--seconds``
have passed, at least once, and each metric is the median over repetitions.
Times, ``setup_s`` too, are taken on a ``common.HostClock``: wall time scaled to the
host's speed on a fixed reference loop, measured between operations, because the
shared host's speed drifts by half for a minute at a time.  Unscaled wall times are
in the report line.

With ``--trace 1`` the run instead records a span per call into each layer
(``layers.py``, ``tracing.py``), compares traced and untraced outputs, writes the
spans as JSON lines under ``.perfbench/`` and reports the per-layer metrics.

Every run checks its outputs (``output_mismatches``): identity against a serial
reference or the untraced run, the paper's qualitative claims, and, for the seeds
pinned in ``pins.json`` (2023, the paper campaign's seed, and the held-out seed 7),
a digest of everything computed.  Operations that raise or are quarantined count
as failed.  The second-to-last line of standard output is a JSON report with host
facts, sample counts, medians and tail percentiles; the last line is the result::

    {"correct": true, "attempted": 112, "failed": 0, "metrics": {...}}

A failed check exits with status 1; a checkout without the ``repro`` sources exits
with status 2 before printing a result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up time)
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread per process: a few shared cores, and the campaign's workers already
# use every one of them.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

WORKLOADS = ("campaign", "figures", "tuner_study")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test ({exc}); run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    import importlib

    import common
    from layers import PER_LAYER

    module = importlib.import_module(args.workload)
    import_s = time.perf_counter() - _START
    outcome = module.run(args.seed, args.seconds, bool(args.trace), import_s)

    names = PER_LAYER if args.trace else common.END_TO_END
    units = {name: (spec[0] if isinstance(spec, tuple) else spec)
             for name, spec in names.items()}
    missing = sorted(set(units) - set(outcome.metrics))
    outcome.check(not missing, f"metrics not measured: {missing}")
    for name, unit in units.items():
        if not args.trace and name not in outcome.samples and name in outcome.metrics:
            outcome.samples[name] = ([outcome.metrics[name]], unit)

    report: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": common.host_facts(outcome.details.get("workers", 1)),
        "operations": {"unit": outcome.op_unit, "attempted": outcome.attempted,
                       "failed": outcome.failed},
        "error_rate": {"value": outcome.failed / max(outcome.attempted, 1),
                       "unit": "failed/attempted",
                       "base": f"{outcome.attempted} {outcome.op_unit}(s) attempted"},
        "output_mismatches": {"value": len(outcome.mismatches), "unit": "count",
                              "failed_checks": outcome.mismatches},
        "samples": {name: {"unit": unit, **common.summarize(values)}
                    for name, (values, unit) in outcome.samples.items()},
        "details": outcome.details,
    }
    if outcome.recorder is not None:
        # One file per workload, replaced by its next traced run.
        path = common.OUT_DIR / f"spans-{args.workload}.jsonl"
        report["spans_file"] = str(outcome.recorder.write_jsonl(path).relative_to(common.ROOT))
        report["layer_spans"] = outcome.recorder.totals()
    print(json.dumps(report, default=str))

    correct = not outcome.mismatches
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
