"""Pin content digests of the analytical-model campaign caches.

Builds one campaign cache per (benchmark, GPU, noise flag) unit -- the seven paper
kernels on the four simulated GPUs, plus three generated synthetic scenarios -- and
records the SHA-256 of each cache's columnar serialization (values, validity and
error strings, metadata) in ``tests/data/model_digests.json``.  Exhaustive spaces
are enumerated in full; the three huge spaces (Hotspot, Dedispersion, Expdist) draw
``SAMPLE_SIZE`` unique configurations with seed ``SEED``.  Every unit is evaluated
with and without the deterministic noise model.

The digests were generated **before the perf model was ported to value columns**
and are the reference ``tests/test_model_oracle.py`` compares against: the column
model must reproduce every unit byte for byte.  Each entry stores its own recipe,
so the test rebuilds a unit from the JSON alone.  Re-running this script on a
revision that changes model semantics would silently re-pin the digests -- only do
that deliberately, with a CHANGES.md note.

Usage::

    PYTHONPATH=src python scripts/pin_model_digests.py
"""

from __future__ import annotations

import json
import tempfile
from hashlib import sha256
from pathlib import Path
from typing import Any

from repro.exec.planner import PAPER_SAMPLED_BENCHMARKS
from repro.gpus.specs import all_gpus
from repro.kernels import all_benchmarks
from repro.kernels import synthetic

SAMPLE_SIZE = 2_000
SEED = 2023

#: Generated scenarios covering both families, a high failure rate and the
#: degenerate single-parameter surface.
SYNTHETIC_SCENARIOS: tuple[dict[str, Any], ...] = (
    {"name": "oracle_separable", "family": "separable", "dimensions": 5, "seed": 1},
    {"name": "oracle_coupled", "family": "coupled", "dimensions": 5, "seed": 2,
     "failure_rate": 0.2},
    {"name": "oracle_coupled_1d", "family": "coupled", "dimensions": 1, "seed": 3,
     "radix_profile": [6]},
)

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "model_digests.json"


def unit_recipes() -> dict[str, dict[str, Any]]:
    """Unit key -> recipe (``benchmark``/``synthetic``, ``gpu``, ``sample_size``, ...)."""
    recipes: dict[str, dict[str, Any]] = {}
    gpus = list(all_gpus())
    for name in all_benchmarks():
        sample_size = SAMPLE_SIZE if name in PAPER_SAMPLED_BENCHMARKS else None
        for gpu in gpus:
            for with_noise in (True, False):
                recipes[f"{name}/{gpu}/noise={int(with_noise)}"] = {
                    "benchmark": name, "synthetic": None, "gpu": gpu,
                    "sample_size": sample_size, "seed": SEED, "with_noise": with_noise}
    for kwargs in SYNTHETIC_SCENARIOS:
        for gpu in gpus:
            for with_noise in (True, False):
                recipes[f"{kwargs['name']}/{gpu}/noise={int(with_noise)}"] = {
                    "benchmark": None, "synthetic": kwargs, "gpu": gpu,
                    "sample_size": None, "seed": SEED, "with_noise": with_noise}
    return recipes


def build_unit(recipe: dict[str, Any], benchmarks: dict[str, Any]):
    """The campaign cache a recipe describes."""
    if recipe["synthetic"] is not None:
        benchmark = synthetic.create_benchmark(**recipe["synthetic"])
    else:
        benchmark = benchmarks[recipe["benchmark"]]
    return benchmark.build_cache(all_gpus()[recipe["gpu"]],
                                 sample_size=recipe["sample_size"], seed=recipe["seed"],
                                 with_noise=recipe["with_noise"])


def cache_digest(cache, directory: Path) -> str:
    """SHA-256 of the cache's columnar serialization."""
    path = cache.to_columnar(directory / "unit.col")
    return sha256(path.read_bytes()).hexdigest()


def main() -> None:
    benchmarks = all_benchmarks()
    units: dict[str, dict[str, Any]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, recipe in unit_recipes().items():
            cache = build_unit(recipe, benchmarks)
            units[key] = dict(recipe, rows=len(cache),
                              digest=cache_digest(cache, Path(tmp)))
            print(f"{key:>44}: {len(cache):6d} rows {units[key]['digest'][:16]}")
    payload = {"_meta": {"sample_size": SAMPLE_SIZE, "seed": SEED,
                         "digest": "sha256 of EvaluationCache.to_columnar bytes"},
               "units": units}
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {OUT_PATH} ({len(units)} units)")


if __name__ == "__main__":
    main()
