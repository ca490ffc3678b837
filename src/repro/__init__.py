"""repro -- a reproduction of "Towards a Benchmarking Suite for Kernel Tuners" (BAT 2.0).

The package provides:

* :mod:`repro.core` -- the shared problem interface between benchmarks and tuners
  (parameters, constraints, search spaces, tuning problems, results, caches, runner).
* :mod:`repro.gpus` -- the simulated GPU substrate (architecture specs, occupancy and
  memory models, the base analytical kernel performance model).
* :mod:`repro.kernels` -- the seven BAT 2.0 tunable kernel benchmarks (GEMM, N-body,
  Hotspot, Pnpoly, Convolution, Expdist, Dedispersion), each with its parameter table,
  constraints, analytical performance model and a NumPy functional reference
  implementation.
* :mod:`repro.tuners` -- the optimizer portfolio implementing the shared ask/tell
  interface (random, grid, local search, simulated annealing, genetic, differential
  evolution, particle swarm, surrogate-model search).
* :mod:`repro.ml` -- gradient-boosted regression trees, metrics and permutation feature
  importance (the CatBoost substitute used for the paper's Fig. 6).
* :mod:`repro.graph` -- fitness-flow graph, PageRank and the proportion-of-centrality
  search-difficulty metric (Fig. 3).
* :mod:`repro.analysis` -- one module per paper figure/table, plus campaign
  orchestration and plain-text rendering of every result.
* :mod:`repro.io` -- cache-file and result persistence.

Quickstart
----------

>>> from repro import benchmark_suite, gpu_catalog
>>> from repro.tuners import RandomSearch
>>> from repro.core.runner import run_tuning
>>> problem = benchmark_suite()["pnpoly"].problem(gpu_catalog()["RTX_3090"])
>>> result = run_tuning(RandomSearch(seed=0), problem, max_evaluations=50)
>>> result.best_observation.value > 0
True
"""

from __future__ import annotations

from repro._version import __version__
from repro.core.parameter import Parameter
from repro.core.constraints import Constraint
from repro.core.searchspace import SearchSpace
from repro.core.problem import TuningProblem
from repro.core.result import Observation, TuningResult
from repro.core.registry import (
    BenchmarkSpec,
    benchmark_suite,
    gpu_catalog,
    tuner_catalog,
    get_benchmark,
    get_gpu,
    get_tuner,
    register_benchmark,
    registered_benchmarks,
    temporary_benchmark,
    unregister_benchmark,
)

__all__ = [
    "__version__",
    "Parameter",
    "Constraint",
    "SearchSpace",
    "TuningProblem",
    "Observation",
    "TuningResult",
    "BenchmarkSpec",
    "benchmark_suite",
    "gpu_catalog",
    "tuner_catalog",
    "get_benchmark",
    "get_gpu",
    "get_tuner",
    "register_benchmark",
    "registered_benchmarks",
    "temporary_benchmark",
    "unregister_benchmark",
]
