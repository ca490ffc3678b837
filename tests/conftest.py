"""Shared fixtures for the test suite.

The fixtures deliberately use small workloads and small sampled campaigns so the whole
suite runs in a couple of minutes; the paper-scale campaign sizes are exercised by the
benchmark harness instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.campaign import Campaign
from repro.core.parameter import Parameter
from repro.core.constraints import ConstraintSet
from repro.core.errors import CacheMissError
from repro.core.problem import TuningProblem
from repro.core.searchspace import SearchSpace
from repro.gpus.specs import all_gpus, RTX_2080_TI, RTX_3090
from repro.kernels import all_benchmarks


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: tier-2 wall-clock smoke checks of the vectorized search-space engine "
        "(run in isolation with `pytest -m perf` or scripts/run_perf.sh --smoke)")


@pytest.fixture(scope="session")
def gpus():
    """The four simulated GPUs of the paper's testbed."""
    return all_gpus()


@pytest.fixture(scope="session")
def gpu_3090():
    """The RTX 3090 spec (Ampere)."""
    return RTX_3090


@pytest.fixture(scope="session")
def gpu_2080ti():
    """The RTX 2080 Ti spec (Turing)."""
    return RTX_2080_TI


@pytest.fixture(scope="session")
def benchmarks():
    """The full benchmark suite with default (paper-scale) workloads."""
    return all_benchmarks()


@pytest.fixture(scope="session")
def pnpoly(benchmarks):
    """The smallest benchmark (4 092 configurations), used by most tuner tests."""
    return benchmarks["pnpoly"]


@pytest.fixture(scope="session")
def small_space():
    """A tiny constrained search space with known structure, for core-data-structure tests."""
    parameters = [
        Parameter("block", (32, 64, 128, 256), description="threads per block"),
        Parameter("tile", (1, 2, 4), description="work per thread"),
        Parameter("vector", (1, 2, 4, 8), description="vector width"),
        Parameter("cache", (0, 1), description="use shared memory"),
    ]
    constraints = ConstraintSet(["block * tile <= 512", "vector <= tile * 4"])
    return SearchSpace(parameters, constraints, name="toy")


@pytest.fixture(scope="session")
def small_campaign(benchmarks, gpus):
    """A reduced campaign (two GPUs, small samples) shared across analysis tests."""
    selected_gpus = {name: gpus[name] for name in ("RTX_3090", "RTX_2080_Ti")}
    selected_benchmarks = {name: benchmarks[name]
                           for name in ("pnpoly", "nbody", "hotspot", "convolution")}
    campaign = Campaign(selected_benchmarks, selected_gpus, sample_size=400,
                        exhaustive_limit=10_000, seed=7)
    return campaign


@pytest.fixture(scope="session")
def pnpoly_cache_3090(small_campaign):
    """Exhaustive Pnpoly cache on the RTX 3090."""
    return small_campaign.cache("pnpoly", "RTX_3090")


@pytest.fixture(scope="session")
def dict_replay():
    """Factory of configuration-keyed replay problems: the reference that
    index-native replays (``EvaluationCache.to_problem``) are compared against.

    The only objective is a lookup over the cache's dictionary store
    (``cache.get``) with ``to_problem``'s miss and failure semantics, so a
    differential test exercises the dictionary store against the index table.
    """
    def make(cache, strict: bool = True) -> TuningProblem:
        def lookup(config):
            obs = cache.get(config)
            if obs is None:
                if strict:
                    raise CacheMissError(f"configuration not present in "
                                         f"{cache.benchmark}/{cache.gpu} cache")
                return math.inf
            return math.inf if obs.is_failure else obs.value

        return TuningProblem(cache.benchmark, cache.space, evaluate_fn=lookup,
                             gpu=cache.gpu)
    return make


@pytest.fixture()
def rng():
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)
