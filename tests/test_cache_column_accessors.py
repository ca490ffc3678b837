"""Differential suite: column-backed cache accessors vs their materialised twin.

Campaign caches are column-backed (space-index, value and failure-code columns
adopted by :meth:`EvaluationCache.attach_columns`), and the analyses read those
columns without building an observation per row.  The contract under test: every
column-reading accessor answers *exactly* what the same accessor answers once the
observation dictionary has been materialised -- arrays byte for byte, returned
observations field for field -- and none of them materialises the cache.

Covered: the seven kernels on the RTX 3090 at 500 samples, a synthetic scenario
with deterministic launch failures, and hand-built columns with failed rows,
finite-valued failures and ties for the best and worst value; lookups probe
members (valid and failed), in-space non-members and configurations outside the
space.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.errors import CacheMissError, ReproError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.graph import build_ffg
from repro.kernels.synthetic import create_benchmark

SAMPLE_SIZE = 500
KERNELS = ("gemm", "convolution", "pnpoly", "nbody", "hotspot", "dedispersion",
           "expdist")


def materialised_twin(cache: EvaluationCache) -> EvaluationCache:
    """A copy of column-backed ``cache`` whose observation dictionary is built."""
    lazy = cache._lazy
    twin = EvaluationCache(cache.benchmark, cache.gpu, cache.space,
                           exhaustive=cache.exhaustive)
    twin.attach_columns(lazy.indices.copy(), lazy.values.copy(), lazy.codes.copy(),
                        lazy.errors)
    assert len(twin.observations) == len(cache)
    assert twin._lazy is None
    return twin


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_observation(got, want) -> None:
    if want is None:
        assert got is None
        return
    assert struct.pack("<d", got.value) == struct.pack("<d", want.value)
    assert dict(got.config) == dict(want.config)
    assert ([type(v) for v in dict(got.config).values()]
            == [type(v) for v in dict(want.config).values()])
    assert (got.valid, got.error, got.evaluation_index, got.gpu, got.benchmark) == (
        want.valid, want.error, want.evaluation_index, want.gpu, want.benchmark)


def probes(cache: EvaluationCache, rng: np.random.Generator) -> list[dict]:
    """Members (every stored row), in-space non-members and non-space configs."""
    space = cache.space
    stored = cache._lazy.indices
    configs = space.configs_at(stored)
    absent = np.setdiff1d(rng.integers(0, space.cardinality, size=64), stored)
    configs += space.configs_at(absent[:32])
    first = dict(configs[0])
    name = space.parameter_names[0]
    configs.append({**first, name: object()})  # value outside the parameter
    configs.append({**first, "not_a_parameter": 1})  # unknown parameter
    configs.append({k: v for k, v in first.items() if k != name})  # missing one
    return configs


def assert_accessors_match(cache: EvaluationCache, seed: int = 0) -> None:
    """Every column-reading accessor of ``cache`` against its materialised twin."""
    assert cache._lazy is not None
    twin = materialised_twin(cache)

    assert len(cache) == len(twin)
    assert (cache.num_valid, cache.num_invalid) == (twin.num_valid, twin.num_invalid)
    for valid_only in (True, False):
        assert_same_array(cache.values(valid_only), twin.values(valid_only))
        assert cache.configs(valid_only) == twin.configs(valid_only)
    if twin.num_valid:
        assert cache.median() == twin.median()
        assert cache.statistics() == twin.statistics()
        assert_same_observation(cache.best(), twin.best())
        assert_same_observation(cache.worst(), twin.worst())
        assert cache.optimum() == twin.optimum()
        for valid_only in (True, False):
            for got, want in zip(cache.to_feature_matrix(valid_only),
                                 twin.to_feature_matrix(valid_only)):
                assert_same_array(got, want)
        assert_same_array(cache.valid_indices(), twin.valid_indices())
        graph, twin_graph = build_ffg(cache), build_ffg(twin)
        assert_same_array(graph.fitness, twin_graph.fitness)
        assert (graph.adjacency != twin_graph.adjacency).nnz == 0
        assert list(graph.configs) == list(twin_graph.configs)
    else:
        for accessor in (cache.best, cache.worst, cache.optimum, cache.median,
                         cache.statistics, cache.to_feature_matrix):
            with pytest.raises(ReproError):
                accessor()

    rng = np.random.default_rng(seed)
    for config in probes(cache, rng):
        assert (config in cache) == (config in twin)
        assert_same_observation(cache.get(config), twin.get(config))
        if config in twin:
            assert_same_observation(cache.lookup(config), twin.lookup(config))
        else:
            with pytest.raises(CacheMissError):
                cache.lookup(config)
    assert cache._lazy is not None, "a column-reading accessor materialised the cache"


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_cache_accessors_match_materialised(benchmarks, gpu_3090, name):
    cache = benchmarks[name].build_cache(gpu_3090, sample_size=SAMPLE_SIZE, seed=5)
    assert_accessors_match(cache, seed=KERNELS.index(name))


def test_synthetic_launch_failures_match_materialised(gpu_3090):
    benchmark = create_benchmark("diff-failures", dimensions=5, failure_rate=0.3,
                                 seed=11)
    cache = benchmark.build_cache(gpu_3090)  # exhaustive
    assert 0 < cache.num_invalid < len(cache)
    assert len(set(cache._lazy.errors)) > 1  # failure strings are interned
    assert_accessors_match(cache, seed=1)


@pytest.fixture
def grid_space() -> SearchSpace:
    return SearchSpace([Parameter("x", (1, 2, 3, 4)), Parameter("y", (8, 16, 32)),
                        Parameter("mode", ("a", "b"))])


def hand_built(space: SearchSpace, indices, values, codes, errors) -> EvaluationCache:
    cache = EvaluationCache("toy", "gpu0", space)
    cache.attach_columns(np.asarray(indices), np.asarray(values, dtype=float),
                         np.asarray(codes, dtype=np.int32), errors)
    return cache


def test_ties_and_failed_rows_match_materialised(grid_space):
    inf = float("inf")
    # Rows 1, 3 and 6 tie for the best value, rows 2 and 5 for the worst; row 4 is
    # a failure with a finite (smaller) value and row 0 an ordinary failure --
    # neither may be picked.  Codes: 0 = "oom", -2 = valid "", 2 = "timeout".
    cache = hand_built(grid_space, [17, 3, 9, 0, 22, 5, 11],
                       [inf, 1.5, 4.0, 1.5, 0.5, 4.0, 1.5],
                       [0, -2, -2, -2, 2, -2, -2], ["oom", "", "timeout"])
    best, worst = cache.best(), cache.worst()
    assert (best.evaluation_index, worst.evaluation_index) == (1, 2)
    assert cache.get(grid_space.config_at(22)).error == "timeout"
    assert_accessors_match(cache)


def test_no_valid_rows_match_materialised(grid_space):
    inf = float("inf")
    cache = hand_built(grid_space, [4, 7], [inf, inf], [0, 0], ["oom"])
    assert_accessors_match(cache)


def test_lookup_accepts_equal_values_of_another_type(grid_space):
    cache = hand_built(grid_space, [0, 5], [2.0, 3.0], [-1, -1], [""])
    twin = materialised_twin(cache)
    probe = {"x": 1.0, "y": 8, "mode": "a"}  # 1.0 == 1 keys the same entry
    assert probe in twin and probe in cache
    assert_same_observation(cache.get(probe), twin.get(probe))
    assert cache._lazy is not None
