"""Tests of the index-native tuner runtime.

Three layers of protection:

* **Trajectory equivalence** -- every migrated tuner, run on every kernel space
  (analytical-model problems plus cache replays), must reproduce the pinned
  pre-refactor golden trajectories byte for byte: same space indices, same values,
  same validity flags, same error strings, same evaluation order.  The goldens in
  ``tests/data/golden_trajectories.json.gz`` were generated at the seed revision by
  ``scripts/pin_golden_trajectories.py``.
* **Pairwise path equivalence** -- the index-native primitives (digit-arithmetic
  neighbourhoods, columnar cache lookups, ``evaluate_index``, scalar feasibility
  fast paths, tiled sweeps, bulk budget charging) agree element-wise with their
  dictionary-based counterparts on every kernel space; replays are compared
  against a reference problem whose only objective is a ``cache.get`` lookup.
* **Lazy-configuration semantics** -- :class:`repro.core.result.LazyConfig` is
  observably identical to the dictionary it defers.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.cache import EvaluationCache
from repro.core.errors import BudgetExhaustedError, CacheMissError
from repro.core.parameter import Parameter
from repro.core.problem import TuningProblem
from repro.core.result import LazyConfig, Observation, TuningResult
from repro.core.runner import run_tuning
from repro.core.searchspace import SearchSpace, config_key
from repro.gpus.specs import RTX_3090
from repro.tuners import (
    DifferentialEvolution,
    GeneticAlgorithm,
    GreedyILS,
    GridSearch,
    LocalSearch,
    ParticleSwarm,
    RandomSearch,
    SimulatedAnnealing,
    SurrogateSearch,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trajectories.json.gz"

GOLDEN_TUNERS = {
    "random": lambda: RandomSearch(),
    "grid_shuffled": lambda: GridSearch(stride=7919, shuffle=True),
    "local_first": lambda: LocalSearch(strategy="first"),
    "local_best": lambda: LocalSearch(strategy="best"),
    "greedy_ils": lambda: GreedyILS(perturbation_strength=2),
    "annealing": lambda: SimulatedAnnealing(),
    "genetic": lambda: GeneticAlgorithm(population_size=10),
    "diff_evo": lambda: DifferentialEvolution(population_size=8),
    "pso": lambda: ParticleSwarm(swarm_size=8),
    "surrogate": lambda: SurrogateSearch(initial_samples=12, batch_size=4,
                                         candidate_pool=120, n_estimators=15),
}


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN_PATH) as fh:
        return json.loads(fh.read())


@pytest.fixture(scope="module")
def golden_problems(benchmarks):
    """Fresh-problem factories matching scripts/pin_golden_trajectories.py."""
    factories = {}
    for name, benchmark in benchmarks.items():
        factories[f"model:{name}"] = (
            lambda b=benchmark: b.problem(RTX_3090, with_noise=True))
    for name in ("hotspot", "gemm"):
        cache = benchmarks[name].build_cache(RTX_3090, sample_size=400, seed=5)
        factories[f"replay:{name}"] = (
            lambda c=cache: c.to_problem(strict=True, memoize=True))
    return factories


class TestGoldenTrajectories:
    """Every migrated tuner reproduces the pinned seed trajectories exactly."""

    @pytest.mark.parametrize("tuner_name", sorted(GOLDEN_TUNERS))
    def test_byte_identical_to_seed_run(self, tuner_name, golden, golden_problems):
        budget = golden["_meta"]["budget"]
        seed = golden["_meta"]["seed"]
        for problem_name, make_problem in golden_problems.items():
            key = f"{tuner_name}@{problem_name}"
            problem = make_problem()
            result = run_tuning(GOLDEN_TUNERS[tuner_name](), problem,
                                max_evaluations=budget, seed=seed)
            space = problem.space
            got = []
            for obs in result.observations:
                value = None if not math.isfinite(obs.value) else obs.value
                got.append([space.index_of(obs.config), value, bool(obs.valid),
                            obs.error, obs.evaluation_index])
            assert got == golden["runs"][key], key
            # The recorded configurations (lazily materialised) must equal the
            # decoded golden indices, dictionary for dictionary.
            for obs, row in zip(result.observations, golden["runs"][key]):
                assert dict(obs.config) == space.config_at(row[0]), key


class TestLazyConfig:
    def test_behaves_like_the_materialised_dict(self, small_space):
        lazy = LazyConfig(small_space, 17)
        concrete = small_space.config_at(17)
        assert lazy == concrete
        assert concrete == lazy
        assert dict(lazy) == concrete
        assert len(lazy) == len(concrete)
        assert set(lazy) == set(concrete)
        assert lazy["block"] == concrete["block"]
        assert lazy.get("tile") == concrete["tile"]
        assert "vector" in lazy
        assert config_key(lazy) == config_key(concrete)
        assert lazy.space_index == 17
        assert json.dumps(dict(lazy)) == json.dumps(concrete)

    def test_materialises_once_and_only_on_demand(self, small_space):
        lazy = LazyConfig(small_space, 3)
        assert lazy._config is None  # nothing read yet
        first = lazy["block"]
        assert lazy._config is not None
        assert lazy._materialize() is lazy._materialize()
        assert first == small_space.config_at(3)["block"]

    def test_observation_keeps_lazy_config_unmaterialised(self, small_space):
        obs = Observation(config=LazyConfig(small_space, 5), value=1.0)
        assert isinstance(obs.config, LazyConfig)
        assert obs.to_dict()["config"] == small_space.config_at(5)
        plain = Observation(config=small_space.config_at(5), value=1.0)
        assert obs == plain

    def test_observation_fast_matches_constructor(self, small_space):
        config = small_space.config_at(9)
        a = Observation(config=config, value=2.5, valid=True, error="",
                        evaluation_index=4, gpu="g", benchmark="b")
        b = Observation.fast(dict(config), 2.5, True, "", 4, "g", "b")
        assert a == b
        assert a.to_dict() == b.to_dict()


class TestNeighborhoodKernels:
    @pytest.mark.parametrize("strategy", ["hamming", "adjacent"])
    def test_matches_dict_neighborhood_on_kernel_spaces(self, benchmarks, strategy):
        rng = np.random.default_rng(7)
        for name in ("gemm", "hotspot", "pnpoly"):
            space = benchmarks[name].space
            for _ in range(5):
                index = space.sample_one_index(rng=rng, valid_only=True)
                for valid_only in (True, False):
                    got = space.neighbor_indices(index, strategy=strategy,
                                                 valid_only=valid_only)
                    expected = space.neighbors(space.config_at(index),
                                               strategy=strategy,
                                               valid_only=valid_only)
                    assert space.configs_at(got) == expected, (name, index)

    def test_neighbor_memo_returns_consistent_arrays(self, small_space):
        a = small_space.neighbor_indices(5, strategy="hamming")
        b = small_space.neighbor_indices(5, strategy="hamming")
        assert a is b  # memoized
        assert not a.flags.writeable

    def test_unknown_strategy_raises(self, small_space):
        from repro.core.errors import InvalidConfigurationError
        with pytest.raises(InvalidConfigurationError):
            small_space.neighbor_indices(0, strategy="sideways")


class TestScalarFeasibilityFastPaths:
    def test_index_is_feasible_matches_is_valid(self, benchmarks):
        rng = np.random.default_rng(11)
        for name, benchmark in benchmarks.items():
            space = benchmark.space
            indices = rng.integers(0, space.cardinality, size=50)
            for index in indices.tolist():
                assert space.index_is_feasible(index) == \
                    space.is_valid(space.config_at(index)), (name, index)

    def test_is_satisfied_fast_matches_is_satisfied(self, benchmarks):
        rng = np.random.default_rng(13)
        for name, benchmark in benchmarks.items():
            space = benchmark.space
            for index in rng.integers(0, space.cardinality, size=30).tolist():
                config = space.config_at(index)
                assert space.constraints.is_satisfied_fast(config) == \
                    space.constraints.is_satisfied(config), (name, index)

    def test_fast_path_with_callable_falls_back(self):
        space = SearchSpace([Parameter("a", (1, 2, 3, 4))],
                            [lambda c: c["a"] != 3])
        assert space.index_is_feasible(0)
        assert not space.index_is_feasible(2)
        assert space.constraints.is_satisfied_fast({"a": 3}) is False

    def test_fast_path_survives_unconjoinable_expressions(self):
        # A trailing comment is a valid standalone expression but swallows the
        # closing paren when parenthesized into the conjunction; the fast path
        # must fall back to the per-constraint loop instead of crashing.
        space = SearchSpace([Parameter("a", (1, 2, 3, 4))],
                            ["a > 1  # must exceed one"])
        assert not space.index_is_feasible(0)
        assert space.index_is_feasible(2)
        assert space.sample_one_index(rng=np.random.default_rng(0)) in range(4)

    def test_sample_one_index_matches_sample_one(self, benchmarks):
        for name in ("hotspot", "gemm"):
            space = benchmarks[name].space
            a = space.sample_one_index(rng=np.random.default_rng(3))
            b = space.sample_one(rng=np.random.default_rng(3))
            assert space.config_at(a) == b, name


class TestTiledFeasibilitySweep:
    def test_range_mask_matches_digit_gather(self, benchmarks):
        for name, benchmark in benchmarks.items():
            space = benchmark.space
            for start, stop in ((0, min(6000, space.cardinality)),
                                (max(0, space.cardinality - 4000),
                                 space.cardinality)):
                tiled = space._feasible_mask_range(start, stop)
                gathered = space.satisfied_mask(
                    None, digits=space._digits_for_range(start, stop))
                assert np.array_equal(tiled, gathered), name

    def test_tiling_skips_unreferenced_columns(self, small_space):
        referenced = small_space.constraints.referenced_parameters()
        assert referenced == frozenset({"block", "tile", "vector"})
        columns = small_space._columns_for_range(0, 24, names=referenced)
        assert set(columns) == set(referenced)  # "cache" never materialised


class TestColumnarCacheLookups:
    def _build_cache(self, space, n=60, seed=0):
        cache = EvaluationCache("bench", "GPU", space)
        rng = np.random.default_rng(seed)
        indices = rng.choice(space.cardinality, size=n, replace=False)
        for k, index in enumerate(indices.tolist()):
            valid = k % 5 != 0
            cache.add(space.config_at(index), float(k + 1) if valid else math.inf,
                      valid=valid, error="" if valid else "boom")
        return cache, indices

    def test_lookup_agrees_with_dict_store(self, small_space):
        cache, indices = self._build_cache(small_space)
        table = cache.index_table()
        probe = np.concatenate([indices, [0, 1, 2, 3]])
        values, failure, found = table.lookup(probe)
        for index, value, fail, hit in zip(probe.tolist(), values, failure, found):
            obs = cache.get(small_space.config_at(index))
            assert hit == (obs is not None)
            if obs is not None:
                assert fail == obs.is_failure
                if not obs.is_failure:
                    assert value == obs.value
            assert table.lookup_one(index) == (value, fail, hit)

    def test_mutations_after_build_stay_in_sync(self, small_space):
        cache, _ = self._build_cache(small_space)
        table = cache.index_table()
        config = small_space.config_at(7)
        cache.add(config, 123.0)           # fresh entry after the build
        cache.add(config, 124.0)           # overwrite, same index
        value, fail, found = cache.index_table().lookup_one(7)
        assert (value, fail, found) == (124.0, False, True)
        assert cache.index_table() is table  # same table, synced in place

    def test_out_of_range_probes_are_misses(self, small_space, benchmarks,
                                            gpu_3090):
        dense_cache, _ = self._build_cache(small_space)
        hashed_cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=20,
                                                         seed=8)
        for cache in (dense_cache, hashed_cache):
            table = cache.index_table()
            assert table.lookup_one(-1) == (math.inf, True, False)
            assert table.lookup_one(cache.space.cardinality + 5) == \
                (math.inf, True, False)
            _, _, found = table.lookup(np.asarray([-1, -95,
                                                   cache.space.cardinality]))
            assert not found.any()

    def test_duplicate_indices_in_one_batch_do_not_leak_rows(self, small_space):
        cache = EvaluationCache("bench", "GPU", small_space)
        table = cache.index_table()  # built empty; adds now queue as pending
        config = small_space.config_at(5)
        cache.add(config, 1.0)
        cache.add(config, 2.0)  # overwrite inside the same pending flush
        table = cache.index_table()
        assert len(table) == 1
        assert table.lookup_one(5) == (2.0, False, True)

    def test_hashed_table_for_huge_spaces(self, benchmarks, gpu_3090):
        cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=50, seed=2)
        table = cache.index_table()
        assert not table._dense  # hotspot cardinality exceeds the dense ceiling
        space = cache.space
        for obs in cache:
            index = space.index_of(obs.config)
            value, fail, found = table.lookup_one(index)
            assert found and fail == obs.is_failure


class TestEvaluateIndex:
    def test_matches_dict_evaluation(self, benchmarks, gpu_3090):
        benchmark = benchmarks["pnpoly"]
        rng = np.random.default_rng(5)
        indices = rng.integers(0, benchmark.space.cardinality, size=40)
        dict_problem = benchmark.problem(gpu_3090)
        index_problem = benchmark.problem(gpu_3090)
        for index in indices.tolist():
            a = dict_problem.evaluate(benchmark.space.config_at(index))
            b = index_problem.evaluate_index(index)
            assert a.to_dict() == b.to_dict()

    def test_replay_matches_dict_evaluation_including_misses(self, benchmarks,
                                                             gpu_3090,
                                                             dict_replay):
        cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=100, seed=9)
        space = cache.space
        stored = space.indices_of_configs([dict(o.config) for o in cache])[:20]
        rng = np.random.default_rng(1)
        probes = np.concatenate([stored, rng.integers(0, space.cardinality, 20)])
        for strict in (True, False):
            dict_problem = dict_replay(cache, strict=strict)
            index_problem = cache.to_problem(strict=strict)
            for index in probes.tolist():
                a = dict_problem.evaluate(space.config_at(index))
                b = index_problem.evaluate_index(index)
                assert a.to_dict() == b.to_dict(), (strict, index)

    def test_mixed_paths_share_one_memo(self):
        # A config evaluated through the dict path then the index path (or the
        # reverse) on one memoized problem must be measured exactly once, even
        # for a non-deterministic objective -- a portfolio may mix members that
        # propose dictionaries with index-native ones on a shared problem.
        space = SearchSpace([Parameter("x", (1, 2, 3, 4))])
        calls = []

        def noisy(config):
            calls.append(dict(config))
            return float(len(calls))

        problem = TuningProblem("t", space, noisy, memoize=True)
        a = problem.evaluate({"x": 2})
        b = problem.evaluate_index(space.index_of({"x": 2}))
        c = problem.evaluate({"x": 2})
        assert len(calls) == 1
        assert a.value == b.value == c.value == 1.0
        assert problem.evaluation_count == 1
        assert problem.cache_size == 1
        # And the reverse order, plus the batch path.
        problem.reset_cache()
        calls.clear()
        d = problem.evaluate_index(space.index_of({"x": 3}))
        e = problem.evaluate({"x": 3})
        f = problem.evaluate_indices([space.index_of({"x": 3})],
                                     valid_hint=True)[0]
        assert len(calls) == 1
        assert d.value == e.value == f.value

    def test_batch_equals_sequential(self, benchmarks, gpu_3090):
        cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=100, seed=3)
        space = cache.space
        rng = np.random.default_rng(2)
        stored = space.indices_of_configs([dict(o.config) for o in cache])[:30]
        probes = np.concatenate([stored, rng.integers(0, space.cardinality, 30),
                                 stored[:5]])  # repeats exercise the memo
        sequential = cache.to_problem(strict=True)
        batched = cache.to_problem(strict=True)
        a = [sequential.evaluate_index(i, _valid_hint=True)
             for i in probes.tolist()]
        b = batched.evaluate_indices(probes, valid_hint=True)
        assert [o.to_dict() for o in a] == [o.to_dict() for o in b]
        assert sequential.evaluation_count == batched.evaluation_count

    def test_peek_is_side_effect_free(self, benchmarks, gpu_3090):
        cache = benchmarks["pnpoly"].build_cache(gpu_3090, sample_size=50, seed=4)
        problem = cache.to_problem()
        values, failure, raises = problem.peek_indices(np.arange(20))
        assert problem.evaluation_count == 0
        assert problem.cache_size == 0
        obs = problem.evaluate_index(int(np.arange(20)[~failure][0])
                                     if (~failure).any() else 0)
        if not obs.is_failure:
            assert obs.value == values[obs.config.space_index]


GEMM_MEMBER = {"MWG": 64, "NWG": 64, "MDIMC": 16, "NDIMC": 8, "MDIMA": 16,
               "NDIMB": 16, "VWM": 4, "VWN": 4, "SA": 0, "SB": 1}
NOT_A_MEMBER = "configuration not a member of the search space"


class TestConfigEntryPoints:
    """``evaluate``/``evaluate_many`` encode to the index, then delegate."""

    @pytest.fixture()
    def gemm_problem(self, benchmarks, gpu_3090):
        return benchmarks["gemm"].problem(gpu_3090)

    @pytest.mark.parametrize("change", [
        {"MWG": 999},           # off-list value that violates constraints
        {"MWG": 256},           # off-list value that satisfies every constraint
        {"SA": 2}, {"SB": 7},   # off-list values no constraint mentions
        {"KWG": 16},            # unknown parameter
    ])
    def test_off_list_values_are_not_members(self, gemm_problem, change):
        config = {**GEMM_MEMBER, **change}
        obs = gemm_problem.evaluate(config)
        assert (obs.valid, obs.value, obs.error) == (False, math.inf, NOT_A_MEMBER)
        assert obs.config == config
        assert obs.evaluation_index == 0
        assert gemm_problem.evaluation_count == 1
        assert gemm_problem.cache_size == 0  # no index, so never memoized

    def test_missing_parameter_is_not_a_member(self, gemm_problem):
        config = dict(GEMM_MEMBER)
        del config["MWG"]  # a constraint references MWG
        obs = gemm_problem.evaluate(config)
        assert (obs.valid, obs.error) == (False, NOT_A_MEMBER)
        again = gemm_problem.evaluate(config)
        assert again.evaluation_index == 1  # not memoized: counted again
        assert gemm_problem.cache_size == 0

    def test_constraint_violations_keep_their_error_bytes(self, gemm_problem):
        config = {**GEMM_MEMBER, "MWG": 16}
        obs = gemm_problem.evaluate(config)
        assert obs.error == ("constraint violation: MWG % (MDIMC * VWM) == 0, "
                             "MWG % (MDIMA * VWM) == 0")
        index_obs = gemm_problem.evaluate_index(
            gemm_problem.space.index_of(config))
        assert index_obs is obs  # one memo
        assert gemm_problem.cache_size == 1

    def test_evaluate_many_equals_the_loop(self, benchmarks, gpu_3090):
        space = benchmarks["gemm"].space
        rng = np.random.default_rng(4)
        configs = space.configs_at(rng.integers(0, space.cardinality, size=12))
        configs[3:3] = [{**GEMM_MEMBER, "SA": 2}, {**GEMM_MEMBER, "MWG": 16}]
        configs[8:8] = [{"MWG": 64}, configs[0], {**GEMM_MEMBER, "SA": 2}]
        batch_problem = benchmarks["gemm"].problem(gpu_3090)
        loop_problem = benchmarks["gemm"].problem(gpu_3090)
        batched = batch_problem.evaluate_many(configs)
        looped = [loop_problem.evaluate(c) for c in configs]
        assert [o.to_dict() for o in batched] == [o.to_dict() for o in looped]
        assert batch_problem.evaluation_count == loop_problem.evaluation_count
        assert batch_problem.cache_size == loop_problem.cache_size

    def test_tuner_records_non_members(self, benchmarks, gpu_3090):
        class Proposer(RandomSearch):
            def _run(self, problem, budget, rng):
                self.evaluate_all([{**GEMM_MEMBER, "SA": 2}, GEMM_MEMBER,
                                   {**GEMM_MEMBER, "SA": 2}])

        result = run_tuning(Proposer(), benchmarks["gemm"].problem(gpu_3090),
                            max_evaluations=10)
        assert [o.error for o in result.observations][::2] == [NOT_A_MEMBER] * 2
        assert result.observations[1].valid

    def test_exactly_one_objective(self, small_space):
        with pytest.raises(TypeError, match="exactly one"):
            TuningProblem("t", small_space)
        with pytest.raises(TypeError, match="exactly one"):
            TuningProblem("t", small_space, lambda c: 1.0,
                          evaluate_index_fn=lambda i: 1.0)


class TestObjectiveFailures:
    """Only ``repro`` errors become invalid rows; anything else is a bug."""

    @staticmethod
    def problems(space, exc):
        def fail(_):
            raise exc

        return [TuningProblem("t", space, fail),
                TuningProblem("t", space, evaluate_index_fn=fail)]

    def test_type_error_propagates(self, small_space):
        index = int(small_space.feasible_indices()[0])
        for problem in self.problems(small_space, TypeError("model bug")):
            with pytest.raises(TypeError, match="model bug"):
                problem.evaluate(small_space.config_at(index))
            with pytest.raises(TypeError, match="model bug"):
                problem.evaluate_index(index)
            with pytest.raises(TypeError, match="model bug"):
                problem.evaluate_indices([index, index + 1])
            with pytest.raises(TypeError, match="model bug"):
                problem.evaluate_indices([index], valid_hint=True)

    def test_repro_errors_become_invalid_rows(self, small_space):
        index = int(small_space.feasible_indices()[0])
        for problem in self.problems(small_space, CacheMissError("not cached")):
            obs = problem.evaluate_index(index)
            assert (obs.valid, obs.error) == (False, "evaluation failed: not cached")


class TestTunerConvergence:
    def test_curve_from_real_tuner_runs(self, pnpoly_cache_3090):
        from repro.analysis.convergence import tuner_convergence

        curve = tuner_convergence(pnpoly_cache_3090, lambda: LocalSearch(),
                                  repetitions=5, budget=30, base_seed=3)
        assert curve.evaluations.tolist() == list(range(1, 31))
        assert curve.median_relative_performance.shape == (30,)
        # Best-so-far relative performance is monotone non-decreasing and <= 1.
        diffs = np.diff(curve.median_relative_performance)
        assert (diffs >= -1e-12).all()
        assert curve.median_relative_performance.max() <= 1.0 + 1e-12
        # Deterministic given the base seed.
        again = tuner_convergence(pnpoly_cache_3090, lambda: LocalSearch(),
                                  repetitions=5, budget=30, base_seed=3)
        assert np.array_equal(curve.median_relative_performance,
                              again.median_relative_performance)


class TestIndexRunAccounting:
    def test_bulk_budget_matches_sequential(self, benchmarks, gpu_3090):
        cache = benchmarks["pnpoly"].build_cache(gpu_3090, sample_size=200, seed=6)
        space = cache.space
        indices = space.indices_of_configs([dict(o.config) for o in cache])[:50]
        indices = np.concatenate([indices, indices[:10]])  # duplicates

        def run():
            tuner = RandomSearch(seed=0)
            budget = Budget(max_evaluations=40)
            tuner._problem = cache.to_problem()
            tuner._budget = budget
            tuner._result = TuningResult()
            tuner._seen = set()
            tuner._track = [None, math.inf]
            return tuner, budget

        bulk_tuner, bulk_budget = run()
        bulk_obs = bulk_tuner.evaluate_index_run(indices)
        seq_tuner, seq_budget = run()
        seq_obs = []
        for i in indices:
            obs = seq_tuner.evaluate_index(i, valid_hint=True)
            if obs is None:
                break
            seq_obs.append(obs)
        assert len(bulk_obs) == len(seq_obs) == 40  # truncated by the budget
        assert [o.to_dict() for o in bulk_obs] == [o.to_dict() for o in seq_obs]
        assert bulk_budget.to_dict() == seq_budget.to_dict()
        assert bulk_tuner._seen == seq_tuner._seen
        assert bulk_tuner._track == seq_tuner._track

    def test_charge_bulk_equals_repeated_charges(self):
        a = Budget(max_evaluations=10)
        b = Budget(max_evaluations=10)
        seconds = [0.1, 2.0, 0.0]
        for value in seconds:
            a.charge(simulated_seconds=value, new_config=True)
        # The list form reproduces the sequential accumulation order bit for bit.
        b.charge_bulk(3, simulated_seconds=seconds, new_configs=3)
        assert a.to_dict() == b.to_dict()
        exhausted = Budget(max_evaluations=0)
        with pytest.raises(BudgetExhaustedError):
            exhausted.charge_bulk(1)
