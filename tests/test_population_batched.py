"""Tests of the generation-batched population tuners and their support layers.

Four layers of protection:

* **Operator RNG-stream discipline** -- every vectorized operator draw (GA
  crossover gates, paired tournament picks, DE donor choice over a pre-built
  pool, PSO's merged cognitive/social noise draw) must consume the generator
  stream exactly like the scalar sequence it replaced, so a golden breakage
  points at the operator, not the diff.  Fuzzed with hypothesis over seeds and
  shapes.
* **Batched-vs-sequential trajectory equivalence** -- a peeked generation-batched
  run and the same run with peeking disabled (the literal per-candidate loop)
  must produce byte-identical results and budget states on every kernel replay.
* **Batch codecs** -- ``decode_digits_batch``/``decode_indices``/``encode_index``
  agree element-wise with their scalar/per-row counterparts, including extreme
  inputs that stress the padded grid.
* **Memoized feasibility fast paths** -- the packed bitmap and the scalar memo
  rejection loop agree with the constraint-evaluation paths, draw for draw.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import Budget
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.specs import RTX_3090
from repro.tuners import DifferentialEvolution, GeneticAlgorithm, ParticleSwarm
from repro.tuners.genetic import GeneticAlgorithm as GA, _Individual

POPULATION_TUNERS = {
    "genetic": lambda: GeneticAlgorithm(population_size=10),
    "diff_evo": lambda: DifferentialEvolution(population_size=8),
    "pso": lambda: ParticleSwarm(swarm_size=8),
}


def states_equal(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ------------------------------------------------------- operator stream discipline


class TestOperatorStreamDiscipline:
    """Sized operator draws reproduce the scalar draw sequence exactly."""

    @given(seed=st.integers(0, 2**31 - 1), dims=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_crossover_gate_draw_matches_per_gene_loop(self, seed, dims):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        digits_a = np.arange(dims, dtype=np.int64)
        digits_b = np.arange(dims, dtype=np.int64) + 100
        a = _Individual(digits_a, 0, 1.0)
        b = _Individual(digits_b, 1, 2.0)
        got = GA(population_size=2)._crossover(a, b, rng_a)
        # The seed implementation: one uniform per gene, in parameter order.
        expected = np.empty_like(digits_a)
        for j in range(dims):
            expected[j] = digits_a[j] if rng_b.random() < 0.5 else digits_b[j]
        assert np.array_equal(got, expected)
        assert states_equal(rng_a, rng_b)

    @given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_mutation_keeps_interleaved_gate_and_sample_order(self, seed, rate):
        radices = [4, 7, 2, 9, 3]
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        ga = GA(population_size=2, mutation_rate=rate)
        got = ga._mutate(radices, np.zeros(len(radices), dtype=np.int64), rng_a)
        # The seed implementation: gate draw, then (only when the gate fires) a
        # re-sample draw, strictly interleaved per gene.
        expected = np.zeros(len(radices), dtype=np.int64)
        for j, radix in enumerate(radices):
            if rng_b.random() < rate:
                expected[j] = int(rng_b.integers(0, radix))
        assert np.array_equal(got, expected)
        assert states_equal(rng_a, rng_b)

    @given(seed=st.integers(0, 2**31 - 1), pop=st.integers(2, 30),
           k=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_tournament_pair_matches_two_sequential_tournaments(self, seed, pop, k):
        values = np.random.default_rng(seed ^ 0xABCDEF).random(pop).tolist()
        population = [_Individual(np.zeros(1, dtype=np.int64), i, v)
                      for i, v in enumerate(values)]
        ga = GA(population_size=2, tournament_size=k)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        pair = ga._tournament_pair(population, rng_a)
        # The seed implementation: two independent size-k tournaments, each one
        # sized pick draw then a first-minimum scan in pick order.
        expected = []
        for _ in range(2):
            picks = rng_b.integers(0, len(population), size=k)
            contenders = [population[int(i)] for i in picks]
            expected.append(min(contenders, key=lambda ind: ind.value))
        assert pair[0] is expected[0] and pair[1] is expected[1]
        assert states_equal(rng_a, rng_b)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 24))
    @settings(max_examples=60, deadline=None)
    def test_de_donor_choice_on_prebuilt_pool_matches_list_rebuild(self, seed, n):
        target = seed % n
        pool = np.asarray([i for i in range(n) if i != target])
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        got = rng_a.choice(pool, size=3, replace=False)
        # The seed implementation rebuilt the exclusion list per target and let
        # `choice` convert it.
        expected = rng_b.choice([i for i in range(n) if i != target], size=3,
                                replace=False)
        assert np.array_equal(got, expected)
        assert states_equal(rng_a, rng_b)

    @given(seed=st.integers(0, 2**31 - 1), dims=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_pso_merged_noise_draw_matches_two_vector_draws(self, seed, dims):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        r_cog, r_soc = rng_a.random((2, dims))
        assert np.array_equal(r_cog, rng_b.random(dims))
        assert np.array_equal(r_soc, rng_b.random(dims))
        assert states_equal(rng_a, rng_b)

    @given(seed=st.integers(0, 2**31 - 1), hi=st.integers(2, 2**40),
           k=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_sized_integer_draws_match_scalar_sequence(self, seed, hi, k):
        # The underlying guarantee the paired tournament (and every other sized
        # draw substitution) rests on: a size-k bounded draw consumes the
        # stream element-wise like k scalar draws.
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        got = rng_a.integers(0, hi, size=k)
        expected = [int(rng_b.integers(0, hi)) for _ in range(k)]
        assert got.tolist() == expected
        assert states_equal(rng_a, rng_b)


# -------------------------------------------- batched vs sequential trajectories


class TestBatchedTrajectoryEquivalence:
    """Peeked generation-batching is byte-identical to the per-candidate loop."""

    @pytest.fixture(scope="class")
    def replay_caches(self, benchmarks):
        return {name: benchmarks[name].build_cache(RTX_3090, sample_size=400,
                                                   seed=5)
                for name in ("gemm", "hotspot")}

    @pytest.mark.parametrize("tuner_name", sorted(POPULATION_TUNERS))
    @pytest.mark.parametrize("strict", [True, False])
    def test_peeked_run_equals_sequential_run(self, tuner_name, strict,
                                              replay_caches):
        for kernel, cache in replay_caches.items():
            for seed in (0, 3):
                batched_problem = cache.to_problem(strict=strict)
                sequential_problem = cache.to_problem(strict=strict)
                # Disabling the peek hooks forces GenerationRun into its
                # sequential mode: one evaluate_index per candidate.
                sequential_problem._peek_index_fn = None
                sequential_problem._peek_one_fn = None
                assert not sequential_problem.peekable

                budget_a = Budget(max_evaluations=120)
                budget_b = Budget(max_evaluations=120)
                a = POPULATION_TUNERS[tuner_name]().tune(batched_problem,
                                                         budget_a, seed=seed)
                b = POPULATION_TUNERS[tuner_name]().tune(sequential_problem,
                                                         budget_b, seed=seed)
                key = (tuner_name, kernel, strict, seed)
                assert json.dumps(a.to_dict()) == json.dumps(b.to_dict()), key
                assert budget_a.to_dict() == budget_b.to_dict(), key
                assert (batched_problem.evaluation_count
                        == sequential_problem.evaluation_count), key

    @pytest.mark.parametrize("tuner_name", sorted(POPULATION_TUNERS))
    def test_simulated_seconds_budget_takes_sequential_settle(self, tuner_name,
                                                              replay_caches):
        # A budget the bulk protocol cannot precompute: the generation settles
        # through evaluate_index_run's sequential fallback, which must still
        # match the pure per-candidate loop.
        cache = replay_caches["gemm"]
        peeked_problem = cache.to_problem(strict=False)
        scalar_problem = cache.to_problem(strict=False)
        scalar_problem._peek_index_fn = None
        scalar_problem._peek_one_fn = None

        def budget():
            return Budget(max_evaluations=90, max_simulated_seconds=0.12)

        budget_a, budget_b = budget(), budget()
        a = POPULATION_TUNERS[tuner_name]().tune(peeked_problem, budget_a, seed=1)
        b = POPULATION_TUNERS[tuner_name]().tune(scalar_problem, budget_b, seed=1)
        assert budget_a.affordable_evaluations() is None
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert budget_a.to_dict() == budget_b.to_dict()


# ------------------------------------------------------------------- batch codecs


class TestBatchCodecs:
    def test_decode_digits_batch_matches_scalar_rows(self, benchmarks):
        rng = np.random.default_rng(17)
        for name in ("gemm", "hotspot", "pnpoly"):
            space = benchmarks[name].space
            base = space.encode_indices(
                rng.integers(0, space.cardinality, size=40))
            vectors = base + rng.normal(0.0, 8.0, size=base.shape)
            batch = space.decode_digits_batch(vectors)
            for row, vector in zip(batch, vectors):
                assert np.array_equal(row, space.decode_digits(vector)), name
            indices = space.decode_indices(vectors)
            for index, vector in zip(indices.tolist(), vectors):
                assert index == space.decode_index(vector), name

    def test_decode_matches_per_parameter_scan_on_extremes(self, small_space):
        dims = small_space.dimensions
        for vector in (np.full(dims, np.inf), np.full(dims, -np.inf),
                       np.full(dims, 1e9), np.zeros(dims)):
            got = small_space.decode_digits(vector)
            for j, p in enumerate(small_space.parameters):
                expected = int(np.argmin(np.abs(p.numeric_values() - vector[j])))
                assert int(got[j]) == expected, (vector[0], j)

    def test_decode_round_trips_encoded_members(self, benchmarks):
        space = benchmarks["gemm"].space
        rng = np.random.default_rng(3)
        indices = rng.integers(0, space.cardinality, size=30)
        vectors = space.encode_indices(indices)
        assert np.array_equal(space.decode_indices(vectors), indices)

    def test_encode_index_matches_batch_row(self, benchmarks):
        rng = np.random.default_rng(23)
        for name, benchmark in benchmarks.items():
            space = benchmark.space
            indices = rng.integers(0, space.cardinality, size=15)
            batch = space.encode_indices(indices)
            for k, index in enumerate(indices.tolist()):
                assert np.array_equal(space.encode_index(index), batch[k]), name

    def test_encode_index_range_check(self, small_space):
        from repro.core.errors import InvalidConfigurationError
        with pytest.raises(InvalidConfigurationError):
            small_space.encode_index(-1)
        with pytest.raises(InvalidConfigurationError):
            small_space.encode_index(small_space.cardinality)

    def test_decode_shape_checks(self, small_space):
        from repro.core.errors import InvalidConfigurationError
        with pytest.raises(InvalidConfigurationError):
            small_space.decode_digits([0.0])
        with pytest.raises(InvalidConfigurationError):
            small_space.decode_index([0.0])
        with pytest.raises(InvalidConfigurationError):
            small_space.decode_digits_batch(np.zeros((3, 1)))

    def test_digits_of_index_is_public_and_matches_codec(self, benchmarks):
        space = benchmarks["pnpoly"].space
        rng = np.random.default_rng(9)
        indices = rng.integers(0, space.cardinality, size=20)
        batch = space.indices_to_digits(indices)
        for k, index in enumerate(indices.tolist()):
            assert np.array_equal(space.digits_of_index(index), batch[k])
        # The pre-publication spelling stays as an alias.
        assert np.array_equal(space._digits_of_index(int(indices[0])),
                              space.digits_of_index(int(indices[0])))


# ------------------------------------------------- memoized feasibility fast paths


class TestMemoizedFeasibilityFastPaths:
    def _space_pair(self):
        """Two identical constrained spaces, one with the feasible memo built."""
        def build():
            return SearchSpace(
                [Parameter("a", tuple(range(8))), Parameter("b", tuple(range(6))),
                 Parameter("c", (1, 2, 4, 8))],
                ["a % 2 == 0 or b > 3", "c <= 4 or a > 5"])
        memoized, plain = build(), build()
        assert memoized.feasible_indices() is not None
        return memoized, plain

    def test_bitmap_membership_matches_constraint_eval(self):
        memoized, plain = self._space_pair()
        for index in range(memoized.cardinality):
            assert memoized.index_is_feasible(index) == \
                plain.index_is_feasible(index), index

    def test_memoized_scalar_draw_matches_eval_loop_stream(self):
        memoized, plain = self._space_pair()
        for seed in range(25):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            for _ in range(5):
                assert memoized.sample_one_index(rng=rng_a) == \
                    plain.sample_one_index(rng=rng_b), seed
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_release_feasible_memo_drops_bitmap(self):
        memoized, _ = self._space_pair()
        assert memoized.index_is_feasible(0) in (True, False)
        assert "_feas_bits" in memoized.__dict__
        memoized.release_feasible_memo()
        assert "_feas_bits" not in memoized.__dict__
        # Verdicts survive through the constraint-evaluation path.
        rebuilt = memoized.feasible_indices()
        assert rebuilt is not None


# ----------------------------------------------------------------- scalar peeking


class TestScalarPeek:
    def test_peek_index_matches_batch_peek(self, benchmarks, gpu_3090):
        for strict in (True, False):
            cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=80,
                                                   seed=2)
            problem = cache.to_problem(strict=strict)
            assert problem.peekable
            rng = np.random.default_rng(0)
            space = cache.space
            stored = space.indices_of_configs([dict(o.config) for o in cache])[:20]
            probes = np.concatenate([stored,
                                     rng.integers(0, space.cardinality, 20)])
            values, failure, raises = problem.peek_indices(probes)
            for k, index in enumerate(probes.tolist()):
                assert problem.peek_index(index) == \
                    (values[k], failure[k], raises[k]), (strict, index)
            # Peeking is side-effect-free either way.
            assert problem.evaluation_count == 0
            assert problem.cache_size == 0

    def test_peek_index_none_when_unpeekable(self, pnpoly, gpu_3090):
        problem = pnpoly.problem(gpu_3090)
        assert not problem.peekable
        assert problem.peek_index(0) is None
        assert problem.peek_indices(np.arange(4)) is None

    def test_batch_wrapper_when_only_batch_peek_exists(self, benchmarks,
                                                       gpu_3090):
        cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=50, seed=7)
        problem = cache.to_problem(strict=False)
        problem._peek_one_fn = None  # force the one-element batch wrapper
        assert problem.peekable
        index = int(cache.space.indices_of_configs(
            [dict(next(iter(cache)).config)])[0])
        values, failure, raises = problem.peek_indices(np.asarray([index]))
        assert problem.peek_index(index) == \
            (float(values[0]), bool(failure[0]), bool(raises[0]))
