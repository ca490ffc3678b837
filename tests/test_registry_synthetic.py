"""Tests of the open benchmark registry and the synthetic scenario suite.

Three layers, mirroring the protections of ``tests/test_index_native.py`` and
``tests/test_exec.py``:

* **Registry contract** -- benchmarks register as *picklable specs* (never live
  objects), resolve from ``"module:factory"`` strings, and round-trip through JSON
  (which is what plan manifests store).
* **Differential harness** -- for every synthetic scenario family, the
  :class:`~repro.exec.executors.SerialExecutor` and
  :class:`~repro.exec.executors.ParallelExecutor` merge *byte-identical* caches, a
  checkpoint/resume round-trip rebuilt purely from manifest specs (nothing
  registered) matches byte for byte, and the dictionary and index evaluation paths
  agree observation for observation -- same values, same error strings.
* **Property-style fuzz** -- seeded :mod:`random` (no new dependencies) generates
  ~200 spaces of varying radices and constraint density and asserts the mixed-radix
  codec round-trips (``indices_to_digits``/``digits_to_indices``,
  ``encode_indices``/``decode_index``) and the hashed
  :meth:`~repro.core.cache.EvaluationCache.index_table` searchsorted path agree with
  the dense path and the dict store.
"""

from __future__ import annotations

import io
import json
import math
import os
import random

import numpy as np
import pytest

import repro.core.cache as cache_module
from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError
from repro.core.parameter import Parameter
from repro.core.registry import (
    BenchmarkSpec,
    benchmark_spec,
    benchmark_suite,
    get_benchmark,
    register_benchmark,
    registered_benchmarks,
    temporary_benchmark,
    unregister_benchmark,
)
from repro.core.runner import run_matrix, run_tuning
from repro.core.searchspace import SearchSpace
from repro.exec import (
    CheckpointStore,
    ParallelExecutor,
    SerialExecutor,
    ShardPlanner,
    resume_campaign,
)
from repro.exec.cli import main as exec_main
from repro.kernels import synthetic
from repro.kernels.synthetic import FACTORY_SPEC, create_benchmark, scenario_specs, synthetic_suite

#: One scenario per structural corner: unconstrained, densely constrained with a
#: high failure rate, coupled family, and an explicit radix profile.
SCENARIOS: dict[str, dict] = {
    "syn_sep_plain": dict(family="separable", dimensions=3, seed=3,
                          constraint_density=0.0, failure_rate=0.0),
    "syn_sep_hard": dict(family="separable", dimensions=4, seed=11,
                         constraint_density=0.8, failure_rate=0.15),
    "syn_coupled": dict(family="coupled", dimensions=4, seed=7,
                        constraint_density=0.5, failure_rate=0.05),
    "syn_coupled_radix": dict(family="coupled", dimensions=3, seed=2,
                              radix_profile=[4, 3, 5], constraint_density=0.4,
                              failure_rate=0.1),
}

SHARD_SIZE = 25


def cache_bytes(cache) -> str:
    """Canonical serialized form used for byte-identity assertions."""
    return json.dumps(cache.to_dict())


def make_scenario(name: str):
    return create_benchmark(name=name, **SCENARIOS[name])


@pytest.fixture(scope="module")
def scenarios():
    return {name: make_scenario(name) for name in SCENARIOS}


@pytest.fixture()
def clean_registry():
    """Fail loudly if a test leaks registrations into the process-global registry."""
    before = set(registered_benchmarks())
    yield
    leaked = set(registered_benchmarks()) - before
    for name in leaked:
        unregister_benchmark(name)
    assert not leaked, f"test leaked benchmark registrations: {sorted(leaked)}"


# --------------------------------------------------------------------------- specs


class TestBenchmarkSpec:
    def test_parse_accepts_string_mapping_spec_and_callable(self):
        from_string = BenchmarkSpec.parse(FACTORY_SPEC, seed=4)
        from_mapping = BenchmarkSpec.parse({"factory": FACTORY_SPEC,
                                            "kwargs": {"seed": 4}})
        from_callable = BenchmarkSpec.parse(create_benchmark, seed=4)
        assert from_string == from_mapping == from_callable
        assert BenchmarkSpec.parse(from_string) is from_string

    def test_kwargs_are_canonicalized_through_json(self):
        spec = BenchmarkSpec(FACTORY_SPEC, {"radix_profile": (4, 3, 5)})
        assert spec.kwargs["radix_profile"] == [4, 3, 5]  # tuple -> list, like a manifest
        restored = BenchmarkSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_non_json_kwargs_are_refused(self):
        with pytest.raises(ReproError, match="JSON-serializable"):
            BenchmarkSpec(FACTORY_SPEC, {"rng": object()})

    def test_malformed_factory_strings_are_refused(self):
        for bad in ("no_colon", ":attr", "module:", 123):
            with pytest.raises(ReproError):
                BenchmarkSpec.parse(bad)

    def test_unimportable_specs_fail_loudly(self):
        with pytest.raises(ReproError, match="cannot import"):
            BenchmarkSpec("no.such.module:factory").resolve()
        with pytest.raises(ReproError, match="no attribute"):
            BenchmarkSpec("repro.kernels.synthetic:no_such_factory").resolve()

    def test_lambdas_and_closures_are_refused(self):
        with pytest.raises(ReproError, match="picklable spec"):
            BenchmarkSpec.parse(lambda: None)

        def local_factory():  # pragma: no cover - never built
            return None

        with pytest.raises(ReproError, match="picklable spec"):
            BenchmarkSpec.parse(local_factory)

    def test_build_returns_a_fresh_benchmark(self):
        spec = BenchmarkSpec(FACTORY_SPEC, {"name": "b", "dimensions": 3, "seed": 1})
        a, b = spec.build(), spec.build()
        assert a is not b
        assert a.space.to_dict() == b.space.to_dict()

    def test_specs_pickle(self):
        import pickle

        spec = BenchmarkSpec(FACTORY_SPEC, {"seed": 9})
        assert pickle.loads(pickle.dumps(spec)) == spec


# ------------------------------------------------------------------ open registry


class TestOpenRegistry:
    def test_register_resolve_unregister_round_trip(self, clean_registry):
        spec = register_benchmark("my scenario", FACTORY_SPEC, name="my_scenario",
                                  family="coupled", dimensions=3, seed=5)
        assert registered_benchmarks() == {"my_scenario": spec}
        assert benchmark_spec("my_scenario") == spec
        # get_benchmark normalizes exactly like get_gpu: case, '-' and spaces.
        for alias in ("my_scenario", "MY-SCENARIO", "My Scenario"):
            assert get_benchmark(alias).name == "my_scenario"
        assert "my_scenario" in benchmark_suite()
        unregister_benchmark("My-Scenario")
        assert "my_scenario" not in benchmark_suite()

    def test_builtin_lookup_still_normalizes(self):
        assert get_benchmark("GEMM").name == "gemm"
        assert get_benchmark("Hot Spot".replace(" ", "")).name == "hotspot"

    def test_unknown_benchmark_error_lists_registered_customs(self, clean_registry):
        with temporary_benchmark("ghost_scn", FACTORY_SPEC, name="ghost_scn", seed=1):
            with pytest.raises(ReproError) as excinfo:
                get_benchmark("definitely_not_a_kernel")
            message = str(excinfo.value)
            assert "ghost_scn" in message
            assert "registered custom benchmarks" in message
            assert "gemm" in message

    def test_builtin_names_cannot_be_shadowed(self):
        with pytest.raises(ReproError, match="shadow"):
            register_benchmark("gemm", FACTORY_SPEC)

    def test_duplicate_registration_needs_overwrite(self, clean_registry):
        register_benchmark("dup_scn", FACTORY_SPEC, name="dup_scn", seed=1)
        try:
            with pytest.raises(ReproError, match="already registered"):
                register_benchmark("dup_scn", FACTORY_SPEC, name="dup_scn", seed=2)
            replaced = register_benchmark("dup_scn", FACTORY_SPEC, overwrite=True,
                                          name="dup_scn", seed=2)
            assert registered_benchmarks()["dup_scn"] is replaced
        finally:
            unregister_benchmark("dup_scn")

    def test_broken_factories_fail_at_registration(self, clean_registry):
        with pytest.raises(ReproError, match="unknown synthetic family"):
            register_benchmark("broken", FACTORY_SPEC, family="nonexistent")
        assert "broken" not in registered_benchmarks()

    def test_mislabeling_specs_fail_at_registration(self, clean_registry):
        # Caches and plan units carry the benchmark's own name; a spec whose
        # factory defaults to a different name would mislabel campaign data (and
        # two such registrations would share one noise/failure identity).
        with pytest.raises(ReproError, match="one identity"):
            register_benchmark("mislabeled_scn", FACTORY_SPEC, seed=1)
        assert "mislabeled_scn" not in registered_benchmarks()

    def test_unregister_unknown_name_lists_customs(self):
        with pytest.raises(ReproError, match="not registered"):
            unregister_benchmark("never_registered")

    def test_temporary_benchmark_restores_a_shadowed_registration(self,
                                                                  clean_registry):
        original = register_benchmark("shadow_scn", FACTORY_SPEC,
                                      name="shadow_scn", seed=1)
        try:
            with temporary_benchmark("shadow_scn", FACTORY_SPEC,
                                     name="shadow_scn", seed=2) as shadow:
                assert registered_benchmarks()["shadow_scn"] is shadow
            assert registered_benchmarks()["shadow_scn"] is original
        finally:
            unregister_benchmark("shadow_scn")

    def test_planner_records_registered_spec_into_units(self, clean_registry, gpus):
        with temporary_benchmark("unit_scn", FACTORY_SPEC, name="unit_scn",
                                 dimensions=3, seed=4) as spec:
            planner = ShardPlanner({"unit_scn": get_benchmark("unit_scn")},
                                   {"RTX_3090": gpus["RTX_3090"]},
                                   shard_size=SHARD_SIZE)
            unit = planner.plan().units[0]
            assert unit.spec == spec.to_dict()
        # Built-in kernels stay spec-free (workers rebuild them by name).
        builtin = ShardPlanner(gpus={"RTX_3090": gpus["RTX_3090"]},
                               shard_size=SHARD_SIZE)
        assert all(u.spec is None for u in builtin.plan().units)

    def test_huge_custom_scenarios_are_sampled_by_default(self, gpus):
        # A registered scenario with a paper-kernel-sized space (here ~6e7 points)
        # must not schedule exhaustive enumeration by accident: with no explicit
        # exhaustive_limit, customs above CUSTOM_EXHAUSTIVE_LIMIT are sampled.
        from repro.exec.planner import CUSTOM_EXHAUSTIVE_LIMIT

        huge = create_benchmark(name="huge_scn", dimensions=10,
                                radix_profile=[6] * 10, constraint_density=0.0,
                                failure_rate=0.0, seed=1)
        assert huge.space.cardinality > CUSTOM_EXHAUSTIVE_LIMIT
        planner = ShardPlanner({"huge_scn": huge},
                               {"RTX_3090": gpus["RTX_3090"]}, sample_size=500)
        assert planner.is_sampled("huge_scn")
        unit = planner.unit_for("huge_scn", "RTX_3090")
        assert unit.sample_size == 500 and unit.n_configs == 500
        # Paper kernels keep the paper design: pnpoly stays exhaustive.
        assert not ShardPlanner(gpus=planner.gpus).is_sampled("pnpoly")


# ------------------------------------------------------------ synthetic scenarios


class TestSyntheticScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_generation_is_deterministic(self, name, scenarios, gpu_3090):
        rebuilt = make_scenario(name)
        benchmark = scenarios[name]
        assert rebuilt.space.to_dict() == benchmark.space.to_dict()
        assert dict(rebuilt.workload.sizes) == dict(benchmark.workload.sizes)
        assert cache_bytes(rebuilt.build_cache(gpu_3090)) == \
            cache_bytes(benchmark.build_cache(gpu_3090))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_constraints_stay_inside_the_vectorizable_subset(self, name, scenarios):
        space = scenarios[name].space
        assert space.constraints.all_vectorized
        assert space.count_constrained() > 0

    def test_failure_model_is_deterministic_and_rate_like(self, scenarios, gpu_3090):
        benchmark = scenarios["syn_sep_hard"]
        cache = benchmark.build_cache(gpu_3090)
        assert cache.num_invalid > 0 and cache.num_valid > 0
        failed = [o for o in cache if o.is_failure]
        assert all("synthetic scenario" in o.error for o in failed)
        # The observed failure fraction tracks the configured rate loosely.
        fraction = cache.num_invalid / len(cache)
        assert 0.02 < fraction < 0.5

    def test_zero_failure_rate_never_fails(self, scenarios, gpu_3090):
        cache = scenarios["syn_sep_plain"].build_cache(gpu_3090)
        assert cache.num_invalid == 0

    def test_optimum_moves_between_devices(self, scenarios, gpus):
        # Noise-free comparison, so differing landscapes can only come from the
        # per-device optimum shift of the value surface.
        benchmark = scenarios["syn_coupled"]
        values = {name: benchmark.build_cache(gpu, with_noise=False).values()
                  for name, gpu in gpus.items()}
        a, b = list(values.values())[:2]
        assert not np.allclose(a, b)

    def test_families_produce_different_surfaces(self, gpu_3090):
        kwargs = dict(dimensions=4, seed=13, constraint_density=0.0,
                      failure_rate=0.0, radix_profile=[4, 4, 4, 4])
        sep = create_benchmark(name="fam", family="separable", **kwargs)
        coupled = create_benchmark(name="fam", family="coupled", **kwargs)
        assert sep.space.to_dict() == coupled.space.to_dict()
        values_sep = sep.build_cache(gpu_3090, with_noise=False).values()
        values_coupled = coupled.build_cache(gpu_3090, with_noise=False).values()
        assert not np.allclose(values_sep, values_coupled)

    def test_invalid_arguments_are_refused(self):
        with pytest.raises(ReproError, match="family"):
            create_benchmark(family="spiral")
        with pytest.raises(ReproError, match="dimensions"):
            create_benchmark(dimensions=0)
        with pytest.raises(ReproError, match="radix_profile"):
            create_benchmark(dimensions=3, radix_profile=[4, 4])
        with pytest.raises(ReproError, match="radix"):
            create_benchmark(dimensions=2, radix_profile=[4, 1])

    def test_scenario_specs_sweep(self):
        specs = scenario_specs(6, base_seed=100)
        assert len(specs) == 6
        families = {spec["kwargs"]["family"] for spec in specs.values()}
        assert families == set(synthetic.FAMILIES)
        suite = synthetic_suite(3, base_seed=100, dimensions=3)
        assert all(suite[name].space.dimensions == 3 for name in suite)
        assert set(suite) == set(scenario_specs(3, base_seed=100))


# --------------------------------------------------- differential executor harness


class TestDifferentialExecution:
    """Serial vs parallel vs resume, byte for byte, per scenario family."""

    def _planner(self, name, benchmark, gpus):
        return ShardPlanner({name: benchmark}, {"RTX_3090": gpus["RTX_3090"]},
                            shard_size=SHARD_SIZE)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_serial_executor_matches_build_cache(self, name, scenarios, gpus):
        planner = self._planner(name, scenarios[name], gpus)
        unit = planner.unit_for(name, "RTX_3090")
        caches = SerialExecutor().run(planner.plan(),
                                      benchmarks=planner.benchmarks,
                                      gpus=planner.gpus)
        reference = scenarios[name].build_cache(
            gpus["RTX_3090"], sample_size=unit.sample_size, seed=unit.seed)
        assert cache_bytes(caches[(name, "RTX_3090")]) == cache_bytes(reference)

    @pytest.mark.parametrize("name", ["syn_sep_hard", "syn_coupled"])
    def test_parallel_executor_is_byte_identical(self, name, scenarios, gpus,
                                                 clean_registry):
        with temporary_benchmark(name, FACTORY_SPEC, name=name, **SCENARIOS[name]):
            planner = self._planner(name, get_benchmark(name), gpus)
            serial = SerialExecutor().run(planner.plan(),
                                          benchmarks=planner.benchmarks,
                                          gpus=planner.gpus)
            parallel = ParallelExecutor(workers=2).run(
                planner.plan(), benchmarks=planner.benchmarks, gpus=planner.gpus)
            key = (name, "RTX_3090")
            assert cache_bytes(parallel[key]) == cache_bytes(serial[key])

    def test_parallel_executor_uses_plan_specs_without_registration(self, scenarios,
                                                                    gpus):
        # The spec can come from the plan alone: nothing registered, specs passed
        # explicitly to the planner (exactly what --benchmark-spec does).
        name = "syn_coupled_radix"
        planner = ShardPlanner(
            {name: scenarios[name]}, {"RTX_3090": gpus["RTX_3090"]},
            shard_size=SHARD_SIZE,
            specs={name: {"factory": FACTORY_SPEC,
                          "kwargs": {"name": name, **SCENARIOS[name]}}})
        serial = SerialExecutor().run(planner.plan(), benchmarks=planner.benchmarks,
                                      gpus=planner.gpus)
        parallel = ParallelExecutor(workers=2).run(
            planner.plan(), benchmarks=planner.benchmarks, gpus=planner.gpus)
        key = (name, "RTX_3090")
        assert cache_bytes(parallel[key]) == cache_bytes(serial[key])

    def test_parallel_executor_refuses_anonymous_benchmarks(self, scenarios, gpus):
        benchmark = scenarios["syn_sep_plain"]
        planner = self._planner("anonymous_scn", benchmark, gpus)
        with pytest.raises(ReproError, match="register"):
            ParallelExecutor(workers=2).run(planner.plan(),
                                            benchmarks=planner.benchmarks,
                                            gpus=planner.gpus)

    def test_parallel_executor_refuses_diverged_object_under_spec(self, gpus,
                                                                  clean_registry):
        # A registered spec that builds something else than the object in the plan
        # must be refused, not silently replaced in workers.
        name = "diverged_scn"
        other = create_benchmark(name=name, family="separable", dimensions=3, seed=99)
        with temporary_benchmark(name, FACTORY_SPEC, name=name, family="separable",
                                 dimensions=3, seed=1):
            planner = self._planner(name, other, gpus)
            with pytest.raises(ReproError, match="differs"):
                ParallelExecutor(workers=2).run(planner.plan(),
                                                benchmarks=planner.benchmarks,
                                                gpus=planner.gpus)

    def test_plan_spec_beats_a_diverged_registration(self, gpus, clean_registry):
        # A plan's unit spec is authoritative for executors resolving their own
        # benchmarks: a same-named registration that diverged after planning must
        # not silently change what the campaign evaluates (workers already build
        # from the unit spec, so the parent has to as well).
        name = "precedence_scn"
        kwargs = dict(family="separable", dimensions=3, seed=4, failure_rate=0.0)
        with temporary_benchmark(name, FACTORY_SPEC, name=name, **kwargs):
            planner = self._planner(name, get_benchmark(name), gpus)
            plan = planner.plan()
            reference = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                             gpus=planner.gpus)
        # Re-register the name with a 100x slower model (same space, so no
        # fingerprint divergence) and resolve benchmarks from the plan alone.
        with temporary_benchmark(name, FACTORY_SPEC, name=name,
                                 base_time_ms=100.0, **kwargs):
            resolved = SerialExecutor().run(plan)
        key = (name, "RTX_3090")
        assert cache_bytes(resolved[key]) == cache_bytes(reference[key])

    def test_checkpoint_resume_rebuilds_from_manifest_spec(self, gpus, tmp_path,
                                                           clean_registry):
        # Acceptance criterion: a runtime-registered scenario survives a
        # checkpoint/resume round-trip with *nothing registered* on resume -- the
        # manifest's spec fields alone rebuild the benchmark.
        name = "resume_scn"
        spec_kwargs = dict(family="coupled", dimensions=4, seed=21,
                           constraint_density=0.5, failure_rate=0.1)
        register_benchmark(name, FACTORY_SPEC, name=name, **spec_kwargs)
        try:
            planner = self._planner(name, get_benchmark(name), gpus)
            plan = planner.plan()
            store = CheckpointStore(tmp_path / "ckpt")
            ParallelExecutor(workers=2).run(plan, benchmarks=planner.benchmarks,
                                            gpus=planner.gpus, checkpoint=store)
            reference = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                             gpus=planner.gpus)
            dropped = [s for s in plan.shards if s.shard_id % 2 == 0]
            assert dropped
            for shard in dropped:
                os.unlink(store.fragment_path(shard))
        finally:
            unregister_benchmark(name)

        status = store.status()
        assert any(row["benchmark"] == name for row in status["units"])
        resumed = resume_campaign(store, executor=ParallelExecutor(workers=2))
        key = (name, "RTX_3090")
        assert cache_bytes(resumed[key]) == cache_bytes(reference[key])


# --------------------------------------------------------- dict vs index evaluation


class TestDictVsIndexPaths:
    """The two evaluation currencies agree on every synthetic scenario family."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_model_problem_paths_agree(self, name, scenarios, gpu_3090):
        benchmark = scenarios[name]
        space = benchmark.space
        rng = np.random.default_rng(17)
        indices = rng.integers(0, space.cardinality, size=40)
        dict_problem = benchmark.problem(gpu_3090)
        index_problem = benchmark.problem(gpu_3090)
        for index in indices.tolist():
            a = dict_problem.evaluate(space.config_at(index))
            b = index_problem.evaluate_index(index)
            # Same values, same validity, same error strings (constraint
            # violations, synthetic resource limits), same evaluation order.
            assert a.to_dict() == b.to_dict(), (name, index)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_problem_paths_agree_including_misses(self, name, scenarios,
                                                         gpu_3090, dict_replay):
        benchmark = scenarios[name]
        cache = benchmark.build_cache(gpu_3090)
        space = cache.space
        stored = space.indices_of_configs([dict(o.config) for o in cache])[:20]
        rng = np.random.default_rng(23)
        probes = np.concatenate([stored,
                                 rng.integers(0, space.cardinality, size=20)])
        for strict in (True, False):
            dict_problem = dict_replay(cache, strict=strict)
            index_problem = cache.to_problem(strict=strict)
            for index in probes.tolist():
                a = dict_problem.evaluate(space.config_at(index))
                b = index_problem.evaluate_index(index)
                assert a.to_dict() == b.to_dict(), (name, strict, index)

    @pytest.mark.parametrize("name", ["syn_sep_hard", "syn_coupled"])
    def test_tuner_trajectories_replay_identically_on_both_paths(self, name,
                                                                 scenarios,
                                                                 gpu_3090,
                                                                 dict_replay):
        # The goldens discipline of test_index_native, applied to generated
        # scenarios: a tuner run on a replay problem is observation-identical to
        # the same run against a problem whose only objective is a lookup over
        # the dictionary store (no index table, no peeks) -- same indices,
        # values, error strings, evaluation order.
        from repro.tuners import GreedyILS, LocalSearch, RandomSearch

        benchmark = scenarios[name]
        replay = benchmark.build_cache(gpu_3090)
        space = replay.space
        for factory in (RandomSearch, LocalSearch, GreedyILS):
            index_result = run_tuning(factory(), replay.to_problem(strict=False),
                                      max_evaluations=40, seed=5)
            dict_cache = EvaluationCache.from_dict(replay.to_dict(), space=space)
            dict_problem = dict_replay(dict_cache, strict=False)
            assert not dict_problem.peekable
            dict_result = run_tuning(factory(), dict_problem,
                                     max_evaluations=40, seed=5)
            got = [[space.index_of(o.config), o.value, o.valid, o.error,
                    o.evaluation_index] for o in index_result.observations]
            expected = [[space.index_of(o.config), o.value, o.valid, o.error,
                         o.evaluation_index] for o in dict_result.observations]
            assert got == expected, (name, factory.__name__)


# -------------------------------------------------------------- registry in tools


class TestRunMatrixRegistry:
    def test_problem_specs_resolve_through_the_registry(self, gpu_3090,
                                                        clean_registry):
        from repro.tuners.random_search import RandomSearch

        name = "matrix_scn"
        with temporary_benchmark(name, FACTORY_SPEC, name=name, dimensions=3,
                                 seed=6, failure_rate=0.0):
            tuners = {"random": lambda seed=None: RandomSearch(seed=seed)}
            by_spec = run_matrix(tuners, {"scn": f"{name}@rtx-3090"},
                                 max_evaluations=25, seed=2)
            explicit = run_matrix(
                tuners, {"scn": get_benchmark(name).problem(gpu_3090)},
                max_evaluations=25, seed=2)
        key = ("random", "scn")
        assert [o.to_dict() for o in by_spec[key]] == \
            [o.to_dict() for o in explicit[key]]

    def test_malformed_problem_specs_fail_loudly(self):
        from repro.tuners.random_search import RandomSearch

        with pytest.raises(ReproError, match="benchmark@gpu"):
            run_matrix({"random": lambda seed=None: RandomSearch(seed=seed)},
                       {"bad": "gemm"}, max_evaluations=5)


class TestExecCLISpecs:
    def run_cli(self, *argv) -> tuple[int, str]:
        out = io.StringIO()
        code = exec_main(list(argv), out=out)
        return code, out.getvalue()

    def _spec_argument(self, name: str) -> str:
        kwargs = {"name": name, "family": "separable", "dimensions": 3, "seed": 8,
                  "failure_rate": 0.0}
        return name + "=" + json.dumps({"factory": FACTORY_SPEC, "kwargs": kwargs})

    def test_plan_lists_spec_benchmarks(self):
        code, text = self.run_cli(
            "plan", "--benchmark-spec", self._spec_argument("cli_scn"),
            "--benchmarks", "cli_scn", "--gpus", "RTX_3090")
        assert code == 0, text
        assert "cli_scn" in text and "exhaustive" in text

    def test_bare_factory_spec_form(self):
        # Usable when the factory's default name matches the spec name...
        code, text = self.run_cli(
            "plan", "--benchmark-spec", f"synthetic={FACTORY_SPEC}",
            "--benchmarks", "synthetic", "--gpus", "RTX_3090")
        assert code == 0, text
        assert "synthetic" in text
        # ...and refused when it would mislabel the campaign's caches.
        code, text = self.run_cli(
            "plan", "--benchmark-spec", f"bare_scn={FACTORY_SPEC}",
            "--benchmarks", "bare_scn", "--gpus", "RTX_3090")
        assert code == 2
        assert "one identity" in text

    def test_malformed_spec_arguments_error_cleanly(self):
        for bad in ("no_equals", "name={not json}", 'name={"kwargs": {}}'):
            code, text = self.run_cli("plan", "--benchmark-spec", bad)
            assert code == 2
            assert "error:" in text

    def test_selection_tokens_normalize_like_spec_names(self):
        # --benchmark-spec normalizes its NAME; --benchmarks must agree with it
        # (and with get_benchmark's case/'-'/space tolerance).
        code, text = self.run_cli(
            "plan", "--benchmark-spec", self._spec_argument("norm_scn"),
            "--benchmarks", "Norm-Scn,GEMM", "--gpus", "RTX_3090")
        assert code == 0, text
        assert "norm_scn" in text and "gemm" in text

    def test_empty_selection_plans_nothing(self):
        # An explicitly empty --benchmarks list is an empty plan, not "all".
        code, text = self.run_cli("plan", "--benchmarks", "", "--gpus", "RTX_3090")
        assert code == 0, text
        assert "total: 0 configurations" in text

    def test_spec_cannot_shadow_builtin_kernels(self):
        # The CLI enforces the same guard as register_benchmark: synthetic data
        # must never land in a cache file carrying a paper kernel's name.
        code, text = self.run_cli(
            "plan", "--benchmark-spec", f"gemm={FACTORY_SPEC}",
            "--benchmarks", "gemm")
        assert code == 2
        assert "shadow" in text

    def test_run_status_resume_round_trip_with_spec(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        outdir = str(tmp_path / "caches")
        spec = self._spec_argument("cli_scn")
        code, text = self.run_cli(
            "run", "--benchmark-spec", spec, "--benchmarks", "cli_scn",
            "--gpus", "RTX_3090", "--shard-size", "20", "--workers", "1",
            "--checkpoint-dir", ckpt, "--output-dir", outdir, "--quiet")
        assert code == 0, text
        assert "cli_scn/RTX_3090:" in text
        first = (tmp_path / "caches" / "cli_scn_RTX_3090.json").read_bytes()

        # The scenario appears in status output, resolved from the manifest.
        code, text = self.run_cli("status", "--checkpoint-dir", ckpt)
        assert code == 0
        assert "cli_scn" in text

        # Resume needs no --benchmark-spec: the manifest's spec fields suffice.
        os.unlink(tmp_path / "ckpt" / "shard_00001.json")
        code, text = self.run_cli("resume", "--checkpoint-dir", ckpt,
                                  "--output-dir", outdir, "--quiet")
        assert code == 0, text
        assert (tmp_path / "caches" / "cli_scn_RTX_3090.json").read_bytes() == first


# ------------------------------------------------------------------- codec fuzzing


def _random_space(rng: random.Random) -> SearchSpace:
    """A random small space: mixed value types, varying radices and constraints."""
    dims = rng.randint(1, 5)
    parameters = []
    numeric_names = []
    for j in range(dims):
        radix = rng.randint(2, 7)
        kind = rng.random()
        if kind < 0.55:  # integer ladder
            start = rng.randrange(1, 16)
            step = rng.randrange(1, 7)
            values = tuple(start + step * i for i in range(radix))
            numeric_names.append(f"q{j}")
        elif kind < 0.8:  # float ladder
            start = rng.randrange(1, 8) / 2.0
            step = rng.randrange(1, 5) / 4.0
            values = tuple(start + step * i for i in range(radix))
            numeric_names.append(f"q{j}")
        else:  # categorical strings
            values = tuple(f"v{j}_{i}" for i in range(radix))
        parameters.append(Parameter(f"q{j}", values))
    expressions = []
    if len(numeric_names) >= 2 and rng.random() < 0.6:
        for _ in range(rng.randint(1, 2)):
            a, b = rng.sample(numeric_names, 2)
            expressions.append(f"{a} + {b} >= 0")  # always true; exercises the mask
    return SearchSpace(parameters, expressions)


class TestCodecFuzz:
    """Seeded property-style tests over ~200 generated spaces (random stdlib only)."""

    def test_mixed_radix_codec_round_trips(self):
        rng = random.Random(20260728)
        for round_number in range(200):
            space = _random_space(rng)
            np_rng = np.random.default_rng(rng.randrange(2**32))
            indices = np_rng.integers(0, space.cardinality,
                                      size=rng.randint(1, 64))
            digits = space.indices_to_digits(indices)
            assert digits.shape == (indices.size, space.dimensions)
            assert np.array_equal(space.digits_to_indices(digits), indices), \
                round_number
            configs = space.configs_at(indices)
            assert np.array_equal(space.indices_of_configs(configs), indices), \
                round_number
            # Scalar and batch decoders agree.
            probe = int(indices[0])
            assert configs[0] == space.config_at(probe), round_number

    def test_feature_codec_round_trips(self):
        rng = random.Random(977)
        for round_number in range(200):
            space = _random_space(rng)
            np_rng = np.random.default_rng(rng.randrange(2**32))
            indices = np_rng.integers(0, space.cardinality,
                                      size=rng.randint(1, 32))
            encoded = space.encode_indices(indices)
            assert encoded.shape == (indices.size, space.dimensions)
            # Element-wise identical to encoding the materialised configurations.
            assert np.array_equal(encoded,
                                  space.encode_batch(space.configs_at(indices))), \
                round_number
            for row, index in zip(encoded, indices.tolist()):
                assert space.decode_index(row) == index, round_number
                assert np.array_equal(
                    space.decode_digits(row),
                    space.indices_to_digits([index])[0]), round_number

    def test_hashed_index_table_matches_dense_and_dict_store(self, monkeypatch):
        rng = random.Random(4242)
        for round_number in range(60):
            space = _random_space(rng)
            np_rng = np.random.default_rng(rng.randrange(2**32))
            n_entries = rng.randint(1, min(48, space.cardinality))
            stored = np_rng.choice(space.cardinality, size=n_entries, replace=False)
            rows = [(int(i), float(k + 1) if k % 4 else math.inf, k % 4 == 0)
                    for k, i in enumerate(stored.tolist())]

            def build_cache() -> EvaluationCache:
                cache = EvaluationCache("fuzz", "GPU", space)
                for index, value, failed in rows:
                    cache.add(space.config_at(index), value, valid=not failed,
                              error="boom" if failed else "")
                return cache

            dense_table = build_cache().index_table()
            with monkeypatch.context() as patch:
                patch.setattr(cache_module, "_DENSE_LOOKUP_MAX", -1)
                hashed_cache = build_cache()
                hashed_table = hashed_cache.index_table()
            assert dense_table._dense and not hashed_table._dense

            probes = np.concatenate([
                stored,
                np_rng.integers(0, space.cardinality, size=16),
                np.asarray([-1, -7, space.cardinality, space.cardinality + 3]),
                stored[:3],  # duplicates inside one batch
            ])
            dense = dense_table.lookup(probes)
            hashed = hashed_table.lookup(probes)
            for a, b in zip(dense, hashed):
                assert np.array_equal(a, b), round_number
            # Batch and scalar paths agree probe for probe, and both agree with
            # the dict store.
            for k, index in enumerate(probes.tolist()):
                assert hashed_table.lookup_one(index) == \
                    (dense[0][k], dense[1][k], dense[2][k]), round_number
                obs = hashed_cache.get(space.config_at(index)) \
                    if 0 <= index < space.cardinality else None
                assert dense[2][k] == (obs is not None), round_number

    def test_hashed_table_mutations_invalidate_the_sorted_index(self, monkeypatch):
        space = _random_space(random.Random(7))
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "_DENSE_LOOKUP_MAX", -1)
            cache = EvaluationCache("fuzz", "GPU", space)
            cache.add(space.config_at(0), 1.0)
            table = cache.index_table()
        assert not table._dense
        values, failure, found = table.lookup(np.asarray([0, 1]))
        assert found.tolist() == [True, False]
        # A fresh key after the sorted index was built must invalidate it...
        cache.add(space.config_at(1), 2.0)
        values, failure, found = cache.index_table().lookup(np.asarray([0, 1]))
        assert found.tolist() == [True, True] and values.tolist() == [1.0, 2.0]
        # ...while a pure overwrite updates in place (rows are stable).
        cache.add(space.config_at(1), 3.0)
        values, _, _ = cache.index_table().lookup(np.asarray([1]))
        assert values.tolist() == [3.0]
        assert cache.index_table() is table

    def test_hashed_lookup_on_a_real_sampled_space(self, benchmarks, gpu_3090):
        # The organic hashed case: hotspot's cardinality exceeds the dense ceiling.
        cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=64, seed=3)
        table = cache.index_table()
        assert not table._dense
        space = cache.space
        stored = space.indices_of_configs([dict(o.config) for o in cache])
        probes = np.concatenate([stored, stored + 1, np.asarray([-5])])
        values, failure, found = table.lookup(probes)
        assert found[:stored.size].all()
        for k, obs in enumerate(cache):
            assert failure[k] == obs.is_failure
            if not obs.is_failure:
                assert values[k] == obs.value
