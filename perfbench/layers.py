"""Per-layer instrumentation: which public functions the traced run wraps.

Every wrapper is installed at the attribute its caller looks up -- the class that
defines a method, or the module namespace a function was imported into -- so the
program itself is unchanged and the untraced run executes none of this code.
The layers are the ``repro`` subpackages; ``repro.lint`` does no runtime work and
is not measured.

``PER_LAYER`` lists every per-layer metric.  Each workload reports all of them: a
layer that does no work on a workload reads 0, which is how the benchmark shows
that, say, ``ml.*`` does not move anything on ``campaign``.
"""

from __future__ import annotations

from typing import Any

from tracing import Patcher, SpanRecorder, defining_class

__all__ = ["PER_LAYER", "install", "layer_metrics"]

#: name -> (unit, better).  Times are the busy time of the layer's spans.
PER_LAYER: dict[str, tuple[str, str]] = {
    "space.unit_indices_s": ("s", "lower"),
    "space.configs_at_s": ("s", "lower"),
    "space.configs": ("count", "lower"),
    "space.neighbors_s": ("s", "lower"),
    "space.sample_s": ("s", "lower"),
    "space.encode_s": ("s", "lower"),
    "kernels.evaluate_batch_s": ("s", "lower"),
    "kernels.configs": ("count", "higher"),
    "kernels.us_per_config": ("us", "lower"),
    "kernels.invalid_frac": ("fraction", "lower"),
    "kernels.portability_model_calls": ("count", "lower"),
    "gpus.noise_hash_calls": ("count", "lower"),
    "gpus.noise_hash_s": ("s", "lower"),
    "cache.add_rows": ("count", "lower"),
    "cache.merge_s": ("s", "lower"),
    "cache.lookup_s": ("s", "lower"),
    "io.fragment_write_s": ("s", "lower"),
    "io.fragment_read_s": ("s", "lower"),
    "io.fragment_bytes": ("bytes", "lower"),
    "exec.shards": ("count", "higher"),
    "exec.retries": ("count", "lower"),
    "exec.quarantined": ("count", "lower"),
    "exec.parallel_efficiency": ("fraction", "higher"),
    "ml.fit_calls": ("count", "lower"),
    "ml.fit_rows_mean": ("rows", "lower"),
    "ml.fit_s": ("s", "lower"),
    "ml.tree_nodes": ("count", "lower"),
    "ml.predict_calls": ("count", "lower"),
    "ml.predict_rows": ("rows", "lower"),
    "ml.predict_s": ("s", "lower"),
    "ml.pfi_s": ("s", "lower"),
    "ml.encode_s": ("s", "lower"),
    "graph.ffg_build_s": ("s", "lower"),
    "graph.pagerank_s": ("s", "lower"),
    "graph.nodes": ("count", "lower"),
    "graph.edges": ("count", "lower"),
    "analysis.portability_s": ("s", "lower"),
    "tuners.runs": ("count", "higher"),
    "tuners.evals": ("count", "higher"),
    "tuners.tune_s": ("s", "lower"),
    "tuners.self_s": ("s", "lower"),
    "problem.evaluate_s": ("s", "lower"),
    "problem.unique_ratio": ("fraction", "higher"),
    "problem.invalid_frac": ("fraction", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: metric -> span name whose busy time it reports.
_BUSY = {
    "space.unit_indices_s": "space.unit_indices",
    "space.configs_at_s": "space.configs_at",
    "space.neighbors_s": "space.neighbors",
    "space.sample_s": "space.sample",
    "space.encode_s": "space.encode",
    "kernels.evaluate_batch_s": "kernels.evaluate_batch",
    "gpus.noise_hash_s": "gpus.noise_hash",
    "cache.merge_s": "cache.merge",
    "cache.lookup_s": "cache.lookup",
    "io.fragment_write_s": "io.fragment_write",
    "io.fragment_read_s": "io.fragment_read",
    "ml.fit_s": "ml.fit",
    "ml.predict_s": "ml.predict",
    "ml.pfi_s": "ml.pfi",
    "ml.encode_s": "ml.encode",
    "graph.ffg_build_s": "graph.ffg_build",
    "graph.pagerank_s": "graph.pagerank",
    "analysis.portability_s": "analysis.portability",
    "tuners.tune_s": "tuners.tune",
    "problem.evaluate_s": "problem.evaluate",
}


def install(rec: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every measured layer boundary; ``patcher.restore()`` undoes it."""
    import repro.analysis.importance as importance
    import repro.analysis.portability as portability
    import repro.exec.executors as executors
    import repro.graph.centrality as centrality
    import repro.gpus.noise as noise
    from repro.core.cache import CacheIndexTable, EvaluationCache
    from repro.core.problem import TuningProblem
    from repro.core.searchspace import SearchSpace
    from repro.exec.checkpoint import CheckpointStore
    from repro.gpus.perfmodel import AnalyticalKernelModel
    from repro.kernels.base import KernelBenchmark
    from repro.ml.gbdt import GradientBoostingRegressor
    from repro.tuners.base import Tuner

    counts = rec.counts

    def span(owner: Any, attr: str, name: str, after=None) -> None:
        if isinstance(owner, type):
            owner = defining_class(owner, attr)
        patcher.patch(owner, attr, lambda fn: rec.wrap(name, fn, after))

    # core: search-space engine
    span(executors, "unit_indices", "space.unit_indices")

    def decoded(result, args, kwargs):
        counts["space.configs"] += len(result)
    span(SearchSpace, "configs_at", "space.configs_at", decoded)
    span(SearchSpace, "neighbor_indices", "space.neighbors")
    for attr in ("sample_indices", "sample_one_index", "sample_one"):
        span(SearchSpace, attr, "space.sample")
    span(SearchSpace, "encode_indices", "space.encode")

    # kernels and gpus: the perf model and its noise hash
    def evaluated(rows, args, kwargs):
        counts["kernels.configs"] += len(rows)
        counts["kernels.invalid"] += sum(1 for row in rows if not row[1])
    span(KernelBenchmark, "evaluate_batch", "kernels.evaluate_batch", evaluated)
    span(noise, "stable_hash", "gpus.noise_hash")
    portability_id = rec.name_id("analysis.portability")

    def count_model_call(fn):
        def time_ms(*args, **kwargs):
            if rec.active(portability_id):
                counts["kernels.portability_model_calls"] += 1
            return fn(*args, **kwargs)
        return time_ms
    patcher.patch(defining_class(AnalyticalKernelModel, "time_ms"), "time_ms",
                  count_model_call)

    # core: campaign caches
    def count_add(fn):
        def add(*args, **kwargs):
            counts["cache.add_rows"] += 1
            return fn(*args, **kwargs)
        return add
    patcher.patch(defining_class(EvaluationCache, "add"), "add", count_add)
    span(executors.Executor, "_merge", "cache.merge")
    span(CacheIndexTable, "lookup", "cache.lookup")
    span(CacheIndexTable, "lookup_one", "cache.lookup")

    # io: checkpoint fragments
    def written(path, args, kwargs):
        counts["io.fragment_bytes"] += path.stat().st_size
    span(CheckpointStore, "save_shard", "io.fragment_write", written)
    span(CheckpointStore, "load_shard", "io.fragment_read")
    span(CheckpointStore, "load_shard_columns", "io.fragment_read")

    # exec: one span per shard, whose operation is that shard
    def per_shard(fn):
        shard_span = rec.wrap("exec.shard", fn)

        def _run_shards(self, tasks, on_complete):
            outer = rec.current_op
            for task in tasks:
                rec.set_op(f"shard:{task.shard.shard_id}")
                counts["exec.shards"] += 1
                shard_span(self, [task], on_complete)
            rec.current_op = outer
        return _run_shards
    patcher.patch(executors.SerialExecutor, "_run_shards", per_shard)

    # ml
    def fitted(model, args, kwargs):
        counts["ml.fit_calls"] += 1
        counts["ml.fit_rows"] += len(args[1])
        counts["ml.tree_nodes"] += sum(tree.node_count for tree in model._trees)
    span(GradientBoostingRegressor, "fit", "ml.fit", fitted)

    def predicted(result, args, kwargs):
        counts["ml.predict_calls"] += 1
        counts["ml.predict_rows"] += len(result)
    span(GradientBoostingRegressor, "predict", "ml.predict", predicted)
    span(importance, "permutation_importance", "ml.pfi")
    span(importance, "encode_cache", "ml.encode")

    # graph
    def graph_built(graph, args, kwargs):
        counts["graph.nodes"] += graph.num_nodes
        counts["graph.edges"] += graph.num_edges
    span(centrality, "build_ffg", "graph.ffg_build", graph_built)
    span(centrality, "pagerank", "graph.pagerank")

    # analysis
    span(portability, "portability_matrix", "analysis.portability")

    # tuners and problem
    def count_tune(fn):
        def tune(self, problem, budget, seed=None):
            before = problem.evaluation_count
            result = fn(self, problem, budget, seed)
            counts["tuners.runs"] += 1
            counts["tuners.evals"] += len(result.observations)
            counts["problem.distinct"] += problem.evaluation_count - before
            counts["problem.invalid"] += sum(1 for o in result.observations if not o.valid)
            return result
        return rec.wrap("tuners.tune", tune)
    patcher.patch(Tuner, "tune", count_tune)
    for attr in ("evaluate", "evaluate_index", "evaluate_indices", "evaluate_many",
                 "peek_indices", "peek_index"):
        span(TuningProblem, attr, "problem.evaluate")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: SpanRecorder, overhead_s: float, untraced_s: float,
                  parallel_efficiency: float = 0.0,
                  retries: int = 0, quarantined: int = 0) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans and counters of one traced run."""
    totals = rec.totals()
    counts = rec.counts
    metrics = {metric: totals.get(span_name, {}).get("busy_s", 0.0)
               for metric, span_name in _BUSY.items()}
    metrics.update({
        "space.configs": counts["space.configs"],
        "kernels.configs": counts["kernels.configs"],
        "kernels.us_per_config": 1e6 * _ratio(metrics["kernels.evaluate_batch_s"],
                                              counts["kernels.configs"]),
        "kernels.invalid_frac": _ratio(counts["kernels.invalid"], counts["kernels.configs"]),
        "kernels.portability_model_calls": counts["kernels.portability_model_calls"],
        "gpus.noise_hash_calls": totals.get("gpus.noise_hash", {}).get("calls", 0),
        "cache.add_rows": counts["cache.add_rows"],
        "io.fragment_bytes": counts["io.fragment_bytes"],
        "exec.shards": counts["exec.shards"],
        "exec.retries": retries,
        "exec.quarantined": quarantined,
        "exec.parallel_efficiency": parallel_efficiency,
        "ml.fit_calls": counts["ml.fit_calls"],
        "ml.fit_rows_mean": _ratio(counts["ml.fit_rows"], counts["ml.fit_calls"]),
        "ml.tree_nodes": counts["ml.tree_nodes"],
        "ml.predict_calls": counts["ml.predict_calls"],
        "ml.predict_rows": counts["ml.predict_rows"],
        "graph.nodes": counts["graph.nodes"],
        "graph.edges": counts["graph.edges"],
        "tuners.runs": counts["tuners.runs"],
        "tuners.evals": counts["tuners.evals"],
        "tuners.self_s": totals.get("tuners.tune", {}).get("self_s", 0.0),
        "problem.unique_ratio": _ratio(counts["problem.distinct"], counts["tuners.evals"]),
        "problem.invalid_frac": _ratio(counts["problem.invalid"], counts["tuners.evals"]),
        "trace.spans": len(rec),
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": _ratio(overhead_s, untraced_s),
    })
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of sync: {set(metrics) ^ set(PER_LAYER)}")
    return {name: float(value) for name, value in metrics.items()}
