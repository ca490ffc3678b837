"""Parallel campaign execution.

The paper's evaluation is built entirely from per-(benchmark, GPU) campaign caches;
this subpackage is the execution layer that produces them at scale.  It splits a
campaign into deterministic shards (:mod:`repro.exec.planner`), evaluates them
serially or across a process pool (:mod:`repro.exec.executors`) with results
*byte-identical* to the serial reference, persists completed shards for resumable
runs (:mod:`repro.exec.checkpoint`), and exposes the whole thing as the suite's first
operational CLI (``python -m repro.exec``; see :mod:`repro.exec.cli`).

Quick start::

    from repro.exec import ParallelExecutor, run_campaign

    caches = run_campaign(executor=ParallelExecutor(workers=4),
                          checkpoint="ckpt/")

The division of labour mirrors worker-queue runner services: a *planner* that owns
the deterministic work breakdown, stateless *workers* that evaluate index slices by
name or by picklable spec, a *checkpoint store* for completed work units, and
*executors* that merge in plan order.  Shard results travel as columns throughout
(value and failure-code arrays plus an interned error table,
:class:`~repro.io.columnar.ShardColumns`): the merge concatenates them and attaches
them to column-backed caches, whether the shards ran now or came off disk.  Custom benchmarks are first-class: anything
registered through :func:`repro.core.registry.register_benchmark` (e.g. the
generated scenarios of :mod:`repro.kernels.synthetic`) plans, runs in parallel and
resumes exactly like the built-in kernels -- its ``"module:factory"`` spec rides the
plan manifest, so ``resume``/``status`` need no registration at all.  Multi-host
sharding only needs a new executor -- the plan, worker and checkpoint contracts
already hold.
"""

from repro.exec.checkpoint import CheckpointStore
from repro.exec.config import (
    MEMOIZE_THRESHOLD_ENV,
    apply_memoize_threshold,
    resolve_memoize_threshold,
)
from repro.exec.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resume_campaign,
    run_campaign,
)
from repro.exec.faults import Fault, FaultPlan, corrupt_fragment
from repro.exec.progress import ShardProgressReporter
from repro.exec.retry import RetryPolicy
from repro.exec.planner import (
    DEFAULT_SHARD_SIZE,
    PAPER_SAMPLE_SIZE,
    PAPER_SAMPLED_BENCHMARKS,
    CampaignPlan,
    CampaignUnit,
    Shard,
    ShardPlanner,
)

__all__ = [
    "CampaignPlan", "CampaignUnit", "CheckpointStore", "Executor",
    "Fault", "FaultPlan", "ParallelExecutor", "RetryPolicy", "SerialExecutor",
    "Shard", "ShardPlanner", "corrupt_fragment",
    "run_campaign", "resume_campaign", "ShardProgressReporter",
    "resolve_memoize_threshold", "apply_memoize_threshold",
    "DEFAULT_SHARD_SIZE", "MEMOIZE_THRESHOLD_ENV",
    "PAPER_SAMPLE_SIZE", "PAPER_SAMPLED_BENCHMARKS",
]
