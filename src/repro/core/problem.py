"""The shared tuning-problem interface.

A :class:`TuningProblem` is what a tuner sees: a search space plus an objective
function over configurations.  It deliberately knows nothing about how the objective is
produced -- in this reproduction the objective comes from the analytical GPU
performance models in :mod:`repro.kernels`, but the same interface would accept real
hardware measurements (the paper's setting) or a cache replay.

This is the reproduction of the paper's "standardized problem interface ... general
configuration space and kernel handler classes providing for easy integration" (Sec. I):
any optimizer that can consume a :class:`TuningProblem` can tune every benchmark in the
suite, and any benchmark that can produce one can be tuned by every optimizer.

One evaluation currency
-----------------------
Every evaluation is keyed by the candidate's mixed-radix space index.
:meth:`TuningProblem.evaluate_index` (and its batch form
:meth:`TuningProblem.evaluate_indices`) is the evaluation path: static validity
comes from the vectorized constraint mask, the objective is answered by the
problem's one index objective, and the resulting
:class:`~repro.core.result.Observation` carries a lazily-materialised
:class:`~repro.core.result.LazyConfig`.  The configuration entry points
(:meth:`TuningProblem.evaluate`, :meth:`TuningProblem.evaluate_many`) encode with
:meth:`~repro.core.searchspace.SearchSpace.index_of` and delegate, so

* ``evaluate(config)`` and ``evaluate_index(space.index_of(config))`` share one
  ``int``-keyed memo: a configuration is measured once, with one
  ``evaluation_count`` entry, whichever entry point reached it first;
* a configuration that ``index_of`` rejects (a missing or unknown parameter, a
  value outside its parameter's list) has no index, so it yields an invalid
  "configuration not a member of the search space" observation that is counted
  but never memoized.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import ReproError, ResourceLimitError
from repro.core.result import LazyConfig, Observation
from repro.core.searchspace import SearchSpace

__all__ = ["ObjectiveDirection", "TuningProblem"]


class ObjectiveDirection(enum.Enum):
    """Whether the tuner should minimize or maximize the objective.

    Every BAT benchmark minimizes kernel time, but the enum keeps the interface
    general (e.g. for throughput objectives like GFLOP/s).
    """

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True if objective value ``a`` is strictly better than ``b``."""
        if self is ObjectiveDirection.MINIMIZE:
            return a < b
        return a > b

    @property
    def worst_value(self) -> float:
        """The sentinel value assigned to failed evaluations."""
        return math.inf if self is ObjectiveDirection.MINIMIZE else -math.inf


class TuningProblem:
    """A tunable kernel instance on a specific (simulated) device.

    Parameters
    ----------
    name:
        Benchmark name (e.g. ``"gemm"``).
    space:
        The constrained search space.
    evaluate_fn:
        Callable mapping a configuration to an objective value (kernel time in
        milliseconds).  It may raise :class:`ResourceLimitError` (or any other
        :class:`~repro.core.errors.ReproError`) for configurations that cannot run
        on the device; the problem converts those into invalid observations rather
        than propagating, which is how real autotuners treat failed compilations.
        Any other exception is a bug in the objective and propagates.  Give
        exactly one of ``evaluate_fn`` and ``evaluate_index_fn``; the problem
        calls ``evaluate_fn(space.config_at(index))``.
    gpu:
        Device name used for bookkeeping.
    direction:
        Minimize (default, kernel time) or maximize.
    objective_unit:
        Unit string for reports (default ``"ms"``).
    memoize:
        If True (default), repeated evaluations of the same configuration return the
        cached observation without consuming another objective call.  This mirrors
        real tuner caches and makes exhaustive analyses cheap.
    evaluate_index_fn:
        Index-native objective ``space_index -> value``, the alternative to
        ``evaluate_fn`` that never materialises a configuration dictionary (cache
        replays supply one; see
        :meth:`repro.core.cache.EvaluationCache.to_problem`).  It raises and fails
        under the same rules as ``evaluate_fn``.
    peek_index_fn:
        Optional *side-effect-free* batch preview of the objective:
        ``index_array -> (values, failure, raises)`` where ``values[k]`` is exactly
        what the objective would return for index ``k``, ``failure[k]`` is
        True exactly when evaluating it would yield an invalid observation, and
        ``raises[k]`` is True when the objective would raise (so the error string
        cannot be derived from the value alone and the row must evaluate through
        the scalar path).  Peeking consumes no budget, no memo and produces no
        observations; only deterministic pure-lookup objectives (cache replays)
        may supply it.  It is what lets tuners run whole neighbourhoods through
        one array probe and then *evaluate* exactly the prefix the sequential
        loop would have.
    peek_one_fn:
        Optional scalar twin of ``peek_index_fn``: ``index -> (value, failure,
        raises)`` for a single index, element-wise identical to the batch peek.
        Generation-batched population tuners peek one candidate at a time (each
        candidate's construction depends on the previous one's value), so a
        dictionary-probe scalar peek sidesteps the per-candidate array overhead
        of the batch form.  When omitted, :meth:`peek_index` wraps the batch
        peek with a one-element array.
    """

    def __init__(self, name: str, space: SearchSpace,
                 evaluate_fn: Callable[[Mapping[str, Any]], float] | None = None,
                 gpu: str = "", direction: ObjectiveDirection = ObjectiveDirection.MINIMIZE,
                 objective_unit: str = "ms", memoize: bool = True,
                 evaluate_index_fn: Callable[[int], float] | None = None,
                 peek_index_fn: Callable[[Any], tuple[Any, Any]] | None = None,
                 peek_one_fn: Callable[[int], tuple[float, bool, bool]] | None = None):
        if (evaluate_fn is None) == (evaluate_index_fn is None):
            raise TypeError("TuningProblem takes exactly one of evaluate_fn and "
                            "evaluate_index_fn")
        if evaluate_index_fn is None:
            config_at = space.config_at

            def evaluate_index_fn(index: int) -> float:
                return evaluate_fn(config_at(index))

        self.name = name
        self.space = space
        self.gpu = gpu
        self.direction = direction
        self.objective_unit = objective_unit
        self.memoize = memoize
        self._objective = evaluate_index_fn
        self._peek_index_fn = peek_index_fn
        self._peek_one_fn = peek_one_fn
        self._memo: dict[int, Observation] = {}
        self._evaluation_count = 0

    # ---------------------------------------------------------------------- queries

    @property
    def evaluation_count(self) -> int:
        """Number of evaluations performed so far (memo hits excluded)."""
        return self._evaluation_count

    @property
    def cache_size(self) -> int:
        """Number of memoized observations (one per distinct space index)."""
        return len(self._memo)

    def is_valid(self, config: Mapping[str, Any]) -> bool:
        """Static validity (membership + constraints); does not call the objective."""
        return self.space.is_valid(config)

    # ------------------------------------------------------------------- evaluation

    def _index_or_none(self, config: Mapping[str, Any]) -> int | None:
        """Space index of ``config``, or None when it is not a member."""
        try:
            return self.space.index_of(config)
        except ReproError:
            return None

    def _non_member(self, config: Mapping[str, Any]) -> Observation:
        """Invalid observation of a configuration that has no space index.

        It counts as an evaluation but is not memoized: the memo is keyed by index.
        """
        count = self._evaluation_count
        self._evaluation_count = count + 1
        return Observation.fast(dict(config), self.direction.worst_value, False,
                                "configuration not a member of the search space",
                                count, self.gpu, self.name)

    def evaluate(self, config: Mapping[str, Any]) -> Observation:
        """Measure one configuration and return the observation.

        Invalid configurations (non-members, constraint violations, device resource
        limits, or an objective that raises a ``repro`` error or returns a
        non-finite value) yield an observation with ``valid=False`` and
        ``value=inf`` -- they still count as an evaluation, exactly as a failed
        compilation costs time on real hardware.  Members are encoded to their
        space index and evaluated by :meth:`evaluate_index`.
        """
        index = self._index_or_none(config)
        if index is None:
            return self._non_member(config)
        return self.evaluate_index(index)

    def evaluate_index(self, index: int, _valid_hint: bool | None = None) -> Observation:
        """Measure the configuration at space ``index`` (see the module docstring).

        The observation's configuration is a :class:`~repro.core.result.LazyConfig`
        that materialises from the space's value columns only if something reads it;
        the hot loop itself touches no dictionary.  Tuners whose candidates already
        passed the vectorized constraint mask (neighbourhood enumeration, valid
        sampling, repair) pass ``_valid_hint=True`` and skip the static check;
        :meth:`evaluate_indices` passes the mask it computed for the whole block.
        """
        index = int(index)
        if self.memoize:
            cached = self._memo.get(index)
            if cached is not None:
                return cached

        count = self._evaluation_count
        value: float
        valid = True
        error = ""
        config: Mapping[str, Any] | None = None
        statically_valid = (self.space.index_is_feasible(index) if _valid_hint is None
                            else _valid_hint)
        if not statically_valid:
            valid = False
            value = self.direction.worst_value
            config = self.space.config_at(index)
            error = "constraint violation: " + ", ".join(
                self.space.constraints.violated(config)) if len(self.space.constraints) else \
                "configuration not a member of the search space"
        else:
            try:
                value = float(self._objective(index))
                if not math.isfinite(value) or value <= 0:
                    valid = False
                    error = f"objective returned non-positive/non-finite value {value!r}"
                    value = self.direction.worst_value
            except ResourceLimitError as exc:
                valid = False
                value = self.direction.worst_value
                error = f"resource limit exceeded: {exc}"
            except ReproError as exc:  # objective failures behave like failed launches
                valid = False
                value = self.direction.worst_value
                error = f"evaluation failed: {exc}"

        self._evaluation_count = count + 1
        obs = Observation.fast(LazyConfig(self.space, index) if config is None
                               else dict(config),
                               value, valid, error, count, self.gpu, self.name)
        if self.memoize:
            self._memo[index] = obs
        return obs

    def peek_indices(self, indices: np.ndarray | Sequence[int]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Side-effect-free batch preview ``(values, failure, raises)`` of the
        index objective, or None when the objective cannot be peeked (see
        ``peek_index_fn``).  Peeking never counts as an evaluation."""
        if self._peek_index_fn is None:
            return None
        return self._peek_index_fn(np.asarray(indices, dtype=np.int64))

    @property
    def peekable(self) -> bool:
        """True when the objective supports side-effect-free previews."""
        return self._peek_index_fn is not None or self._peek_one_fn is not None

    def peek_index(self, index: int) -> tuple[float, bool, bool] | None:
        """Scalar form of :meth:`peek_indices`: ``(value, failure, raises)`` of
        one index, or None when the objective cannot be peeked.

        Element-wise identical to the batch peek; the dedicated scalar callable
        (when supplied) answers through a plain dictionary/array probe, which is
        what makes peeking every candidate of a sequentially-constructed
        population generation cheap.
        """
        if self._peek_one_fn is not None:
            return self._peek_one_fn(index)
        if self._peek_index_fn is None:
            return None
        values, failure, raises = self._peek_index_fn(
            np.asarray([index], dtype=np.int64))
        return float(values[0]), bool(failure[0]), bool(raises[0])

    def evaluate_indices(self, indices: np.ndarray | Sequence[int],
                         valid_hint: bool | None = None,
                         _peek: tuple | None = None) -> list[Observation]:
        """Batch form of :meth:`evaluate_index`, observation-identical to the loop.

        With ``valid_hint=None`` one vectorized static-validity mask covers the
        whole block; ``valid_hint=True`` asserts the caller already mask-checked
        every index.  For peekable objectives and pre-validated indices the good
        rows come from one peek and skip the per-index objective dispatch
        entirely -- the memo, ``evaluation_count`` and raising rows still flow
        through the scalar path so the semantics cannot drift.  ``_peek`` is a
        peek the caller already holds for ``indices``: ``(values, failure,
        raises)`` as arrays or as Python lists.
        """
        index_list = (indices.tolist() if isinstance(indices, np.ndarray)
                      else [int(i) for i in indices])
        if not index_list:
            return []
        if valid_hint is True and (_peek is not None
                                   or self._peek_index_fn is not None):
            if _peek is None:
                _peek = self._peek_index_fn(np.asarray(index_list, dtype=np.int64))
            values, failures, raising = (
                col.tolist() if isinstance(col, np.ndarray) else col for col in _peek)
            memo = self._memo
            memo_get = memo.get
            memoize = self.memoize
            space, gpu, name = self.space, self.gpu, self.name
            worst = self.direction.worst_value
            fast = Observation.fast
            lazy = LazyConfig
            count = self._evaluation_count
            out: list[Observation] = []
            append = out.append
            for i, value, failed, raises in zip(index_list, values, failures, raising):
                if memoize:
                    cached = memo_get(i)
                    if cached is not None:
                        append(cached)
                        continue
                if not failed:
                    obs = fast(lazy(space, i), value, True, "", count, gpu, name)
                    count += 1
                    if memoize:
                        memo[i] = obs
                elif raises:
                    # Rows whose objective raises take the scalar path so error
                    # strings (cache misses, resource limits) stay byte-identical.
                    self._evaluation_count = count
                    obs = self.evaluate_index(i, _valid_hint=True)
                    count = self._evaluation_count
                else:
                    # Non-raising failures carry the error string the scalar path
                    # derives from the returned value alone.
                    obs = fast(
                        lazy(space, i), worst, False,
                        f"objective returned non-positive/non-finite value "
                        f"{value!r}", count, gpu, name)
                    count += 1
                    if memoize:
                        memo[i] = obs
                append(obs)
            self._evaluation_count = count
            return out
        if valid_hint is None and len(index_list) >= 2:
            hints: Sequence[bool | None] = self.space.satisfied_mask(
                np.asarray(index_list, dtype=np.int64)).tolist()
        else:
            hints = [valid_hint] * len(index_list)
        return [self.evaluate_index(i, _valid_hint=hint)
                for i, hint in zip(index_list, hints)]

    def evaluate_many(self, configs: Sequence[Mapping[str, Any]]) -> list[Observation]:
        """Evaluate a batch of configurations in order.

        Observation-for-observation identical to calling :meth:`evaluate` in a loop:
        each run of member configurations is encoded and evaluated by
        :meth:`evaluate_indices`, so one vectorized constraint mask replaces a
        scalar constraint pass per configuration -- the same batching discipline
        the shard workers of :mod:`repro.exec` use for the kernel-model calls.
        """
        out: list[Observation] = []
        run: list[int] = []
        for config in configs:
            index = self._index_or_none(config)
            if index is None:
                out += self.evaluate_indices(run)
                run = []
                out.append(self._non_member(config))
            else:
                run.append(index)
        out += self.evaluate_indices(run)
        return out

    def objective(self, config: Mapping[str, Any]) -> float:
        """Scalar objective of a configuration (``inf`` for invalid ones)."""
        return self.evaluate(config).value

    def reset_cache(self) -> None:
        """Drop memoized observations and reset the evaluation counter."""
        self._memo.clear()
        self._evaluation_count = 0

    # ------------------------------------------------------------------------- repr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TuningProblem(name={self.name!r}, gpu={self.gpu!r}, "
                f"dimensions={self.space.dimensions}, cardinality={self.space.cardinality})")
