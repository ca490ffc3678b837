"""Surrogate-model-based search (SMAC-style sequential model-based optimization).

The tuner alternates between fitting a gradient-boosted-tree regression model (the same
model family SMAC3 and the paper's CatBoost analysis use) on all observations so far,
and evaluating the candidate configurations the model predicts to be fastest (with an
exploration fraction of pure random picks).  This is the in-repo stand-in for the
model-based optimizers (SMAC3, Optuna's TPE) the paper integrates through its shared
problem interface.

Bookkeeping is incremental and index-native: the training matrix lives in one
capacity-doubling buffer that grows a row per successful observation (the seed
implementation re-stacked the whole history every refit -- O(n^2) over a run), the
``evaluated`` set keys on integer space indices, and candidate pools are featurized
straight from the value columns
(:meth:`~repro.core.searchspace.SearchSpace.encode_indices`) without ever building a
configuration dictionary.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget
from repro.core.errors import EmptySearchSpaceError
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["SurrogateSearch"]


class SurrogateSearch(Tuner):
    """Sequential model-based optimization with a GBDT surrogate.

    Parameters
    ----------
    initial_samples:
        Random configurations evaluated before the first model fit.
    batch_size:
        Configurations evaluated per model refit.
    candidate_pool:
        Random candidates scored by the surrogate per iteration.
    exploration_fraction:
        Fraction of each batch drawn uniformly at random instead of from the model's
        ranking (keeps the model from collapsing onto one basin).
    n_estimators / max_depth / learning_rate:
        Hyper-parameters of the underlying GBDT surrogate.
    """

    name = "surrogate"

    def __init__(self, seed: int | None = None, initial_samples: int = 20,
                 batch_size: int = 5, candidate_pool: int = 500,
                 exploration_fraction: float = 0.2, n_estimators: int = 60,
                 max_depth: int = 4, learning_rate: float = 0.15):
        super().__init__(seed=seed)
        self.initial_samples = max(int(initial_samples), 2)
        self.batch_size = max(int(batch_size), 1)
        self.candidate_pool = max(int(candidate_pool), 10)
        self.exploration_fraction = float(exploration_fraction)
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)

    # --------------------------------------------------------------------- helpers

    @staticmethod
    def _sample_indices_up_to(space, n: int, rng: np.random.Generator) -> np.ndarray:
        """Up to ``n`` unique valid indices, degrading gracefully on tiny spaces."""
        n = min(n, space.cardinality)
        try:
            return space.sample_indices(n, rng=rng, valid_only=True, unique=True)
        except EmptySearchSpaceError:
            if space.cardinality <= 100_000:
                blocks = list(space.enumerate_chunked(valid_only=True))
                return (np.concatenate(blocks) if blocks
                        else np.empty(0, dtype=np.int64))
            return space.sample_indices(n, rng=rng, valid_only=True, unique=False)

    def _fit_surrogate(self, space, X: np.ndarray, y: np.ndarray):
        """Fit the GBDT surrogate on log-runtimes (log compresses the heavy tail)."""
        from repro.ml.gbdt import GradientBoostingRegressor

        model = GradientBoostingRegressor(n_estimators=self.n_estimators,
                                          max_depth=self.max_depth,
                                          learning_rate=self.learning_rate,
                                          random_state=0)
        model.fit(X, np.log(np.maximum(y, 1e-12)))
        return model

    # -------------------------------------------------------------------- main loop

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        space = problem.space
        # Incremental training buffers: one row per successful observation, capacity
        # doubled on demand.  The model always fits on the first n_rows rows, so no
        # per-refit re-encoding or re-stacking of the history ever happens.
        capacity = max(2 * self.initial_samples, 64)
        X_buf = np.empty((capacity, space.dimensions), dtype=float)
        y_buf = np.empty(capacity, dtype=float)
        n_rows = 0
        evaluated: set[int] = set()

        def _record(index: int) -> bool:
            nonlocal capacity, X_buf, y_buf, n_rows
            obs = self.evaluate_index(index, valid_hint=True)
            if obs is None:
                return False
            evaluated.add(index)
            if not obs.is_failure:
                if n_rows == capacity:
                    capacity *= 2
                    X_buf = np.resize(X_buf, (capacity, space.dimensions))
                    y_buf = np.resize(y_buf, capacity)
                X_buf[n_rows] = space.encode_indices([index])[0]
                y_buf[n_rows] = obs.value
                n_rows += 1
            return True

        for index in self._sample_indices_up_to(space, self.initial_samples,
                                                rng).tolist():
            if not _record(index):
                return

        while not self.budget_exhausted:
            if n_rows < 4:
                # Too few successful measurements to fit anything useful; explore.
                if not _record(space.sample_one_index(rng=rng, valid_only=True)):
                    return
                continue
            model = self._fit_surrogate(space, X_buf[:n_rows], y_buf[:n_rows])
            pool = self._sample_indices_up_to(space, self.candidate_pool, rng)
            candidates = [i for i in pool.tolist() if i not in evaluated]
            if not candidates:
                if not _record(space.sample_one_index(rng=rng, valid_only=True)):
                    return
                continue
            predictions = model.predict(space.encode_indices(candidates))
            ranking = np.argsort(predictions)

            batch: list[int] = []
            n_explore = int(round(self.batch_size * self.exploration_fraction))
            n_exploit = self.batch_size - n_explore
            batch.extend(candidates[int(i)] for i in ranking[:n_exploit])
            if n_explore and len(candidates) > n_exploit:
                rest = ranking[n_exploit:]
                picks = rng.choice(len(rest), size=min(n_explore, len(rest)), replace=False)
                batch.extend(candidates[int(rest[int(p)])] for p in picks)

            for index in batch:
                if not _record(index):
                    return
