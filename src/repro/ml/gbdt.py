"""Gradient-boosted regression trees (least-squares boosting).

This is the in-repo substitute for the CatBoost regressor the paper uses for its
feature-importance analysis.  For least-squares loss, gradient boosting reduces to
repeatedly fitting a regression tree to the current residuals and adding a shrunken
copy of its predictions to the ensemble -- simple, deterministic given a seed, and
strong enough on the suite's deterministic campaign data to reach the R^2 regime the
paper reports (>= 0.99 for most benchmarks).

Without subsampling the features are binned once per ensemble, every tree grows
level-wise on those bins (:mod:`repro.ml.tree`), and the boosting update reads each
training sample's leaf straight from the build instead of re-predicting the training
set.  Prediction walks all trees at once over their concatenated node arrays, a block
of rows at a time, and adds the per-tree contributions in tree order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor, StackedTrees, bin_features

__all__ = ["GradientBoostingRegressor"]

# Cap on the (trees x rows) node matrix of one prediction block.
_PREDICT_CELLS = 1 << 16


class GradientBoostingRegressor:
    """Least-squares gradient boosting over histogram regression trees.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages (trees).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the individual trees.
    subsample:
        Fraction of samples drawn (without replacement) for each stage; 1.0 disables
        stochastic boosting.
    min_samples_leaf:
        Minimum samples per leaf of each tree.
    max_bins:
        Histogram bins per feature in the trees.
    random_state:
        Seed for the subsampling generator.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 4, subsample: float = 1.0, min_samples_leaf: int = 1,
                 max_bins: int = 64, random_state: int | None = None):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not (0.0 < learning_rate <= 1.0):
            raise ValueError("learning_rate must lie in (0, 1]")
        if not (0.0 < subsample <= 1.0):
            raise ValueError("subsample must lie in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.subsample = float(subsample)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_bins = int(max_bins)
        self.random_state = random_state

        self._trees: list[DecisionTreeRegressor] = []
        self._stack: StackedTrees | None = None
        self._initial_prediction: float = 0.0
        self.n_features_: int = 0
        self.train_score_: list[float] = []

    # --------------------------------------------------------------------- fitting

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit the ensemble to ``(X, y)``; returns self."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2D array")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")

        rng = np.random.default_rng(self.random_state)
        self.n_features_ = X.shape[1]
        self._trees = []
        self.train_score_ = []

        self._initial_prediction = float(y.mean())
        prediction = np.full(y.shape, self._initial_prediction)

        n = X.shape[0]
        sample_size = max(int(round(self.subsample * n)), 1)
        if self.subsample == 1.0:
            binned, edges = bin_features(X, self.max_bins)
            unit_weight = np.ones(n)
        for _ in range(self.n_estimators):
            residual = y - prediction
            tree = DecisionTreeRegressor(max_depth=self.max_depth,
                                         min_samples_leaf=self.min_samples_leaf,
                                         max_bins=self.max_bins)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=sample_size, replace=False)
                tree.fit(X[idx], residual[idx])
                update = tree.predict(X)
            else:
                leaves = tree.fit_binned(binned, edges, residual, unit_weight)
                update = tree._tree.value[leaves]
            prediction = prediction + self.learning_rate * update
            self._trees.append(tree)
            self.train_score_.append(r2_score(y, prediction))
        self._stack = StackedTrees(self._trees)
        return self

    # ------------------------------------------------------------------ prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Ensemble prediction for every row of ``X``."""
        if not self._trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        out = np.full(X.shape[0], self._initial_prediction)
        rows = max(_PREDICT_CELLS // len(self._trees), 1)
        for start in range(0, X.shape[0], rows):
            block = slice(start, start + rows)
            for update in self.learning_rate * self._stack.leaf_values(X[block]):
                out[block] += update
        return out

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R^2 of the ensemble on ``(X, y)``."""
        return r2_score(y, self.predict(X))

    # --------------------------------------------------------------------- queries

    @property
    def feature_importances_(self) -> np.ndarray:
        """Gain-based importances aggregated over all trees (normalised to sum to 1)."""
        if not self._trees:
            raise RuntimeError("model is not fitted")
        total = np.zeros(self.n_features_)
        for tree in self._trees:
            if tree.feature_gains_ is not None:
                total += tree.feature_gains_
        s = total.sum()
        return total / s if s > 0 else total

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters (scikit-learn-style introspection)."""
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "subsample": self.subsample,
            "min_samples_leaf": self.min_samples_leaf,
            "max_bins": self.max_bins,
            "random_state": self.random_state,
        }

