"""Differential oracle for the level-wise GBDT.

The reference below is the recursive, depth-first tree and the boosting loop that the
level-wise builder replaced, frozen verbatim in behaviour: per node it gathers the
node's rows, searches one feature at a time (three ``bincount`` and three ``cumsum``
calls each) and recurses; every boosting stage re-bins ``X`` and re-predicts the
training set.  The fuzzed tests assert that the fitted trees (node arrays, predictions,
gains), the ensemble's training scores and predictions, and permutation importances are
*exactly* equal -- not close -- so every downstream golden stays byte-identical.

The reference books a split's gain before its ``min_samples_leaf`` count check; with
unit weights (all the suite uses, and all the fuzz draws) that check never rejects a
split, so the two agree; ``test_ml.py``'s ``test_gain_booked_only_for_splits_made``
covers the weighted case where they differ.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import r2_score
from repro.ml.permutation_importance import permutation_importance
from repro.ml.tree import DecisionTreeRegressor

_LEAF = -1


class ReferenceTree:
    """The recursive histogram tree (depth-first, one feature at a time)."""

    def __init__(self, max_depth=6, min_samples_split=2, min_samples_leaf=1, max_bins=64):
        self.max_depth = int(max_depth)
        self.min_samples_split = max(int(min_samples_split), 2)
        self.min_samples_leaf = max(int(min_samples_leaf), 1)
        self.max_bins = max(int(max_bins), 2)

    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        sample_weight = np.ones_like(y) if sample_weight is None else sample_weight
        self.n_features_ = X.shape[1]
        self.feature_gains_ = np.zeros(self.n_features_)
        binned = np.empty_like(X, dtype=np.int64)
        self.bin_edges = []
        for j in range(self.n_features_):
            uniques = np.unique(X[:, j])
            if len(uniques) > self.max_bins:
                quantiles = np.linspace(0, 100, self.max_bins + 1)[1:-1]
                edges = np.unique(np.percentile(X[:, j], quantiles))
            else:
                edges = (uniques[:-1] + uniques[1:]) / 2.0
            self.bin_edges.append(edges)
            binned[:, j] = np.searchsorted(edges, X[:, j], side="left")

        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

        def build(indices, depth):
            node = len(nodes["feature"])
            for name, initial in (("feature", _LEAF), ("threshold", 0.0), ("left", _LEAF),
                                  ("right", _LEAF), ("value", 0.0)):
                nodes[name].append(initial)
            w = sample_weight[indices]
            t = y[indices]
            total_w = w.sum()
            nodes["value"][node] = (float(np.average(t, weights=w)) if total_w > 0
                                    else float(t.mean()))
            if depth >= self.max_depth or len(indices) < self.min_samples_split:
                return node
            if np.all(t == t[0]):
                return node
            best = self._best_split(binned, indices, t, w)
            if best is None:
                return node
            feature, bin_index, gain = best
            self.feature_gains_[feature] += gain
            threshold = float(self.bin_edges[feature][bin_index])
            go_left = binned[indices, feature] <= bin_index
            left_idx = indices[go_left]
            right_idx = indices[~go_left]
            if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
                return node
            nodes["feature"][node] = feature
            nodes["threshold"][node] = threshold
            nodes["left"][node] = build(left_idx, depth + 1)
            nodes["right"][node] = build(right_idx, depth + 1)
            return node

        build(np.arange(X.shape[0]), 0)
        self.feature = np.asarray(nodes["feature"], dtype=np.int64)
        self.threshold = np.asarray(nodes["threshold"], dtype=float)
        self.left = np.asarray(nodes["left"], dtype=np.int64)
        self.right = np.asarray(nodes["right"], dtype=np.int64)
        self.value = np.asarray(nodes["value"], dtype=float)
        return self

    def _best_split(self, binned, indices, t, w):
        best_gain = 1e-12
        best = None
        total_w = w.sum()
        total_wy = float((w * t).sum())
        total_wyy = float((w * t * t).sum())
        parent_sse = total_wyy - total_wy * total_wy / total_w
        for feature in range(binned.shape[1]):
            n_bins = len(self.bin_edges[feature]) + 1
            if n_bins < 2:
                continue
            bins = binned[indices, feature]
            count_w = np.bincount(bins, weights=w, minlength=n_bins)
            sum_wy = np.bincount(bins, weights=w * t, minlength=n_bins)
            sum_wyy = np.bincount(bins, weights=w * t * t, minlength=n_bins)
            left_w = np.cumsum(count_w)[:-1]
            left_wy = np.cumsum(sum_wy)[:-1]
            left_wyy = np.cumsum(sum_wyy)[:-1]
            right_w = total_w - left_w
            right_wy = total_wy - left_wy
            right_wyy = total_wyy - left_wyy
            valid = (left_w >= self.min_samples_leaf) & (right_w >= self.min_samples_leaf)
            if not np.any(valid):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                left_sse = left_wyy - np.where(left_w > 0, left_wy ** 2 / left_w, 0.0)
                right_sse = right_wyy - np.where(right_w > 0, right_wy ** 2 / right_w, 0.0)
            gain = parent_sse - (left_sse + right_sse)
            gain[~valid] = -np.inf
            b = int(np.argmax(gain))
            if gain[b] > best_gain:
                best_gain = float(gain[b])
                best = (feature, b, float(gain[b]))
        return best

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.max_depth + 1):
            feature = self.feature[node]
            internal = feature != _LEAF
            if not np.any(internal):
                break
            idx = np.nonzero(internal)[0]
            go_left = X[idx, feature[idx]] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
        return self.value[node]


class ReferenceBoosting:
    """The boosting loop that re-bins and re-predicts the training set every stage."""

    def __init__(self, n_estimators=100, learning_rate=0.1, max_depth=4, subsample=1.0,
                 min_samples_leaf=1, max_bins=64, random_state=None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.random_state = random_state

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        rng = np.random.default_rng(self.random_state)
        self.trees = []
        self.train_score_ = []
        self.initial_prediction = float(y.mean())
        prediction = np.full(y.shape, self.initial_prediction)
        n = X.shape[0]
        sample_size = max(int(round(self.subsample * n)), 1)
        for _ in range(self.n_estimators):
            residual = y - prediction
            if self.subsample < 1.0:
                idx = rng.choice(n, size=sample_size, replace=False)
            else:
                idx = slice(None)
            tree = ReferenceTree(max_depth=self.max_depth,
                                 min_samples_leaf=self.min_samples_leaf,
                                 max_bins=self.max_bins)
            tree.fit(X[idx], residual[idx])
            prediction = prediction + self.learning_rate * tree.predict(X)
            self.trees.append(tree)
            self.train_score_.append(r2_score(y, prediction))
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], self.initial_prediction)
        for tree in self.trees:
            out = out + self.learning_rate * tree.predict(X)
        return out


# ------------------------------------------------------------------------- data

@st.composite
def datasets(draw):
    """Feature matrices with the shapes the split search must get right.

    Columns are drawn from small value sets (ties in gain, few bins), from wide value
    sets (more unique values than ``max_bins``: quantile edges), or are constant or
    duplicates of an earlier column; targets are integer-valued so equal gains occur.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 160))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["few", "wide", "constant", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        elif kind == "constant":
            columns.append(np.full(n, float(rng.integers(-3, 4))))
        elif kind == "wide":
            columns.append(rng.normal(size=n).round(2))
        else:
            columns.append(rng.integers(0, draw(st.integers(2, 6)), size=n).astype(float))
    X = np.column_stack(columns)
    target = draw(st.sampled_from(["integer", "smooth", "constant"]))
    if target == "integer":
        y = rng.integers(0, 4, size=n).astype(float)
    elif target == "smooth":
        y = X @ rng.normal(size=X.shape[1]) + 0.1 * rng.normal(size=n)
    else:
        y = np.full(n, 2.5)
    return X, y


def _assert_same_tree(new, ref):
    arrays = new._tree
    for name in ("feature", "threshold", "left", "right", "value"):
        np.testing.assert_array_equal(getattr(arrays, name), getattr(ref, name), err_msg=name)
    np.testing.assert_array_equal(new.feature_gains_, ref.feature_gains_)


# ------------------------------------------------------------------------ tests

@given(data=datasets(), max_depth=st.integers(1, 6), min_samples_leaf=st.integers(1, 6),
       min_samples_split=st.integers(2, 8), max_bins=st.sampled_from([2, 3, 8, 64]))
@settings(max_examples=150, deadline=None)
def test_tree_matches_recursive_reference(data, max_depth, min_samples_leaf,
                                          min_samples_split, max_bins):
    X, y = data
    params = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                  min_samples_split=min_samples_split, max_bins=max_bins)
    new = DecisionTreeRegressor(**params).fit(X, y)
    ref = ReferenceTree(**params).fit(X, y)
    _assert_same_tree(new, ref)
    np.testing.assert_array_equal(new.predict(X), ref.predict(X))


@given(data=datasets(), max_depth=st.integers(1, 6), min_samples_leaf=st.integers(1, 4),
       subsample=st.sampled_from([1.0, 1.0, 0.6]), max_bins=st.sampled_from([3, 8, 64]),
       n_estimators=st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_ensemble_matches_reference_loop(data, max_depth, min_samples_leaf, subsample,
                                         max_bins, n_estimators):
    X, y = data
    params = dict(n_estimators=n_estimators, learning_rate=0.3, max_depth=max_depth,
                  subsample=subsample, min_samples_leaf=min_samples_leaf, max_bins=max_bins,
                  random_state=5)
    new = GradientBoostingRegressor(**params).fit(X, y)
    ref = ReferenceBoosting(**params).fit(X, y)
    assert new.train_score_ == ref.train_score_
    for new_tree, ref_tree in zip(new._trees, ref.trees, strict=True):
        _assert_same_tree(new_tree, ref_tree)
    np.testing.assert_array_equal(new.predict(X), ref.predict(X))
    probe = np.random.default_rng(1).permutation(X)
    np.testing.assert_array_equal(new.predict(probe), ref.predict(probe))

    a = permutation_importance(new, X, y, n_repeats=2, random_state=3)
    b = permutation_importance(ref, X, y, n_repeats=2, random_state=3)
    np.testing.assert_array_equal(a.importances, b.importances)
    assert a.baseline_score == b.baseline_score


@pytest.mark.parametrize("n_estimators", [1, 7, 300])
def test_chunked_prediction_matches_reference(n_estimators):
    """Enough trees and rows that prediction runs in several row blocks."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 9, size=(1500, 4)).astype(float)
    y = X[:, 0] * X[:, 1] - 3 * X[:, 2] + rng.normal(size=1500)
    params = dict(n_estimators=n_estimators, max_depth=5, learning_rate=0.1, random_state=0)
    new = GradientBoostingRegressor(**params).fit(X, y)
    ref = ReferenceBoosting(**params).fit(X, y)
    np.testing.assert_array_equal(new.predict(X), ref.predict(X))
