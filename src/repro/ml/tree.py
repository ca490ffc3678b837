"""Histogram-based regression tree, grown level-wise.

The tree is the weak learner underneath :mod:`repro.ml.gbdt`.  Every feature of a
tuning configuration takes only a small number of distinct values (at most 37 across the
whole suite), so an exact histogram split search is both simple and fast.  The features
are binned once (:func:`bin_features`; a boosting ensemble bins once for all its trees),
and the tree then grows one depth at a time, as in LightGBM: for all splittable nodes of
the frontier and all features at once, three offset-keyed ``np.bincount`` calls build
the weight, weighted-target and weighted-square histograms, one ``cumsum`` along the bin
axis gives the left/right sums of every candidate split, and the best variance reduction
of every node is picked without per-node or per-feature Python work.

The float operations are those of a per-node, per-feature search, in the same order
(``bincount`` accumulates in sample order, ``cumsum`` is sequential, node totals are
pairwise sums over the node's rows), so the fitted tree does not depend on the growth
order.  Nodes are numbered depth-first (preorder) and stored as parallel arrays;
:class:`StackedTrees` predicts with one vectorised step per depth for any number of
trees at once, rather than a per-sample traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["DecisionTreeRegressor", "StackedTrees", "bin_features"]

_LEAF = -1
_MIN_GAIN = 1e-12


@dataclass
class _TreeArrays:
    """Flat array representation of a fitted tree (one entry per node, preorder)."""

    feature: np.ndarray      # int, _LEAF for leaves
    threshold: np.ndarray    # float split threshold (go left if x <= threshold)
    left: np.ndarray         # int child index
    right: np.ndarray        # int child index
    value: np.ndarray        # float leaf prediction (also stored for internal nodes)
    depth: int = 0           # longest root-to-leaf path


def bin_features(X: np.ndarray, max_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bin every column of ``X`` for the split search: ``(binned, edges)``.

    ``binned[j, i]`` is the bin of sample ``i`` in feature ``j`` (feature-major), and
    ``edges[j][b]`` is the threshold of a split after bin ``b`` (bins ``<= b`` hold the
    values ``<= edges[j][b]``).  Thresholds lie halfway between consecutive unique
    values; features with more than ``max_bins`` unique values are quantile-binned.
    """
    max_bins = max(int(max_bins), 2)
    binned = np.empty((X.shape[1], X.shape[0]), dtype=np.int64)
    edges_per_feature: list[np.ndarray] = []
    for j, column in enumerate(X.T):
        uniques = np.unique(column)
        if len(uniques) > max_bins:
            quantiles = np.linspace(0, 100, max_bins + 1)[1:-1]
            edges = np.unique(np.percentile(column, quantiles))
        else:
            edges = (uniques[:-1] + uniques[1:]) / 2.0
        edges_per_feature.append(edges)
        binned[j] = np.searchsorted(edges, column, side="left")
    return binned, edges_per_feature


class StackedTrees:
    """Fitted trees as one set of offset-concatenated node arrays, walked together.

    Leaves point back to themselves, so every row of every tree takes the same number
    of steps (the deepest tree's depth) without masking.  The children of node ``i``
    sit at ``child[2i]`` (right) and ``child[2i + 1]`` (left), so a step is
    ``child[2 * node + (x <= threshold)]``.
    """

    def __init__(self, fitted: list[DecisionTreeRegressor]):
        trees = [model._tree for model in fitted]
        sizes = [len(tree.feature) for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(self.roots, sizes)
        feature = np.concatenate([tree.feature for tree in trees])
        leaf = feature == _LEAF
        node = np.arange(len(feature))
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.value = np.concatenate([tree.value for tree in trees])
        right = np.concatenate([tree.right for tree in trees]) + offset
        left = np.concatenate([tree.left for tree in trees]) + offset
        self.child = np.column_stack((np.where(leaf, node, right),
                                      np.where(leaf, node, left))).ravel()
        self.depth = max(tree.depth for tree in trees)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows)`` matrix of every tree's prediction for every row of ``X``."""
        n_rows, n_features = X.shape
        node = np.repeat(self.roots[:, None], n_rows, axis=1)
        row_start = np.arange(n_rows) * n_features
        flat = X.ravel()
        for _ in range(self.depth):
            go_left = flat.take(row_start + self.feature.take(node)) <= self.threshold.take(node)
            node = self.child.take(2 * node + go_left)
        return self.value.take(node)


class DecisionTreeRegressor:
    """CART-style regression tree with exact histogram split search.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_split:
        Minimum number of samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum number of samples each child must retain.
    max_bins:
        Maximum number of histogram bins per feature; features with more unique
        values are quantile-binned down to this many.
    """

    def __init__(self, max_depth: int = 6, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_bins: int = 64):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self.min_samples_split = max(int(min_samples_split), 2)
        self.min_samples_leaf = max(int(min_samples_leaf), 1)
        self.max_bins = max(int(max_bins), 2)
        self._tree: _TreeArrays | None = None
        self.n_features_: int = 0
        self.feature_gains_: np.ndarray | None = None

    # --------------------------------------------------------------------- fitting

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None) -> "DecisionTreeRegressor":
        """Fit the tree to ``(X, y)``; returns self."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2D array")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if sample_weight is None:
            sample_weight = np.ones_like(y)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float).ravel()
        binned, edges = bin_features(X, self.max_bins)
        self.fit_binned(binned, edges, y, sample_weight)
        return self

    def fit_binned(self, binned: np.ndarray, edges: list[np.ndarray], y: np.ndarray,
                   sample_weight: np.ndarray) -> np.ndarray:
        """Fit on features binned by :func:`bin_features`; returns each sample's leaf.

        The tree grows one depth at a time: ``order`` lists the samples of the current
        frontier grouped by node, ascending within a node as a recursive partition
        leaves them, and ``counts`` holds the group sizes.
        """
        n_features, n = binned.shape
        self.n_features_ = n_features
        n_bins = np.array([len(e) + 1 for e in edges], dtype=np.int64)
        width = int(n_bins.max()) if n_features else 1
        # Split position b sends bins <= b left and exists for b < n_bins - 1; the bins
        # of narrower features are padded up to the widest one.
        real_split = (np.arange(width - 1)[:, None] < n_bins - 1)[:, :, None]
        min_leaf = self.min_samples_leaf

        # Nodes in creation (breadth-first) order; renumbered to preorder at the end.
        capacity = min(2 * n - 1, 2 ** (self.max_depth + 1) - 1)
        feature = np.full(capacity, _LEAF, dtype=np.int64)
        threshold = np.zeros(capacity)
        gain = np.zeros(capacity)
        left = np.full(capacity, _LEAF, dtype=np.int64)
        right = np.full(capacity, _LEAF, dtype=np.int64)
        value = np.zeros(capacity)
        n_nodes = 1
        node_of_sample = np.zeros(n, dtype=np.int64)
        frontier = np.zeros(1, dtype=np.int64)
        order = np.arange(n)
        counts = np.array([n])
        depth = 0
        while True:
            # Per-sample w, w*y and w*y*y in frontier order, and each node's totals as
            # pairwise sums over its rows (a row of ``stats`` sums exactly like the
            # gathered 1-D array).
            t = y[order]
            w = sample_weight[order]
            stats = np.array((w, w * t, w * t * t))
            bounds = counts.cumsum().tolist()
            starts = [0] + bounds[:-1]
            totals = np.array([np.add.reduce(stats[:, lo:hi], axis=1)
                               for lo, hi in zip(starts, bounds)])
            weighted = totals[:, 0] > 0
            node_value = np.divide(totals[:, 1], totals[:, 0], where=weighted,
                                   out=np.empty(len(frontier)))
            for k in (~weighted).nonzero()[0].tolist():
                node_value[k] = t[starts[k]:bounds[k]].mean()
            value[frontier] = node_value
            if depth == self.max_depth or width < 2:
                break
            varies = np.logical_or.reduceat(t != t[starts].repeat(counts), starts)
            candidates = (varies & (counts >= self.min_samples_split)).nonzero()[0]
            if not len(candidates):
                break

            # One histogram pass over every splittable node ("slot") and every feature:
            # key = (bin * n_features + feature) * n_slots + slot, accumulated in sample
            # order; the bin axis comes first so the prefix sums run down whole rows.
            n_slots = len(candidates)
            slot_of_node = np.full(len(frontier), -1, dtype=np.int64)
            slot_of_node[candidates] = np.arange(n_slots)
            slot = slot_of_node.repeat(counts)
            inside = slot >= 0
            rows = order[inside]
            slot = slot[inside]
            bins = binned[:, rows]
            keys = (bins * (n_features * n_slots) + slot
                    + (np.arange(n_features) * n_slots)[:, None]).ravel()
            n_keys = width * n_features * n_slots
            weights = stats[:, None, inside].repeat(n_features, axis=1).reshape(3, -1)
            hist = np.array([np.bincount(keys, weights=row, minlength=n_keys)
                             for row in weights]).reshape(3, width, n_features, n_slots)
            left_w, left_wt, left_wtt = hist.cumsum(axis=1)[:, :-1]
            total_w, total_wt, total_wtt = totals[candidates].T[:, None, None, :]
            right_w = total_w - left_w
            right_wt = total_wt - left_wt
            right_wtt = total_wtt - left_wtt
            valid = (left_w >= min_leaf) & (right_w >= min_leaf) & real_split
            parent_sse = total_wtt - total_wt * total_wt / total_w
            left_sse = left_wtt - np.divide(left_wt ** 2, left_w, where=left_w > 0,
                                            out=np.zeros_like(left_w))
            right_sse = right_wtt - np.divide(right_wt ** 2, right_w, where=right_w > 0,
                                              out=np.zeros_like(right_w))
            gains = parent_sse - (left_sse + right_sse)
            gains[~valid] = -np.inf
            # Best gain per (feature, slot); a feature with a NaN gain is skipped whole.
            # Then the first maximum over features, and over that feature's bins.
            feature_gain = gains.max(axis=0)
            feature_gain[np.isnan(feature_gain)] = -np.inf
            best_feature = feature_gain.argmax(axis=0)
            picked = np.arange(n_slots)
            split_gain = feature_gain[best_feature, picked]
            split_bin = gains[:, best_feature, picked].argmax(axis=0)
            go_left = bins[best_feature[slot], np.arange(len(rows))] <= split_bin[slot]
            n_left = np.bincount(slot[go_left], minlength=n_slots)
            n_right = counts[candidates] - n_left
            splits = (split_gain > _MIN_GAIN) & (n_left >= min_leaf) & (n_right >= min_leaf)
            if not splits.any():
                break

            # Split nodes get a left and a right child, in node order.
            parents = frontier[candidates[splits]]
            chosen = best_feature[splits]
            feature[parents] = chosen
            threshold[parents] = [edges[f][b] for f, b in zip(chosen.tolist(),
                                                               split_bin[splits].tolist())]
            gain[parents] = split_gain[splits]
            frontier = np.arange(n_nodes, n_nodes + 2 * len(parents))
            left[parents] = frontier[0::2]
            right[parents] = frontier[1::2]
            n_nodes += len(frontier)
            child_of_slot = np.full(n_slots, -1, dtype=np.int64)
            child_of_slot[splits] = np.arange(0, len(frontier), 2)
            child = child_of_slot[slot]
            moving = child >= 0
            child = child[moving] + ~go_left[moving]
            rows = rows[moving]
            node_of_sample[rows] = frontier[child]
            counts = np.bincount(child, minlength=len(frontier))
            # A stable sort keeps each child's samples ascending (a radix sort for the
            # small integer keys).
            order = rows[np.argsort(child.astype(np.min_scalar_type(len(frontier))),
                                    kind="stable")]
            depth += 1

        # Renumber to depth-first preorder.
        left_of, right_of = left.tolist(), right.tolist()
        preorder: list[int] = []
        stack = [0]
        while stack:
            node = stack.pop()
            preorder.append(node)
            if left_of[node] != _LEAF:
                stack += [right_of[node], left_of[node]]
        rank = np.empty(n_nodes, dtype=np.int64)
        rank[preorder] = np.arange(n_nodes)
        feature = feature[preorder]
        internal = feature != _LEAF
        left, right = (np.where(internal, rank[c[preorder]], _LEAF) for c in (left, right))
        self._tree = _TreeArrays(feature=feature, threshold=threshold[preorder], left=left,
                                 right=right, value=value[preorder], depth=depth)
        # Gains accumulate in preorder, the order a recursive build books them.
        self.feature_gains_ = np.bincount(feature[internal], weights=gain[preorder][internal],
                                          minlength=n_features).astype(float)
        return rank[node_of_sample]

    # ------------------------------------------------------------------ prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted target for every row of ``X``."""
        if self._tree is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        return StackedTrees([self]).leaf_values(X)[0]

    # --------------------------------------------------------------------- queries

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        if self._tree is None:
            return 0
        return int(len(self._tree.feature))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalised to sum to 1 (0 if never split)."""
        if self.feature_gains_ is None:
            raise RuntimeError("tree is not fitted")
        total = self.feature_gains_.sum()
        if total <= 0:
            return np.zeros_like(self.feature_gains_)
        return self.feature_gains_ / total

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters (scikit-learn-style introspection)."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_bins": self.max_bins,
        }
