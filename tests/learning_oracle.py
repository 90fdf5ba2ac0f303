"""Reference implementations the learning stack is tested against.

These are the forest's original code paths, kept beside the tests as
oracles instead of as options of the library:

* :class:`RecursiveTree` -- the depth-first CART grower (one Gini scan
  per node and candidate feature).  It shares the library tree's
  per-node candidate draw (``candidate_features``), so it grows the
  exact tree the level-synchronous ``grow_frontier`` must grow.
* :func:`materialized_forest` -- a Random Forest whose trees are grown
  by :class:`RecursiveTree` on materialized bootstrap copies
  ``X[index]``, drawn in the library forest's serial order.  The library
  forest grows on unique rows with bootstrap multiplicities and must
  match it tree for tree.
* :func:`loop_predict_proba` -- per-tree soft voting with per-tree class
  alignment, the reference for the fused ``PackedForest`` descent.
"""

from typing import Optional, Tuple

import numpy as np

from repro.learning.engine import candidate_features
from repro.learning.forest import RandomForestClassifier
from repro.learning.tree import DecisionTreeClassifier, _Node


class RecursiveTree(DecisionTreeClassifier):
    """``DecisionTreeClassifier`` grown by the depth-first reference."""

    def fit(self, X, y, sample_weight=None):
        assert sample_weight is None, "the oracle grows on materialized rows"
        X = np.asarray(X)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._n_classes = len(self.classes_)
        seed_rng = np.random.default_rng(self.random_state)
        self._base_seed = int(seed_rng.integers(0, 2**63 - 1))
        self._nodes = []
        self._grow(X, encoded.astype(np.int64), np.arange(len(y)), 0, 1)
        self._pack()
        return self

    def _grow(self, X, y, index, depth, path_key):
        node_id = len(self._nodes)
        node = _Node()
        self._nodes.append(node)
        labels = y[index]
        counts = np.bincount(labels, minlength=self._n_classes).astype(np.float64)
        node.counts = counts

        if (
            len(index) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == counts.sum()
        ):
            return node_id

        split = self._best_split(X, y, index, path_key)
        if split is None:
            return node_id
        feature, threshold = split
        mask = X[index, feature] <= threshold
        left_index = index[mask]
        right_index = index[~mask]
        if (
            len(left_index) < self.min_samples_leaf
            or len(right_index) < self.min_samples_leaf
        ):
            return node_id
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X, y, left_index, depth + 1, 2 * path_key)
        node.right = self._grow(X, y, right_index, depth + 1, 2 * path_key + 1)
        return node_id

    def _best_split(self, X, y, index, path_key) -> Optional[Tuple[int, float]]:
        n = len(index)
        labels = y[index]
        candidates = candidate_features(
            self._base_seed,
            path_key,
            self.n_features_,
            self._n_candidate_features(),
        )
        best_score = np.inf
        best: Optional[Tuple[int, float]] = None
        min_leaf = self.min_samples_leaf
        for feature in candidates:
            column = X[index, feature].astype(np.int64)
            low = column.min()
            span = int(column.max() - low)
            if span == 0:
                continue
            shifted = column - low
            # per-value class histogram in one bincount
            flat = shifted * self._n_classes + labels
            histogram = np.bincount(
                flat, minlength=(span + 1) * self._n_classes
            ).reshape(span + 1, self._n_classes)
            prefix = histogram.cumsum(axis=0)[:-1]  # candidate left partitions
            left_totals = prefix.sum(axis=1)
            right_totals = n - left_totals
            valid = (left_totals >= min_leaf) & (right_totals >= min_leaf)
            if not valid.any():
                continue
            total = prefix[-1] + histogram[-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_left = 1.0 - ((prefix / left_totals[:, None]) ** 2).sum(axis=1)
                right_counts = total[None, :] - prefix
                gini_right = 1.0 - (
                    (right_counts / right_totals[:, None]) ** 2
                ).sum(axis=1)
            weighted = (left_totals * gini_left + right_totals * gini_right) / n
            weighted[~valid] = np.inf
            k = int(np.argmin(weighted))
            if weighted[k] < best_score:
                best_score = weighted[k]
                best = (int(feature), float(low + k + 0.5))
        # Zero-gain splits are allowed (XOR-style regions need them to make
        # progress); termination is guaranteed because both sides of a
        # valid split are non-empty.
        return best


def bootstrap_draws(n, n_estimators=20, bootstrap=True, max_samples=None,
                    random_state=None):
    """``[(seed, index)]`` in the library forest's serial draw order."""
    rng = np.random.default_rng(random_state)
    sample_size = n
    if max_samples is not None:
        sample_size = max(1, int(max_samples * n))
    draws = []
    for _ in range(n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        if bootstrap:
            index = rng.integers(0, n, size=sample_size)
        else:
            index = np.arange(n)
        draws.append((seed, index))
    return draws


def materialized_forest(X, y, tree=RecursiveTree, **params):
    """A fitted ``RandomForestClassifier`` whose trees were grown by
    *tree* on materialized ``X[index]`` bootstrap copies."""
    X = np.asarray(X)
    y = np.asarray(y)
    forest = RandomForestClassifier(**params)
    forest.classes_ = np.unique(y)
    draws = bootstrap_draws(
        len(y),
        n_estimators=forest.n_estimators,
        bootstrap=forest.bootstrap,
        max_samples=forest.max_samples,
        random_state=forest.random_state,
    )
    forest.estimators_ = [
        tree(random_state=seed, **forest._tree_params()).fit(X[index], y[index])
        for seed, index in draws
    ]
    return forest


def loop_predict_proba(forest, X):
    """Per-tree soft vote, each tree's classes aligned to the forest's."""
    X = np.asarray(X)
    accumulated = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        proba = tree.predict_proba(X)
        # align tree classes (a bootstrap can miss a class entirely)
        columns = np.searchsorted(forest.classes_, tree.classes_)
        accumulated[:, columns] += proba
    return accumulated / len(forest.estimators_)
