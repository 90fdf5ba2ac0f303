"""CART decision-tree classifier (NumPy, from scratch).

scikit-learn (the paper's ML backend) is not available offline, so the
estimators are re-implemented.  The tree exploits a property of the
CA-matrix: every feature is a small integer code, so exhaustive split
search per feature is a bincount away and splits are exact.

Trees grow level-synchronously (:func:`repro.learning.engine.grow_frontier`):
one flat histogram pass per level over the whole frontier of open nodes,
no recursion, so deep chain-shaped trees cannot hit the recursion limit.
``fit`` takes optional integer ``sample_weight`` multiplicities; a tree
grown on distinct rows with multiplicities is node-for-node the tree
grown on the sample that repeats each row that many times.  That is how
the forest grows every tree on its training set's unique rows, weighted
by the bootstrap draw.

Each node draws its candidate-feature subset from a per-node generator
keyed on its heap path (:func:`repro.learning.engine.candidate_features`),
so the grown tree does not depend on traversal order: the depth-first
reference grower in ``tests/learning_oracle.py`` grows the same tree.

The API follows the scikit-learn conventions the paper's flow relies on:
``fit(X, y)`` / ``predict(X)`` / ``predict_proba(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.learning.engine import grow_frontier


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    #: class-count distribution at the node (leaf payload)
    counts: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


class DecisionTreeClassifier:
    """Binary-split CART with Gini impurity on integer-coded features."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[object] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: List[_Node] = []
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "DecisionTreeClassifier":
        X = np.asarray(X)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")
        if sample_weight is None:
            weights = np.ones(len(y), dtype=np.int64)
        else:
            weights = np.asarray(sample_weight)
            if weights.shape != (len(y),) or weights.dtype.kind not in "iu":
                raise ValueError(
                    "sample_weight must be integer multiplicities aligned with y"
                )
            if (weights < 0).any():
                raise ValueError("sample_weight must be non-negative")
            # A row drawn zero times is not in the sample: dropping it
            # keeps classes_ and every column's value range exactly
            # those of the materialized resample.
            drawn = weights > 0
            X, y, weights = X[drawn], y[drawn], weights[drawn]
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._n_classes = len(self.classes_)
        # One draw turns ``random_state`` into the base entropy every
        # per-node candidate draw derives from (None stays entropic).
        seed_rng = np.random.default_rng(self.random_state)
        self._base_seed = int(seed_rng.integers(0, 2**63 - 1))
        records = grow_frontier(
            X,
            encoded.astype(np.int64),
            self._n_classes,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_candidates=self._n_candidate_features(),
            base_seed=self._base_seed,
            weights=weights,
        )
        self._nodes = [
            _Node(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                counts=counts,
            )
            for feature, threshold, left, right, counts in records
        ]
        self._pack()
        return self

    def _pack(self) -> None:
        """Flatten nodes into arrays for vectorized prediction."""
        self._feature = np.array([node.feature for node in self._nodes])
        self._threshold = np.array([node.threshold for node in self._nodes])
        self._left = np.array([node.left for node in self._nodes])
        self._right = np.array([node.right for node in self._nodes])
        self._leaf = self._left < 0
        self._counts = np.vstack([node.counts for node in self._nodes])

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if self.max_features == "log2":
            return max(1, int(np.log2(self.n_features_)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * self.n_features_))
        return min(self.n_features_, int(self.max_features))

    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        rows = np.arange(len(X))
        node_ids = np.zeros(len(X), dtype=np.int64)
        # Level-synchronous descent: every sample takes one step per pass.
        while True:
            at_leaf = self._leaf[node_ids]
            if at_leaf.all():
                break
            features = np.where(at_leaf, 0, self._feature[node_ids])
            go_left = X[rows, features] <= self._threshold[node_ids]
            stepped = np.where(
                go_left, self._left[node_ids], self._right[node_ids]
            )
            node_ids = np.where(at_leaf, node_ids, stepped)
        counts = self._counts[node_ids]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / np.maximum(totals, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def depth(self) -> int:
        """Actual depth of the grown tree.

        Iterative: children are always appended after their parent, so a
        single reverse pass over the node list computes every subtree
        depth bottom-up.  Degenerate chain-shaped trees (one node per
        level, as ``max_depth=None`` can grow on adversarial data) must
        not hit Python's recursion limit here.
        """
        if not self._nodes:
            return 0
        below = [0] * len(self._nodes)
        for node_id in range(len(self._nodes) - 1, -1, -1):
            node = self._nodes[node_id]
            if not node.is_leaf:
                below[node_id] = 1 + max(below[node.left], below[node.right])
        return below[0]
