"""Frontier-batched tree growth and fused multi-tree inference.

The learning stack is the hybrid flow's hot path once the simulator is
vectorized: ``leave_one_out`` / ``grid_search`` / ``HybridFlow`` train
dozens to hundreds of Random Forests per run.  This module gives the
forest the same treatment the solver got in the batched/packed engines:

* :func:`grow_frontier` grows a tree breadth-first.  Each level
  evaluates best-split histograms for the *entire frontier of open
  nodes in one pass*: ``(node, candidate slot, feature value, class)``
  is encoded into a single flat index and every per-node per-feature
  class histogram falls out of one ``np.bincount`` plus a segmented
  cumulative sum (the LightGBM histogram trick — exact here, because
  CA-matrix features are small integer codes).  Rows carry integer
  multiplicities, so the forest grows each tree on its unique rows
  weighted by the bootstrap draw.  Grown trees are **node-for-node
  identical** to the depth-first reference grown on the materialized
  resample: same features, thresholds, counts and DFS-preorder node
  numbering (``tests/test_learning_engine.py`` enforces it against the
  reference in ``tests/learning_oracle.py``).

* :class:`PackedForest` packs every estimator's flattened node arrays
  into one offset-indexed structure and runs a single level-synchronous
  descent over all ``(sample, tree)`` lanes with active-lane
  compaction, instead of a per-tree Python loop.  Per-tree vote
  dispersion — the confidence signal for uncertainty-gated routing —
  comes out of the same descent for free.

Identity with the depth-first reference rests on one refactor: the
candidate-feature subset of a node is drawn from a *per-node* generator
seeded by ``(tree seed, heap path key)`` (:func:`candidate_features`)
instead of one sequential generator consumed in growth order.  Any
growth order draws the exact same subsets for the exact same nodes —
which is what makes breadth-first growth (and any future by-level
parallelism) provably equivalent to the depth-first reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs

# ----------------------------------------------------------------------
# Metric names (repro.obs registry; see repro.lint.catalog)
# ----------------------------------------------------------------------
#: histogram — wall seconds of one RandomForestClassifier.fit call
M_FIT_SECONDS = "learning.fit.seconds"
#: counter — frontier nodes processed by the level-synchronous builder
M_FRONTIER_NODES = "learning.frontier_nodes"
#: counter — training rows passed to RandomForestClassifier.fit
M_FIT_ROWS = "learning.fit_rows"
#: counter — distinct (row, label) pairs the forest's trees grow on
M_FIT_UNIQUE_ROWS = "learning.fit_unique_rows"
#: counter — (sample, tree) lanes descended by the packed forest
M_PACKED_LANES = "learning.packed_lanes"

#: cap on one level's histogram tensor (elements); open nodes are
#: chunked so ``chunk * slots * values * classes`` stays below this —
#: chunking is invisible to the result (nodes are independent)
_HISTOGRAM_BUDGET = 1 << 22

#: one grown node: (feature, threshold, left, right, class counts),
#: child indices in DFS-preorder numbering, -1 for leaves
NodeRecord = Tuple[int, float, int, int, np.ndarray]


def candidate_features(
    base_seed: int, path_key: int, n_features: int, n_candidates: int
) -> np.ndarray:
    """Candidate feature subset of one node, independent of growth order.

    ``path_key`` is the node's heap path (root 1, left ``2k``, right
    ``2k + 1``), so the draw depends only on the node's position in the
    tree — breadth-first and depth-first growth see identical subsets.
    The subset keeps the generator's draw order (ties between equally
    good features resolve toward the earlier candidate, exactly like
    the reference's sequential strict-less-than scan).
    """
    if n_candidates >= n_features:
        return np.arange(n_features)
    rng = np.random.default_rng((base_seed, path_key))
    return rng.choice(n_features, size=n_candidates, replace=False)


# ----------------------------------------------------------------------
# Level-synchronous growth
# ----------------------------------------------------------------------
def _weighted_count(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount`` of integer *weights*, exact as int64 below 2**53."""
    return np.bincount(index, weights=weights, minlength=size).astype(np.int64)


def grow_frontier(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    n_candidates: int,
    base_seed: int,
    weights: np.ndarray,
) -> List[NodeRecord]:
    """Grow one CART tree breadth-first; returns DFS-preorder records.

    *y* must be integer-encoded class labels (``0 .. n_classes - 1``)
    and *weights* each row's positive integer multiplicity.  The tree is
    exactly the one the recursive reference grows on the sample that
    repeats every row ``weights[i]`` times: same splits, same
    tie-breaking, same numbering.  Every size, class count and histogram
    bin is a weighted sum of integers, exact in float64 below 2**53 and
    cast back to int64.
    """
    n_rows, n_features = X.shape
    X = np.asarray(X)
    # The reference truncates each column with ``astype(np.int64)`` for
    # histogramming but routes samples on the *original* values; do the
    # same, with a single global shift instead of per-node offsets.
    Xi = X.astype(np.int64)
    if n_features:
        global_min = Xi.min(axis=0)
        Xs = Xi - global_min[None, :]
        n_values = int(Xs.max()) + 1
        if n_values <= np.iinfo(np.int16).max:
            # values only feed the flat histogram index; a narrow dtype
            # halves the gather traffic without changing any count
            Xs = Xs.astype(np.int16)
    else:
        global_min = np.zeros(0, dtype=np.int64)
        Xs = Xi
        n_values = 1

    # Growable per-node records, indexed by breadth-first creation id.
    feature_of: List[int] = []
    threshold_of: List[float] = []
    left_of: List[int] = []
    right_of: List[int] = []
    counts_of: List[Optional[np.ndarray]] = []

    def new_node() -> int:
        feature_of.append(-1)
        threshold_of.append(0.0)
        left_of.append(-1)
        right_of.append(-1)
        counts_of.append(None)
        return len(feature_of) - 1

    root = new_node()
    frontier_ids = [root]
    frontier_keys = [1]
    rows = np.arange(n_rows, dtype=np.int64)
    row_node = np.zeros(n_rows, dtype=np.int64)
    row_weight = np.asarray(weights, dtype=np.float64)
    depth = 0
    metrics = obs.metrics()

    while frontier_ids:
        n_frontier = len(frontier_ids)
        metrics.inc(M_FRONTIER_NODES, n_frontier)
        sizes = _weighted_count(row_node, row_weight, n_frontier)
        class_counts_int = _weighted_count(
            row_node * n_classes + y[rows], row_weight, n_frontier * n_classes
        ).reshape(n_frontier, n_classes)
        class_counts = class_counts_int.astype(np.float64)
        for rank in range(n_frontier):
            counts_of[frontier_ids[rank]] = class_counts[rank]

        # Stopping criteria — mirrors the reference exactly: too small,
        # depth-capped (uniform per level), or pure.
        open_mask = (sizes >= min_samples_split) & (
            class_counts.max(axis=1) != class_counts.sum(axis=1)
        )
        if max_depth is not None and depth >= max_depth:
            open_mask[:] = False
        if n_candidates <= 0 or n_features == 0 or n_values <= 1:
            open_mask[:] = False
        open_ranks = np.flatnonzero(open_mask)
        n_open = len(open_ranks)
        if n_open == 0:
            break

        # Candidate matrix: every node draws the same number of slots.
        if n_candidates >= n_features:
            n_slots = n_features
            cand = np.broadcast_to(
                np.arange(n_features, dtype=np.int64), (n_open, n_slots)
            )
        else:
            n_slots = n_candidates
            cand = np.empty((n_open, n_slots), dtype=np.int64)
            for i, rank in enumerate(open_ranks):
                cand[i] = candidate_features(
                    base_seed, frontier_keys[rank], n_features, n_slots
                )

        rank_to_open = np.full(n_frontier, -1, dtype=np.int64)
        rank_to_open[open_ranks] = np.arange(n_open)
        in_open = open_mask[row_node]
        open_rows = rows[in_open]
        open_weight = row_weight[in_open]
        open_rank_of_row = rank_to_open[row_node[in_open]]

        best_score = np.full(n_open, np.inf)
        best_slot = np.zeros(n_open, dtype=np.int64)
        best_pos = np.zeros(n_open, dtype=np.int64)
        per_node = n_slots * n_values * n_classes
        chunk = max(1, _HISTOGRAM_BUDGET // per_node)
        open_sizes = sizes[open_ranks]
        open_totals = class_counts_int[open_ranks]
        for lo in range(0, n_open, chunk):
            hi = min(lo + chunk, n_open)
            in_chunk = (open_rank_of_row >= lo) & (open_rank_of_row < hi)
            chunk_rows = open_rows[in_chunk]
            chunk_weight = open_weight[in_chunk]
            local_rank = open_rank_of_row[in_chunk] - lo
            n_chunk = hi - lo
            # One flat (node, slot, class, value) histogram for the
            # chunk; values on the LAST axis so the prefix cumsum runs
            # over contiguous memory.
            values = Xs[chunk_rows[:, None], cand[lo:hi][local_rank]]
            row_base = (
                local_rank * (n_slots * n_classes * n_values)
                + y[chunk_rows] * n_values
            )
            slot_base = np.arange(n_slots) * (n_classes * n_values)
            flat = (row_base[:, None] + slot_base[None, :]) + values
            histogram = _weighted_count(
                flat.ravel(),
                np.repeat(chunk_weight, n_slots),
                n_chunk * n_slots * n_classes * n_values,
            ).reshape(n_chunk, n_slots, n_classes, n_values)
            prefix = histogram.cumsum(axis=3)[:, :, :, :-1]
            left_totals = prefix.sum(axis=2)
            node_sizes = open_sizes[lo:hi][:, None, None]
            right_totals = node_sizes - left_totals
            valid = (left_totals >= min_samples_leaf) & (
                right_totals >= min_samples_leaf
            )
            # per-(node, class) totals are the node class counts — no
            # reduction over the histogram needed
            totals = open_totals[lo:hi][:, None, :, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_left = 1.0 - (
                    (prefix / left_totals[:, :, None, :]) ** 2
                ).sum(axis=2)
                right_counts = totals - prefix
                gini_right = 1.0 - (
                    (right_counts / right_totals[:, :, None, :]) ** 2
                ).sum(axis=2)
            weighted = (
                left_totals * gini_left + right_totals * gini_right
            ) / node_sizes
            weighted[~valid] = np.inf
            pos = np.argmin(weighted, axis=2)
            score = np.take_along_axis(weighted, pos[:, :, None], axis=2)[
                :, :, 0
            ]
            slot = np.argmin(score, axis=1)
            chunk_index = np.arange(n_chunk)
            best_score[lo:hi] = score[chunk_index, slot]
            best_slot[lo:hi] = slot
            best_pos[lo:hi] = pos[chunk_index, slot]

        split_mask = np.isfinite(best_score)
        open_index = np.arange(n_open)
        split_feature = cand[open_index, best_slot]
        split_threshold = (
            global_min[split_feature] + best_pos + 0.5
            if n_features
            else np.zeros(n_open)
        )

        # Route on the ORIGINAL values, like the reference.
        in_split = split_mask[open_rank_of_row]
        split_rows = open_rows[in_split]
        split_weight = open_weight[in_split]
        split_rank = open_rank_of_row[in_split]
        go_left = (
            X[split_rows, split_feature[split_rank]]
            <= split_threshold[split_rank]
        )
        left_sizes = _weighted_count(
            split_rank[go_left], split_weight[go_left], n_open
        )
        right_sizes = _weighted_count(
            split_rank[~go_left], split_weight[~go_left], n_open
        )
        # The reference re-checks routed child sizes (they can differ
        # from the histogram totals only for non-integer features).
        ok = (
            split_mask
            & (left_sizes >= min_samples_leaf)
            & (right_sizes >= min_samples_leaf)
        )

        child_of = np.full(n_open, -1, dtype=np.int64)
        next_ids: List[int] = []
        next_keys: List[int] = []
        for j, o in enumerate(np.flatnonzero(ok)):
            rank = int(open_ranks[o])
            node_id = frontier_ids[rank]
            key = frontier_keys[rank]
            left_id = new_node()
            right_id = new_node()
            feature_of[node_id] = int(split_feature[o])
            threshold_of[node_id] = float(split_threshold[o])
            left_of[node_id] = left_id
            right_of[node_id] = right_id
            child_of[o] = j
            next_ids.extend((left_id, right_id))
            next_keys.extend((2 * key, 2 * key + 1))

        keep = ok[split_rank]
        rows = split_rows[keep]
        row_weight = split_weight[keep]
        row_node = 2 * child_of[split_rank[keep]] + np.where(
            go_left[keep], 0, 1
        )
        frontier_ids = next_ids
        frontier_keys = next_keys
        depth += 1

    # Renumber breadth-first creation ids into the reference's
    # DFS-preorder (node, left subtree, right subtree) — iteratively,
    # so degenerate chain-shaped trees cannot hit the recursion limit.
    n_nodes = len(feature_of)
    new_id = np.full(n_nodes, -1, dtype=np.int64)
    order: List[int] = []
    stack = [root]
    while stack:
        node_id = stack.pop()
        new_id[node_id] = len(order)
        order.append(node_id)
        if left_of[node_id] >= 0:
            stack.append(right_of[node_id])
            stack.append(left_of[node_id])
    records: List[NodeRecord] = []
    for node_id in order:
        left = left_of[node_id]
        right = right_of[node_id]
        counts = counts_of[node_id]
        assert counts is not None
        records.append(
            (
                feature_of[node_id],
                threshold_of[node_id],
                int(new_id[left]) if left >= 0 else -1,
                int(new_id[right]) if right >= 0 else -1,
                counts,
            )
        )
    return records


# ----------------------------------------------------------------------
# Fused multi-tree inference
# ----------------------------------------------------------------------
@dataclass
class PackedForest:
    """All estimators of a forest in one offset-indexed node table.

    ``feature/threshold/left/right`` concatenate the per-tree flattened
    arrays with child indices rebased to the global table; tree ``t``
    owns rows ``offsets[t]:offsets[t + 1]`` and its root is
    ``offsets[t]``.  ``leaf_proba`` holds each node's class
    distribution already aligned to the *forest's* class order (a
    bootstrap can miss a class entirely), ``leaf_vote`` each node's
    majority class index — so inference never touches per-tree class
    maps.  Built by :meth:`from_forest`; persisted via
    :mod:`repro.learning.persistence`.
    """

    classes_: np.ndarray
    n_estimators: int
    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_proba: np.ndarray
    leaf_vote: np.ndarray

    def __post_init__(self) -> None:
        # Descent-ready views: leaves become self-loops with a
        # never-taken split (threshold -inf routes right, back to the
        # leaf itself), so a step is unconditional — no per-level leaf
        # masking.
        n_nodes = len(self.feature)
        node_index = np.arange(n_nodes, dtype=np.int64)
        is_leaf = self.left < 0
        self._feature_d: np.ndarray = np.where(is_leaf, 0, self.feature)
        self._threshold_d: np.ndarray = np.where(
            is_leaf, -np.inf, self.threshold
        )
        # Descent runs in *edge space*: the state is ``s = 2*node`` and
        # one step is ``s = child_e.take(s + go_left)`` over tables
        # duplicated per branch — ``feature_e[2n] == feature_e[2n+1] ==
        # feature[n]`` and ``child_e[2n+g] == 2*child[n][g]`` (column 0
        # right, column 1 left, leaves self-looping).  Pre-doubling the
        # child entries removes the per-level ``2*node`` multiply, and
        # every gather is a flat ``np.take`` (several-fold faster than
        # two-array fancy indexing).
        self._feature_e: np.ndarray = np.repeat(self._feature_d, 2)
        self._threshold_e: np.ndarray = np.repeat(self._threshold_d, 2)
        child_e = np.empty(2 * n_nodes, dtype=np.int64)
        child_e[0::2] = 2 * np.where(is_leaf, node_index, self.right)
        child_e[1::2] = 2 * np.where(is_leaf, node_index, self.left)
        self._child_e: np.ndarray = child_e
        self._is_leaf_e: np.ndarray = np.repeat(is_leaf, 2)
        self._is_leaf: np.ndarray = is_leaf
        # Half-width compare tables for the exact float32 fast path:
        # when every threshold round-trips through float32 unchanged
        # AND the query matrix is narrow-integer (so its values are
        # float32-exact too), comparing in float32 gives bit-identical
        # branch decisions at half the memory traffic.
        threshold_e32 = self._threshold_e.astype(np.float32)
        self._threshold_e32: np.ndarray = threshold_e32
        self._exact32: bool = bool(
            np.all(threshold_e32.astype(np.float64) == self._threshold_e)
        )
        # Depth of the deepest tree bounds the descent's step count.
        # Children follow their parent in DFS preorder, so one reverse
        # pass resolves every subtree depth bottom-up.
        below = np.zeros(n_nodes, dtype=np.int64)
        left, right = self.left, self.right
        for node in range(n_nodes - 1, -1, -1):
            if left[node] >= 0:
                below[node] = 1 + max(below[left[node]], below[right[node]])
        roots = self.offsets[:-1]
        self._max_depth: int = (
            int(below[roots].max()) if len(roots) else 0
        )

    @classmethod
    def from_forest(cls, forest: object) -> "PackedForest":
        """Pack a fitted ``RandomForestClassifier``."""
        estimators = getattr(forest, "estimators_", [])
        classes = getattr(forest, "classes_", None)
        if not estimators or classes is None:
            raise ValueError("cannot pack an unfitted forest")
        n_classes = len(classes)
        offsets = np.zeros(len(estimators) + 1, dtype=np.int64)
        features: List[np.ndarray] = []
        thresholds: List[np.ndarray] = []
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        probas: List[np.ndarray] = []
        votes: List[np.ndarray] = []
        for t, tree in enumerate(estimators):
            n_nodes = tree.node_count
            offset = offsets[t]
            offsets[t + 1] = offset + n_nodes
            features.append(tree._feature.astype(np.int64))
            thresholds.append(tree._threshold.astype(np.float64))
            lefts.append(
                np.where(tree._left < 0, -1, tree._left + offset).astype(
                    np.int64
                )
            )
            rights.append(
                np.where(tree._right < 0, -1, tree._right + offset).astype(
                    np.int64
                )
            )
            counts = tree._counts
            # Exactly the reference's per-leaf normalization ...
            proba = counts / np.maximum(
                counts.sum(axis=1, keepdims=True), 1.0
            )
            # ... scattered into the forest's class order.
            columns = np.searchsorted(classes, tree.classes_)
            aligned = np.zeros((n_nodes, n_classes))
            aligned[:, columns] = proba
            probas.append(aligned)
            votes.append(columns[np.argmax(counts, axis=1)].astype(np.int64))
        return cls(
            classes_=np.asarray(classes),
            n_estimators=len(estimators),
            offsets=offsets,
            feature=np.concatenate(features),
            threshold=np.concatenate(thresholds),
            left=np.concatenate(lefts),
            right=np.concatenate(rights),
            leaf_proba=np.vstack(probas),
            leaf_vote=np.concatenate(votes),
        )

    @property
    def node_count(self) -> int:
        return len(self.feature)

    # ------------------------------------------------------------------
    #: levels stepped between two compaction passes — small enough that
    #: pathological chain-shaped trees shed finished lanes quickly, big
    #: enough that bookkeeping amortizes away on balanced trees
    _COMPACT_EVERY = 8

    def descend(self, X: np.ndarray) -> np.ndarray:
        """Leaf node per ``(tree, sample)`` lane, one fused descent.

        All ``n_samples * n_trees`` lanes step level-synchronously.
        Leaves self-loop (see ``__post_init__``), so the inner loop is
        four array ops per level with no leaf masking; every
        ``_COMPACT_EVERY`` levels finished lanes are compacted out, so
        degenerate deep trees don't drag every lane to their depth.
        """
        X = np.asarray(X)
        n_samples = len(X)
        n_features = X.shape[1] if X.ndim == 2 else 0
        # float32 compares are bit-identical to the float64 reference
        # when both sides are float32-exact: narrow-integer queries
        # (every int8/int16 value is exact) against round-trip-checked
        # thresholds.  Wider or float queries take the float64 tables.
        if self._exact32 and X.dtype.kind in "iu" and X.dtype.itemsize <= 2:
            values = X.astype(np.float32).ravel()
            threshold = self._threshold_e32
        else:
            values = (
                X if X.dtype == np.float64 else X.astype(np.float64)
            ).ravel()
            threshold = self._threshold_e
        s = np.repeat(2 * self.offsets[:-1], n_samples)
        # lanes are tree-major, so each lane's row offset into the
        # flattened sample matrix tiles across trees
        row_base = np.tile(
            np.arange(n_samples) * n_features, self.n_estimators
        )
        obs.metrics().inc(M_PACKED_LANES, n_samples * self.n_estimators)
        feature, child = self._feature_e, self._child_e
        out = s.copy()
        lane = np.arange(len(s))
        remaining = self._max_depth
        while remaining > 0 and s.size:
            for _ in range(min(remaining, self._COMPACT_EVERY)):
                go_left = values.take(
                    row_base + feature.take(s)
                ) <= threshold.take(s)
                s = child.take(s + go_left)
            remaining -= self._COMPACT_EVERY
            if remaining > 0:
                done = self._is_leaf_e.take(s)
                out[lane[done]] = s[done]
                keep = ~done
                s = s[keep]
                row_base = row_base[keep]
                lane = lane[keep]
        out[lane] = s
        return (out >> 1).reshape(self.n_estimators, n_samples)

    def _proba_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        # One gather for all trees; summing the tree axis of the
        # (trees, samples, classes) stack adds trees in index order,
        # exactly like the per-tree reference loop (bit-for-bit).
        stacked = self.leaf_proba.take(leaves, axis=0)
        return stacked.sum(axis=0) / self.n_estimators

    def _dispersion_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        n_samples = leaves.shape[1]
        n_classes = len(self.classes_)
        votes = self.leaf_vote.take(leaves)
        tally = np.bincount(
            (np.arange(n_samples)[None, :] * n_classes + votes).ravel(),
            minlength=n_samples * n_classes,
        ).reshape(n_samples, n_classes)
        return 1.0 - tally.max(axis=1) / self.n_estimators

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote class probabilities, fused across all trees."""
        return self._proba_from_leaves(self.descend(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def vote_dispersion(self, X: np.ndarray) -> np.ndarray:
        """Per-sample tree disagreement in ``[0, 1 - 1/n_trees]``.

        ``0`` means every tree voted the same class; higher values mean
        the forest is uncertain — the routing signal for the
        uncertainty-gated hybrid flow.
        """
        return self._dispersion_from_leaves(self.descend(X))

    def predict_with_dispersion(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(predicted labels, vote dispersion) from one shared descent."""
        leaves = self.descend(X)
        proba = self._proba_from_leaves(leaves)
        labels = self.classes_[np.argmax(proba, axis=1)]
        return labels, self._dispersion_from_leaves(leaves)
