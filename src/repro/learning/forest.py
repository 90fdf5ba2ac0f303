"""Random Forest classifier (the paper's chosen algorithm, Section II.B).

"A Random Forest Classifier is composed of several Decision Tree
Classifiers ... the Forest averages the responses of all Trees and outputs
the class of the data sample."  Each tree is fitted on a bootstrap sample
with a random feature subset considered per split.

The bootstrap sample is never materialized.  ``fit`` collapses
``(X, y)`` once to its unique rows, and each tree's draw becomes integer
multiplicities per unique row (``np.bincount(inverse[index])``).  A tree
grown on weighted unique rows is node-for-node the tree grown on the
resample, so the forest is byte-identical to one fitted on ``X[index]``
copies, at a fraction of the rows (CA-matrix groups are about two-thirds
duplicates before the bootstrap duplicates them again).

``parallelism`` fans tree fitting across a process pool.  Per-tree seeds
and bootstrap draws come from the forest generator in exactly the serial
order, the pool initializer receives the unique rows once, and a fitted
tree is a pure function of ``(seed, multiplicities)``, so a parallel fit
is byte-identical to a serial one.

Inference runs through the fused :class:`~repro.learning.engine.PackedForest`:
one level-synchronous descent over every ``(sample, tree)`` lane.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.learning.engine import (
    M_FIT_ROWS,
    M_FIT_SECONDS,
    M_FIT_UNIQUE_ROWS,
    PackedForest,
)
from repro.learning.tree import DecisionTreeClassifier

#: per-worker fit context installed by the pool initializer, so tree
#: payloads stay small (seed + multiplicities, not the matrix)
_FIT_X: Optional[np.ndarray] = None
_FIT_Y: Optional[np.ndarray] = None
_FIT_PARAMS: Optional[Dict[str, object]] = None


def _fit_pool_init(
    X: np.ndarray, y: np.ndarray, params: Dict[str, object]
) -> None:
    global _FIT_X, _FIT_Y, _FIT_PARAMS
    _FIT_X = X
    _FIT_Y = y
    _FIT_PARAMS = params


def _fit_tree_worker(
    task: Tuple[int, np.ndarray]
) -> DecisionTreeClassifier:
    """Fit one tree on the unique rows with its pre-drawn weights and seed."""
    seed, weights = task
    assert _FIT_X is not None and _FIT_Y is not None
    assert _FIT_PARAMS is not None
    tree = DecisionTreeClassifier(random_state=seed, **_FIT_PARAMS)
    return tree.fit(_FIT_X, _FIT_Y, sample_weight=weights)


def _unique_rows(X: np.ndarray, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct ``(X row, label code)`` pairs.

    Rows are keyed on their exact bytes in ``X``'s own dtype (no upcast
    copy), so only rows with identical values merge.
    """
    n = len(X)
    row_bytes = X.dtype.itemsize * X.shape[1]
    key = np.empty((n, row_bytes + 8), dtype=np.uint8)
    key[:, :row_bytes] = np.ascontiguousarray(X).view(np.uint8).reshape(n, row_bytes)
    key[:, row_bytes:] = codes.astype(np.int64).view(np.uint8).reshape(n, 8)
    rows = key.view(np.dtype((np.void, key.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


class RandomForestClassifier:
    """Bootstrap-aggregated CART ensemble with soft voting."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: object = "sqrt",
        bootstrap: bool = True,
        max_samples: Optional[float] = None,
        random_state: Optional[int] = None,
        parallelism: Optional[int] = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_samples = max_samples
        self.random_state = random_state
        self.parallelism = parallelism
        self.estimators_: List[DecisionTreeClassifier] = []
        self.classes_: Optional[np.ndarray] = None
        self._packed: Optional[PackedForest] = None

    def _tree_params(self) -> Dict[str, object]:
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        started = time.perf_counter()
        rng = np.random.default_rng(self.random_state)
        self.classes_, codes = np.unique(y, return_inverse=True)
        first, inverse = _unique_rows(X, codes)
        X_unique, y_unique = X[first], y[first]
        n, n_unique = len(y), len(first)
        metrics = obs.metrics()
        metrics.inc(M_FIT_ROWS, n)
        metrics.inc(M_FIT_UNIQUE_ROWS, n_unique)
        self.estimators_ = []
        self._packed = None
        sample_size = n
        if self.max_samples is not None:
            sample_size = max(1, int(self.max_samples * n))

        def draws() -> Iterator[Tuple[int, np.ndarray]]:
            # Seeds and bootstrap indices are drawn in the exact serial
            # order regardless of how the fitting itself is scheduled.
            for _ in range(self.n_estimators):
                seed = int(rng.integers(0, 2**31 - 1))
                if self.bootstrap:
                    index = rng.integers(0, n, size=sample_size)
                    yield seed, np.bincount(inverse[index], minlength=n_unique)
                else:
                    yield seed, np.bincount(inverse, minlength=n_unique)

        workers = self.parallelism
        if workers is not None and workers > 1 and self.n_estimators > 1:
            with multiprocessing.Pool(
                processes=min(workers, self.n_estimators),
                initializer=_fit_pool_init,
                initargs=(X_unique, y_unique, self._tree_params()),
            ) as pool:
                # map() preserves task order, so estimator order (and
                # therefore every prediction) matches the serial path.
                self.estimators_ = pool.map(_fit_tree_worker, draws())
        else:
            for seed, weights in draws():
                tree = DecisionTreeClassifier(
                    random_state=seed, **self._tree_params()
                )
                self.estimators_.append(
                    tree.fit(X_unique, y_unique, sample_weight=weights)
                )
        metrics.observe(M_FIT_SECONDS, time.perf_counter() - started)
        return self

    # ------------------------------------------------------------------
    def packed_forest(self) -> PackedForest:
        """The fused inference structure (built lazily, cached per fit)."""
        if not self.estimators_:
            raise RuntimeError("classifier is not fitted")
        if self._packed is None:
            self._packed = PackedForest.from_forest(self)
        return self._packed

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.packed_forest().predict_proba(np.asarray(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]

    def vote_dispersion(self, X: np.ndarray) -> np.ndarray:
        """Per-sample tree disagreement (0 = unanimous) — the
        confidence signal for uncertainty-gated routing."""
        return self.packed_forest().vote_dispersion(np.asarray(X))

    def predict_with_dispersion(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(labels, vote dispersion) from one fused descent."""
        return self.packed_forest().predict_with_dispersion(np.asarray(X))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy, scikit-learn style."""
        return float((self.predict(X) == np.asarray(y)).mean())
