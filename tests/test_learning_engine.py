"""Differential tests: frontier-batched forest engine vs the references.

Four contracts, each against its oracle in ``tests/learning_oracle.py``:

* Trees grown by ``grow_frontier`` are **node-for-node identical** to
  the recursive reference -- same features, thresholds, child links,
  class counts and DFS-preorder numbering -- on synthetic corpora, real
  CA-matrix data, and Hypothesis-generated random integer datasets.
* A tree grown on unique rows with integer multiplicities, and so every
  forest tree grown on bootstrap weights, is identical to the reference
  grown on the materialized resample ``X[index]``.
* ``PackedForest`` inference is bit-for-bit equal to the per-tree loop.
* Parallel fits are byte-identical to serial fits (same serialized
  forest), and parallel grid search ranks candidates identically.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camodel import generate_ca_model
from repro.learning import (
    PackedForest,
    RandomForestClassifier,
    build_samples,
    grid_search,
    stack_group,
)
from repro.learning.engine import candidate_features, grow_frontier
from repro.learning.persistence import (
    forest_to_dict,
    load_packed_forest,
    packed_forest_from_dict,
    packed_forest_to_dict,
    save_packed_forest,
)
from repro.learning.tree import DecisionTreeClassifier
from repro.library import SOI28, build_cell

from learning_oracle import (
    RecursiveTree,
    bootstrap_draws,
    loop_predict_proba,
    materialized_forest,
)


def _assert_trees_identical(a, b):
    """Every observable of two fitted trees must match exactly."""
    assert a.node_count == b.node_count
    assert np.array_equal(a._feature, b._feature)
    assert np.array_equal(a._threshold, b._threshold)
    assert np.array_equal(a._left, b._left)
    assert np.array_equal(a._right, b._right)
    assert np.array_equal(a._counts, b._counts)
    assert np.array_equal(a.classes_, b.classes_)


def _fit_both(X, y, **params):
    a = RecursiveTree(**params).fit(X, y)
    b = DecisionTreeClassifier(**params).fit(X, y)
    return a, b


def _random_dataset(seed, n=300, n_features=8, n_values=5, n_classes=3):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n, n_features)).astype(np.int8)
    y = rng.integers(0, n_classes, size=n)
    return X, y


class TestFrontierEqualsRecursive:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "max_features", [None, "sqrt", "log2", 0.5, 2], ids=str
    )
    def test_random_integer_data(self, seed, max_features):
        X, y = _random_dataset(seed)
        a, b = _fit_both(
            X, y, max_features=max_features, random_state=seed
        )
        _assert_trees_identical(a, b)

    @pytest.mark.parametrize("max_depth", [None, 1, 3])
    @pytest.mark.parametrize("min_samples_leaf", [1, 5, 40])
    def test_depth_and_leaf_constraints(self, max_depth, min_samples_leaf):
        X, y = _random_dataset(11, n=200)
        a, b = _fit_both(
            X,
            y,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=0.5,
            random_state=7,
        )
        _assert_trees_identical(a, b)

    def test_min_samples_split(self):
        X, y = _random_dataset(12, n=120)
        a, b = _fit_both(X, y, min_samples_split=30, random_state=0)
        _assert_trees_identical(a, b)

    def test_negative_and_shifted_features(self):
        rng = np.random.default_rng(4)
        X = rng.integers(-3, 9, size=(150, 5)).astype(np.int64)
        y = rng.integers(0, 2, size=150)
        a, b = _fit_both(X, y, max_features=0.5, random_state=4)
        _assert_trees_identical(a, b)

    def test_single_class(self):
        X = np.zeros((20, 3), dtype=np.int8)
        y = np.ones(20, dtype=int)
        a, b = _fit_both(X, y, random_state=0)
        _assert_trees_identical(a, b)
        assert a.node_count == 1

    def test_constant_features(self):
        X = np.full((40, 4), 7, dtype=np.int8)
        y = np.arange(40) % 2
        a, b = _fit_both(X, y, random_state=0)
        _assert_trees_identical(a, b)
        assert a.node_count == 1  # nothing to split on

    def test_single_column(self):
        X, y = _random_dataset(5, n_features=1)
        a, b = _fit_both(X, y, random_state=5)
        _assert_trees_identical(a, b)

    def test_binary_features(self):
        X, y = _random_dataset(6, n_values=2)
        a, b = _fit_both(X, y, max_features="sqrt", random_state=6)
        _assert_trees_identical(a, b)

    def test_tiny_dataset(self):
        X = np.array([[0], [1]], dtype=np.int8)
        y = np.array([0, 1])
        a, b = _fit_both(X, y, random_state=0)
        _assert_trees_identical(a, b)
        assert a.node_count == 3

    def test_real_ca_matrix_rows(self):
        cell = build_cell(SOI28, "AOI21", 1)
        model = generate_ca_model(cell, params=SOI28.electrical)
        sample = build_samples([(cell, model)])[0]
        X = sample.matrix.features
        y = sample.matrix.labels
        for mf in (None, 0.5, "sqrt"):
            a, b = _fit_both(X, y, max_features=mf, random_state=1)
            _assert_trees_identical(a, b)
            assert (a.predict(X) == b.predict(X)).all()

    def test_forest_engines_identical(self):
        X, y = _random_dataset(13)
        a = materialized_forest(
            X, y, n_estimators=5, max_features=0.5, random_state=2
        )
        b = RandomForestClassifier(
            n_estimators=5, max_features=0.5, random_state=2
        ).fit(X, y)
        assert forest_to_dict(a) == forest_to_dict(b)

    def test_unknown_engine_rejected(self):
        # One growth path: the engine knob is gone from the public API.
        with pytest.raises(TypeError):
            DecisionTreeClassifier(engine="recursive")
        with pytest.raises(TypeError):
            RandomForestClassifier(engine="recursive")

    def test_min_samples_leaf_validated(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 120),
        n_features=st.integers(1, 10),
        n_values=st.integers(1, 9),
        n_classes=st.integers(1, 4),
        max_features=st.sampled_from([None, "sqrt", 0.5, 1]),
        min_samples_leaf=st.integers(1, 8),
    )
    def test_property_identical_on_random_data(
        self, seed, n, n_features, n_values, n_classes, max_features,
        min_samples_leaf,
    ):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, n_values, size=(n, n_features)).astype(np.int16)
        y = rng.integers(0, n_classes, size=n)
        a, b = _fit_both(
            X,
            y,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            random_state=seed,
        )
        _assert_trees_identical(a, b)


def _assert_forests_identical(weighted, oracle):
    assert len(weighted.estimators_) == len(oracle.estimators_)
    for a, b in zip(weighted.estimators_, oracle.estimators_):
        _assert_trees_identical(a, b)
    assert forest_to_dict(weighted) == forest_to_dict(oracle)


def _duplicated_dataset(seed, n=240, n_features=6, n_values=4, n_classes=3):
    """Random rows with about half of them exact repeats, like CA groups."""
    X, y = _random_dataset(seed, n, n_features, n_values, n_classes)
    rng = np.random.default_rng(seed + 1000)
    copies = rng.integers(0, n // 2, size=n - n // 2)
    X[n // 2:], y[n // 2:] = X[copies], y[copies]
    return X, y


class TestWeightedFitEqualsMaterialized:
    """Trees grown on unique rows with multiplicities vs ``X[index]``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "options",
        [{}, {"bootstrap": False}, {"max_samples": 0.4}],
        ids=["bootstrap", "no_bootstrap", "max_samples"],
    )
    def test_forest_bootstrap_modes(self, seed, options):
        X, y = _duplicated_dataset(seed)
        params = dict(
            n_estimators=5, max_features=0.5, random_state=seed, **options
        )
        _assert_forests_identical(
            RandomForestClassifier(**params).fit(X, y),
            materialized_forest(X, y, **params),
        )

    @pytest.mark.parametrize("max_depth", [None, 2])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3, 12])
    def test_forest_depth_and_leaf(self, max_depth, min_samples_leaf):
        X, y = _duplicated_dataset(31)
        params = dict(
            n_estimators=4,
            max_features=0.5,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            random_state=3,
        )
        _assert_forests_identical(
            RandomForestClassifier(**params).fit(X, y),
            materialized_forest(X, y, **params),
        )

    @pytest.mark.parametrize("min_samples_split", [2, 5, 25])
    @pytest.mark.parametrize("min_samples_leaf", [1, 4])
    def test_tree_weights_equal_resample(
        self, min_samples_split, min_samples_leaf
    ):
        X, y = _duplicated_dataset(32)
        index = np.random.default_rng(5).integers(0, len(y), size=len(y))
        unique, inverse = np.unique(
            np.column_stack([X, y]), axis=0, return_inverse=True
        )
        weights = np.bincount(inverse.ravel()[index], minlength=len(unique))
        params = dict(
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_depth=6,
            max_features=0.5,
            random_state=8,
        )
        weighted = DecisionTreeClassifier(**params).fit(
            unique[:, :-1].astype(X.dtype), unique[:, -1], sample_weight=weights
        )
        _assert_trees_identical(
            weighted, RecursiveTree(**params).fit(X[index], y[index])
        )

    def test_draw_missing_a_class(self):
        # Three rare classes: small draws routinely miss some, and the
        # weighted tree must drop their zero-weight rows to agree on
        # classes_ (and so on the packed alignment).
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(30, 5)).astype(np.int8)
        y = np.concatenate([np.zeros(27, dtype=int), np.array([1, 2, 3])])
        params = dict(n_estimators=12, random_state=0, max_samples=0.2)
        weighted = RandomForestClassifier(**params).fit(X, y)
        assert any(len(t.classes_) < 4 for t in weighted.estimators_)
        _assert_forests_identical(weighted, materialized_forest(X, y, **params))

    def test_float_features_with_fractions(self):
        # Histograms bin on truncated integers but routing compares the
        # raw values, so distinct floats must stay distinct rows.
        rng = np.random.default_rng(9)
        X = np.round(rng.normal(scale=2.0, size=(160, 5)), 1)
        X[80:] = X[rng.integers(0, 80, size=80)]
        X[:, 2] = np.where(X[:, 2] > 0, 0.25, 0.75)
        y = (X[:, 0] + X[:, 2] > 0.5).astype(int)
        y[::7] = 2
        params = dict(n_estimators=6, max_features=0.6, random_state=4)
        _assert_forests_identical(
            RandomForestClassifier(**params).fit(X, y),
            materialized_forest(X, y, **params),
        )

    def test_real_ca_matrix_group(self):
        # One hybrid-flow training group: NAND2 in every flavor.
        cells = [
            build_cell(SOI28, "NAND2", 1, flavor) for flavor in SOI28.flavors
        ]
        X, y = stack_group(
            build_samples(
                [
                    (c, generate_ca_model(c, params=SOI28.electrical))
                    for c in cells
                ],
                SOI28.electrical,
            )
        )
        assert len(np.unique(np.column_stack([X, y]), axis=0)) < len(y)
        params = dict(n_estimators=4, max_features=0.5, random_state=1)
        _assert_forests_identical(
            RandomForestClassifier(**params).fit(X, y),
            materialized_forest(X, y, **params),
        )

    def test_parallel_weighted_fit_matches_oracle(self):
        X, y = _duplicated_dataset(33)
        params = dict(n_estimators=5, max_features=0.5, random_state=6)
        serial = RandomForestClassifier(**params).fit(X, y)
        pooled = RandomForestClassifier(parallelism=2, **params).fit(X, y)
        oracle = materialized_forest(X, y, **params)
        _assert_forests_identical(serial, oracle)
        _assert_forests_identical(pooled, oracle)
        assert json.dumps(forest_to_dict(serial)) == json.dumps(
            forest_to_dict(pooled)
        )

    def test_fit_counts_rows_and_unique_rows(self):
        from repro import obs
        from repro.learning.engine import M_FIT_ROWS, M_FIT_UNIQUE_ROWS

        X, y = _duplicated_dataset(34)
        n_unique = len(np.unique(np.column_stack([X, y]), axis=0))
        before = obs.metrics().checkpoint()
        RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        delta = obs.metrics().counter_delta(before)
        assert delta[M_FIT_ROWS] == len(y)
        assert delta[M_FIT_UNIQUE_ROWS] == n_unique

    def test_sample_weight_validated(self):
        X, y = _random_dataset(35, n=10)
        tree = DecisionTreeClassifier()
        with pytest.raises(ValueError):
            tree.fit(X, y, sample_weight=np.ones(9, dtype=int))
        with pytest.raises(ValueError):
            tree.fit(X, y, sample_weight=np.full(10, 0.5))
        with pytest.raises(ValueError):
            tree.fit(X, y, sample_weight=-np.ones(10, dtype=int))
        with pytest.raises(ValueError):
            tree.fit(X, y, sample_weight=np.zeros(10, dtype=int))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 120),
        n_features=st.integers(1, 8),
        n_values=st.integers(1, 6),
        n_classes=st.integers(1, 4),
        max_features=st.sampled_from([None, "sqrt", 0.5]),
        min_samples_leaf=st.integers(1, 6),
        bootstrap=st.booleans(),
        max_samples=st.sampled_from([None, 0.3, 0.8]),
    )
    def test_property_weighted_equals_materialized(
        self, seed, n, n_features, n_values, n_classes, max_features,
        min_samples_leaf, bootstrap, max_samples,
    ):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, n_values, size=(n, n_features)).astype(np.int16)
        y = rng.integers(0, n_classes, size=n)
        params = dict(
            n_estimators=3,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            bootstrap=bootstrap,
            max_samples=max_samples,
            random_state=seed % 1000,
        )
        _assert_forests_identical(
            RandomForestClassifier(**params).fit(X, y),
            materialized_forest(X, y, **params),
        )


class TestCandidateFeatures:
    def test_traversal_order_independent(self):
        # Same (seed, path) always draws the same subset — the property
        # both engines' equivalence rests on.
        a = candidate_features(123, 5, 20, 4)
        b = candidate_features(123, 5, 20, 4)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 4

    def test_all_features_shortcut(self):
        assert np.array_equal(
            candidate_features(1, 1, 5, 5), np.arange(5)
        )
        assert np.array_equal(
            candidate_features(1, 1, 5, 9), np.arange(5)
        )

    def test_grow_frontier_records_are_dfs_preorder(self):
        X, y = _random_dataset(3, n=80)
        records = grow_frontier(
            X,
            y.astype(np.int64),
            3,
            max_depth=None,
            min_samples_split=2,
            min_samples_leaf=1,
            n_candidates=X.shape[1],
            base_seed=99,
            weights=np.ones(len(y), dtype=np.int64),
        )
        # Preorder: both children of node i come after i, left first.
        for i, (_, _, left, right, _) in enumerate(records):
            if left >= 0:
                assert left == i + 1
                assert right > left


class TestPackedForest:
    def _forest(self, seed=0, **kw):
        X, y = _random_dataset(seed, n=400)
        kw.setdefault("n_estimators", 6)
        kw.setdefault("max_features", 0.5)
        forest = RandomForestClassifier(random_state=seed, **kw).fit(X, y)
        return forest, X

    def test_packed_equals_loop_bitwise(self):
        forest, X = self._forest()
        loop = loop_predict_proba(forest, X)
        fused = forest.predict_proba(X)
        assert np.array_equal(loop, fused)

    def test_packed_predict_equals_loop_predict(self):
        forest, X = self._forest(seed=1)
        assert (
            forest.predict(X)
            == forest.classes_[
                np.argmax(loop_predict_proba(forest, X), axis=1)
            ]
        ).all()

    def test_missing_class_in_bootstrap(self):
        # Tiny bootstraps routinely miss a class; the packed alignment
        # must scatter per-tree probabilities into the forest's order.
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(30, 5)).astype(np.int8)
        y = np.concatenate([np.zeros(27, dtype=int), np.array([1, 2, 3])])
        forest = RandomForestClassifier(
            n_estimators=12, random_state=0, max_samples=0.2
        ).fit(X, y)
        assert np.array_equal(
            loop_predict_proba(forest, X), forest.predict_proba(X)
        )

    def test_dispersion_bounds_and_unanimity(self):
        forest, X = self._forest(seed=2)
        dispersion = forest.vote_dispersion(X)
        n = forest.n_estimators
        assert (dispersion >= 0).all()
        assert (dispersion <= 1 - 1 / n + 1e-12).all()
        # On its own noise-free training set the forest is mostly sure;
        # unanimous rows must score exactly zero.
        packed = forest.packed_forest()
        votes = packed.leaf_vote[packed.descend(X)]
        unanimous = (votes == votes[0]).all(axis=0)
        assert np.array_equal(dispersion == 0.0, unanimous)

    def test_predict_with_dispersion_matches_separate_calls(self):
        forest, X = self._forest(seed=3)
        labels, dispersion = forest.predict_with_dispersion(X)
        assert (labels == forest.predict(X)).all()
        assert np.array_equal(dispersion, forest.vote_dispersion(X))

    def test_packed_cache_invalidated_on_refit(self):
        forest, X = self._forest(seed=4)
        first = forest.packed_forest()
        assert forest.packed_forest() is first  # cached
        X2, y2 = _random_dataset(5, n=100)
        forest.fit(X2, y2)
        assert forest.packed_forest() is not first

    def test_pack_unfitted_rejected(self):
        with pytest.raises(ValueError):
            PackedForest.from_forest(RandomForestClassifier())
        with pytest.raises(RuntimeError):
            RandomForestClassifier().packed_forest()

    def test_offsets_partition_node_table(self):
        forest, _ = self._forest(seed=6)
        packed = forest.packed_forest()
        sizes = np.diff(packed.offsets)
        assert sizes.tolist() == [
            t.node_count for t in forest.estimators_
        ]
        assert packed.offsets[-1] == packed.node_count

    def test_persistence_round_trip(self, tmp_path):
        forest, X = self._forest(seed=7)
        packed = forest.packed_forest()
        path = save_packed_forest(packed, tmp_path / "packed.json")
        loaded = load_packed_forest(path)
        assert np.array_equal(loaded.classes_, packed.classes_)
        assert np.array_equal(
            loaded.predict_proba(X), packed.predict_proba(X)
        )
        assert np.array_equal(
            loaded.vote_dispersion(X), packed.vote_dispersion(X)
        )
        # dict round trip preserves every field exactly
        again = packed_forest_from_dict(packed_forest_to_dict(packed))
        assert np.array_equal(again.leaf_proba, packed.leaf_proba)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError):
            packed_forest_from_dict({"kind": "nope"})
        forest, _ = self._forest(seed=8)
        payload = packed_forest_to_dict(forest.packed_forest())
        payload["format"] = 999
        with pytest.raises(ValueError):
            packed_forest_from_dict(payload)


class TestParallelFit:
    def test_parallel_fit_byte_identical(self):
        X, y = _random_dataset(20, n=250)
        serial = RandomForestClassifier(
            n_estimators=6, max_features=0.5, random_state=5
        ).fit(X, y)
        pooled = RandomForestClassifier(
            n_estimators=6, max_features=0.5, random_state=5, parallelism=3
        ).fit(X, y)
        assert forest_to_dict(serial) == forest_to_dict(pooled)
        assert np.array_equal(
            serial.predict_proba(X), pooled.predict_proba(X)
        )

    def test_parallelism_one_stays_serial(self):
        X, y = _random_dataset(21, n=100)
        a = RandomForestClassifier(
            n_estimators=3, random_state=1, parallelism=1
        ).fit(X, y)
        b = RandomForestClassifier(n_estimators=3, random_state=1).fit(X, y)
        assert forest_to_dict(a) == forest_to_dict(b)

    def test_no_bootstrap_parallel(self):
        X, y = _random_dataset(22, n=100)
        a = RandomForestClassifier(
            n_estimators=4, random_state=2, bootstrap=False
        ).fit(X, y)
        b = RandomForestClassifier(
            n_estimators=4, random_state=2, bootstrap=False, parallelism=2
        ).fit(X, y)
        assert forest_to_dict(a) == forest_to_dict(b)


class TestParallelGridSearch:
    def _samples(self):
        cells = [
            build_cell(SOI28, "NAND2", 1),
            build_cell(SOI28, "NOR2", 1),
            build_cell(SOI28, "NAND2", 2),
        ]
        return build_samples(
            [
                (c, generate_ca_model(c, params=SOI28.electrical))
                for c in cells
            ],
            params=SOI28.electrical,
        )

    def test_parallel_ranking_identical(self):
        samples = self._samples()
        grid = {"n_estimators": [2, 4], "max_features": [0.5, None]}
        serial = grid_search(samples, grid, seed=3)
        pooled = grid_search(samples, grid, seed=3, parallelism=2)
        assert serial.ranking == pooled.ranking
        assert serial.best_params == pooled.best_params
