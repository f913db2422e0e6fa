"""Equivalence suite for the flat-array vectorized inference engine.

Every assertion here is *bit-identical* (``np.array_equal``), not
approximate: the engine's contract is that vectorized level-synchronous
descent reproduces the per-row reference traversal float-for-float, and
that a parallel forest fit reproduces the serial fit exactly under the
same master seed.
"""

import copy

import numpy as np
import pytest

from repro.ml.flat import (
    DESCENT_CHUNK_ROWS,
    LEAF,
    FlatEnsemble,
    precompile,
    reference_apply,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import (
    CatBoostClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
    _Binner,
)
from repro.ml.knn import KNeighborsClassifier
from repro.ml.tree import DecisionTreeClassifier, apply_per_row


def _make_problem(seed, n=200, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0).astype(int)
    return X, y


def _seed_forest_proba(forest, X):
    """The seed path: per-row traversal per tree, sequential accumulation."""
    probabilities = np.zeros((len(X), 2))
    for tree in forest.trees_:
        probabilities += tree.value_[apply_per_row(tree, X)]
    return probabilities / len(forest.trees_)


class TestTreeEquivalence:
    @pytest.mark.parametrize("max_depth", [None, 1, 2, 4])
    def test_apply_matches_per_row_reference(self, max_depth):
        X, y = _make_problem(1)
        tree = DecisionTreeClassifier(max_depth=max_depth, random_state=0)
        tree.fit(X, y)
        assert np.array_equal(tree.apply(X), apply_per_row(tree, X))

    def test_apply_on_unseen_data(self):
        X, y = _make_problem(2)
        probe = np.random.default_rng(3).normal(size=(57, X.shape[1]))
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert np.array_equal(tree.apply(probe), apply_per_row(tree, probe))

    def test_apply_on_input_narrower_than_fitted_width_rejected(self):
        X, y = _make_problem(7)
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="fitted on 6"):
            tree.apply(X[:, :5])

    def test_single_node_tree_root_is_leaf(self):
        tree = DecisionTreeClassifier().fit(np.eye(4), [1, 1, 1, 1])
        assert tree.node_count == 1
        assert np.array_equal(tree.apply(np.eye(4)), np.zeros(4, dtype=np.int64))
        assert tree.max_depth_reached == 0
        assert np.array_equal(tree.feature_importances_, np.zeros(4))

    def test_predict_proba_matches_value_lookup(self):
        X, y = _make_problem(4)
        tree = DecisionTreeClassifier(max_depth=3, random_state=1).fit(X, y)
        assert np.array_equal(
            tree.predict_proba(X), tree.value_[apply_per_row(tree, X)]
        )

    def test_max_depth_reached_matches_per_node_reference(self):
        X, y = _make_problem(5)
        tree = DecisionTreeClassifier(random_state=2).fit(X, y)
        depths = np.zeros(tree.node_count, dtype=int)
        for node in range(tree.node_count):
            for child in (tree.children_left_[node], tree.children_right_[node]):
                if child != LEAF:
                    depths[child] = depths[node] + 1
        assert tree.max_depth_reached == depths.max()

    def test_feature_importances_match_per_node_reference(self):
        X, y = _make_problem(6)
        tree = DecisionTreeClassifier(max_depth=5, random_state=3).fit(X, y)
        reference = np.zeros(tree.n_features_)
        total = tree.n_node_samples_[0]

        def gini(index):
            p = tree.value_[index, 1]
            return 1.0 - p * p - (1.0 - p) ** 2

        for node in range(tree.node_count):
            if tree.children_left_[node] == LEAF:
                continue
            left, right = tree.children_left_[node], tree.children_right_[node]
            decrease = (
                tree.n_node_samples_[node] * gini(node)
                - tree.n_node_samples_[left] * gini(left)
                - tree.n_node_samples_[right] * gini(right)
            )
            reference[tree.feature_[node]] += decrease / total
        if reference.sum() > 0:
            reference /= reference.sum()
        assert np.array_equal(tree.feature_importances_, reference)


class TestForestEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_predict_proba_bit_identical_to_seed_path(self, seed):
        X, y = _make_problem(seed)
        forest = RandomForestClassifier(n_estimators=15, random_state=seed)
        forest.fit(X, y)
        assert np.array_equal(forest.predict_proba(X), _seed_forest_proba(forest, X))

    def test_depth_bounded_forest(self):
        X, y = _make_problem(8)
        forest = RandomForestClassifier(
            n_estimators=9, max_depth=2, random_state=1
        ).fit(X, y)
        assert np.array_equal(forest.predict_proba(X), _seed_forest_proba(forest, X))

    def test_forest_with_single_node_trees(self):
        # Pure labels: every tree is a root-leaf stump.
        X = np.random.default_rng(0).normal(size=(30, 3))
        forest = RandomForestClassifier(n_estimators=5, random_state=0)
        forest.fit(X, np.ones(30, dtype=int))
        proba = forest.predict_proba(X)
        assert np.array_equal(proba, np.tile([0.0, 1.0], (30, 1)))
        assert forest.compile_flat().node_count == 5

    def test_not_fitted_raised_before_array_work(self):
        # A NaN matrix would raise ValueError inside check_array; the
        # not-fitted RuntimeError must win because it fires first.
        forest = RandomForestClassifier()
        with pytest.raises(RuntimeError, match="not fitted"):
            forest.predict_proba(np.full((3, 2), np.nan))

    def test_flat_ensemble_offsets_and_roots(self):
        X, y = _make_problem(9)
        forest = RandomForestClassifier(n_estimators=4, random_state=2).fit(X, y)
        flat = forest.compile_flat()
        assert flat.n_trees == 4
        counts = [tree.node_count for tree in forest.trees_]
        assert np.array_equal(np.diff(flat.offsets), counts)
        assert flat.node_count == sum(counts)
        # Root of tree i is the first node of its block.
        assert np.array_equal(flat.roots, flat.offsets[:-1])

    def test_tree_view_preserves_treeshap_contract(self):
        X, y = _make_problem(10)
        forest = RandomForestClassifier(n_estimators=3, random_state=5).fit(X, y)
        flat = forest.compile_flat()
        for index, tree in enumerate(forest.trees_):
            view = flat.tree_view(index)
            assert np.array_equal(view.children_left_, tree.children_left_)
            assert np.array_equal(view.children_right_, tree.children_right_)
            assert np.array_equal(view.feature_, tree.feature_)
            assert np.array_equal(view.threshold_, tree.threshold_)
            assert np.array_equal(view.value_, tree.value_)
            assert np.array_equal(view.n_node_samples_, tree.n_node_samples_)
            assert view.n_features_ == tree.n_features_

    def test_treeshap_local_accuracy_through_flat_views(self):
        from repro.analysis.shap_values import _tree_shap_single

        X, y = _make_problem(11, n=80, d=4)
        forest = RandomForestClassifier(n_estimators=3, random_state=1).fit(X, y)
        flat = forest.compile_flat()
        x = X[0]
        for index in range(flat.n_trees):
            view = flat.tree_view(index)
            phi = _tree_shap_single(view, x)
            prediction = view.value_[
                reference_apply(
                    x[None, :], view.children_left_, view.children_right_,
                    view.feature_, view.threshold_,
                )[0],
                1,
            ]
            assert phi.sum() + view.value_[0, 1] == pytest.approx(prediction)


class TestServingShapes:
    """Bit-identity at the batch sizes a scan service actually sends.

    A stream micro-batch, a fleet worker's batch and the cold path each
    score up to 16 rows per call, against a forest of 100+ trees: the per-tree accumulation
    runs over a long tree axis and a short row axis.
    """

    @pytest.fixture(scope="class")
    def forest(self):
        X, y = _make_problem(60)
        return RandomForestClassifier(n_estimators=120, random_state=0).fit(X, y)

    @pytest.fixture(scope="class")
    def probe(self):
        return np.random.default_rng(61).normal(size=(16, 6))

    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_predict_proba_at_serving_rows(self, forest, probe, rows):
        assert forest.compile_flat().n_trees >= 100
        batch = probe[:rows]
        assert np.array_equal(
            forest.predict_proba(batch), _seed_forest_proba(forest, batch)
        )

    @pytest.mark.parametrize("rows", [8, 16])
    def test_fortran_ordered_and_column_sliced_input(self, forest, probe, rows):
        # Split values gather through a flat row-major index, so memory
        # layout must not leak into which value a (row, feature) reads.
        batch = probe[:rows]
        expected = _seed_forest_proba(forest, batch)
        flat = forest.compile_flat()
        fortran = np.asfortranarray(batch)
        assert not fortran.flags.c_contiguous
        assert np.array_equal(flat.predict_proba_mean(fortran), expected)
        wide = np.random.default_rng(62).normal(size=(rows, 15))
        wide[:, 3:9] = batch
        view = wide[:, 3:9]
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        assert np.array_equal(flat.predict_proba_mean(view), expected)
        assert np.array_equal(flat.apply(view), flat.apply(batch))

    def test_input_narrower_than_fitted_width_rejected(self, forest, probe):
        with pytest.raises(ValueError, match="fitted on 6"):
            forest.compile_flat().apply(probe[:, :5])


class TestParallelFit:
    @pytest.mark.parametrize("seed", [0, 13])
    def test_parallel_fit_reproduces_serial_fit(self, seed):
        X, y = _make_problem(seed, n=120)
        serial = RandomForestClassifier(
            n_estimators=8, random_state=seed, n_jobs=None
        ).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=8, random_state=seed, n_jobs=2
        ).fit(X, y)
        for a, b in zip(serial.trees_, parallel.trees_):
            assert np.array_equal(a.children_left_, b.children_left_)
            assert np.array_equal(a.children_right_, b.children_right_)
            assert np.array_equal(a.feature_, b.feature_)
            assert np.array_equal(a.threshold_, b.threshold_)
            assert np.array_equal(a.value_, b.value_)
            assert np.array_equal(a.n_node_samples_, b.n_node_samples_)
        assert np.array_equal(serial.predict_proba(X), parallel.predict_proba(X))

    def test_n_jobs_minus_one_and_clamping(self):
        X, y = _make_problem(14, n=60)
        forest = RandomForestClassifier(n_estimators=3, random_state=0, n_jobs=-1)
        assert forest._effective_jobs() <= 3
        forest.fit(X, y)
        reference = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        assert np.array_equal(forest.predict_proba(X), reference.predict_proba(X))

    def test_negative_n_jobs_counts_down_from_cpus(self):
        # sklearn semantics: -1 = all CPUs, -2 = all but one, never < 1.
        import os

        cpus = os.cpu_count() or 1
        forest = RandomForestClassifier(n_estimators=64, n_jobs=-1)
        assert forest._effective_jobs() == min(cpus, 64)
        forest.n_jobs = -2
        assert forest._effective_jobs() == min(max(1, cpus - 1), 64)

    def test_zero_n_jobs_rejected(self):
        X, y = _make_problem(15, n=40)
        with pytest.raises(ValueError, match="n_jobs"):
            RandomForestClassifier(n_estimators=2, n_jobs=0).fit(X, y)

    def test_n_jobs_survives_clone(self):
        from repro.ml.base import clone

        forest = RandomForestClassifier(n_estimators=2, n_jobs=2)
        assert clone(forest).n_jobs == 2


class TestGBDTEquivalence:
    def _reference_decision(self, model, X):
        """Seed path: per-row tree traversal, sequential boosting sum."""
        X = model._prepare(np.asarray(X, dtype=np.float64))
        raw = np.full(len(X), model.base_score_)
        for tree in model.trees_:
            leaves = reference_apply(
                X, tree.lefts, tree.rights, tree.features,
                getattr(tree, "thresholds", getattr(tree, "bins", None)),
            )
            raw += model.learning_rate * tree.weights[leaves]
        return raw

    def test_xgboost_decision_bit_identical(self):
        X, y = _make_problem(20)
        model = XGBoostClassifier(n_estimators=12, max_depth=3).fit(X, y)
        assert model.compile_flat() is not None
        assert np.array_equal(
            model.decision_function(X), self._reference_decision(model, X)
        )

    def test_lightgbm_decision_bit_identical(self):
        X, y = _make_problem(21)
        model = LightGBMClassifier(n_estimators=12, num_leaves=7).fit(X, y)
        assert np.array_equal(
            model.decision_function(X), self._reference_decision(model, X)
        )

    @pytest.mark.parametrize("rows", [8, 16])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: XGBoostClassifier(n_estimators=12, max_depth=3),
            lambda: LightGBMClassifier(n_estimators=12, num_leaves=7),
        ],
        ids=["xgboost", "lightgbm"],
    )
    def test_decision_bit_identical_at_serving_rows(self, make, rows):
        X, y = _make_problem(25)
        model = make().fit(X, y)
        # Leaf weights of both signs: the accumulated running total
        # crosses zero, where a reordered sum would round differently.
        weights = model.compile_flat().value
        assert (weights < 0).any() and (weights > 0).any()
        probe = np.random.default_rng(26).normal(size=(rows, X.shape[1]))
        assert np.array_equal(
            model.decision_function(probe), self._reference_decision(model, probe)
        )

    @staticmethod
    def _round_leaves(tree, X):
        """Leaf ids through the boosting round's own predict path.

        A copy of the tree whose leaf weights are its node ids turns the
        round's weight lookup into the leaf id each row reached.
        """
        probe = copy.copy(tree)
        probe.weights = np.arange(len(tree.weights), dtype=np.float64)
        if hasattr(tree, "bins"):
            return probe.predict_binned(X).astype(np.int64)
        return probe.predict(X).astype(np.int64)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: XGBoostClassifier(n_estimators=6, max_depth=4),
            lambda: XGBoostClassifier(n_estimators=2, max_depth=0),
            lambda: LightGBMClassifier(n_estimators=6, num_leaves=9),
            lambda: LightGBMClassifier(n_estimators=2, num_leaves=1),
        ],
        ids=["xgboost", "xgboost-root-only", "lightgbm", "lightgbm-root-only"],
    )
    def test_round_leaves_match_reference_per_tree(self, make):
        # The per-round path decides which trees get fit: each round
        # scores the training set with its fresh tree, and the next
        # round's gradients come from those scores.
        X, y = _make_problem(27)
        model = make().fit(X, y)
        prepared = model._prepare(X)
        for tree in model.trees_:
            thresholds = getattr(tree, "thresholds", getattr(tree, "bins", None))
            reference = reference_apply(
                prepared, tree.lefts, tree.rights, tree.features, thresholds
            )
            assert np.array_equal(self._round_leaves(tree, prepared), reference)
            predict = (
                tree.predict_binned if hasattr(tree, "bins") else tree.predict
            )
            assert np.array_equal(
                predict(prepared), tree.weights[reference]
            )

    def test_round_trees_cover_both_child_layouts(self):
        # XGBoost builds depth-first, so a right child is not always its
        # left sibling + 1; LightGBM allocates siblings adjacently. Both
        # layouts reach the reference leaves, also on uint8 bin ids.
        X, y = _make_problem(28)
        xgb = XGBoostClassifier(n_estimators=4, max_depth=4).fit(X, y)
        internal = xgb.trees_[0].features != LEAF
        tree = xgb.trees_[0]
        assert not np.array_equal(
            tree.rights[internal], tree.lefts[internal] + 1
        )
        lgbm = LightGBMClassifier(n_estimators=4, num_leaves=9).fit(X, y)
        binned = lgbm._prepare(X).astype(np.uint8)
        for tree in lgbm.trees_:
            internal = tree.features != LEAF
            assert np.array_equal(
                tree.rights[internal], tree.lefts[internal] + 1
            )
            assert np.array_equal(
                self._round_leaves(tree, binned),
                reference_apply(
                    binned, tree.lefts, tree.rights, tree.features, tree.bins
                ),
            )

    def test_catboost_has_no_flat_compilation(self):
        X, y = _make_problem(22)
        model = CatBoostClassifier(n_estimators=4, depth=2).fit(X, y)
        assert model.compile_flat() is None  # oblivious trees: index math
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_binned_descent_with_duplicate_values_at_bin_edges(self):
        # Heavy duplication: values collide exactly on quantile edges, the
        # case where a <=-vs-< slip or an off-by-one bin id would diverge.
        rng = np.random.default_rng(23)
        X = rng.integers(0, 4, size=(160, 3)).astype(np.float64)
        y = (X[:, 0] >= 2).astype(int)
        model = LightGBMClassifier(n_estimators=8, num_leaves=5, max_bins=4)
        model.fit(X, y)
        assert np.array_equal(
            model.decision_function(X), self._reference_decision(model, X)
        )

    def test_binner_matches_per_row_searchsorted(self):
        rng = np.random.default_rng(24)
        X = np.repeat(rng.normal(size=(40, 2)), 3, axis=0)  # duplicates
        binner = _Binner(8).fit(X)
        binned = binner.transform(X)
        for row in range(len(X)):
            for feature in range(X.shape[1]):
                expected = int(
                    np.searchsorted(
                        binner.edges_[feature], X[row, feature], side="left"
                    )
                )
                assert binned[row, feature] == expected


class TestLevelDescentChunking:
    def test_chunked_apply_matches_unchunked(self):
        # A batch longer than one descent chunk: rows are independent, so
        # each part descended on its own (a single chunk) must reach the
        # same leaves as the chunked whole, row for row.
        X, y = _make_problem(31, n=300)
        forest = RandomForestClassifier(n_estimators=12, random_state=0).fit(X, y)
        flat = forest.compile_flat()
        big = np.random.default_rng(3).normal(
            size=(DESCENT_CHUNK_ROWS + 300, X.shape[1])
        )
        head, tail = big[:DESCENT_CHUNK_ROWS], big[DESCENT_CHUNK_ROWS:]
        assert np.array_equal(
            flat.apply(big),
            np.concatenate([flat.apply(head), flat.apply(tail)]),
        )

    def test_chunked_accumulation_matches_single_chunk(self):
        # A batch one chunk and a bit long: rows are independent, so each
        # part scored on its own (a single chunk) must equal the chunked
        # result row for row.
        X, y = _make_problem(32, n=300)
        big = np.random.default_rng(4).normal(
            size=(DESCENT_CHUNK_ROWS + 300, X.shape[1])
        )
        head, tail = big[:DESCENT_CHUNK_ROWS], big[DESCENT_CHUNK_ROWS:]
        forest = RandomForestClassifier(n_estimators=12, random_state=0).fit(X, y)
        flat = forest.compile_flat()
        assert np.array_equal(
            flat.predict_proba_mean(big),
            np.concatenate(
                [flat.predict_proba_mean(head), flat.predict_proba_mean(tail)]
            ),
        )
        booster = XGBoostClassifier(n_estimators=10, max_depth=3).fit(X, y)
        compiled = booster.compile_flat()
        rate, base = booster.learning_rate, booster.base_score_
        assert np.array_equal(
            compiled.decision_sum(big, rate, base),
            np.concatenate([
                compiled.decision_sum(head, rate, base),
                compiled.decision_sum(tail, rate, base),
            ]),
        )


class TestKNNVectorized:
    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    def test_chunked_equals_single_block(self, weights):
        X, y = _make_problem(40, n=150)
        probe = np.random.default_rng(41).normal(size=(77, X.shape[1]))
        small = KNeighborsClassifier(
            n_neighbors=5, weights=weights, chunk_size=16
        ).fit(X, y)
        big = KNeighborsClassifier(
            n_neighbors=5, weights=weights, chunk_size=10_000
        ).fit(X, y)
        assert np.array_equal(small.predict_proba(probe), big.predict_proba(probe))

    def test_matches_per_row_reference(self):
        X, y = _make_problem(42, n=90)
        probe = np.random.default_rng(43).normal(size=(31, X.shape[1]))
        model = KNeighborsClassifier(n_neighbors=7, weights="distance").fit(X, y)
        proba = model.predict_proba(probe)
        # Reference: the seed per-row vote loop.
        k = 7
        squared = (
            np.sum(probe**2, axis=1, keepdims=True)
            - 2.0 * probe @ X.T
            + np.sum(X**2, axis=1)
        )
        squared = np.maximum(squared, 0.0)
        neighbors = np.argpartition(squared, k - 1, axis=1)[:, :k]
        for row in range(len(probe)):
            votes = y[neighbors[row]]
            distances = np.sqrt(squared[row, neighbors[row]])
            vote_weights = 1.0 / (distances + 1e-9)
            positive = vote_weights[votes == 1].sum()
            total = vote_weights.sum()
            assert proba[row, 1] == pytest.approx(positive / total, rel=1e-12)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(chunk_size=0)

    def test_not_fitted_raised_before_array_work(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            KNeighborsClassifier().predict_proba(np.full((2, 2), np.nan))


class TestPrecompile:
    def test_precompile_walks_hsc_detector(self):
        from repro.models.hsc import HSCDetector

        rng = np.random.default_rng(50)
        bytecodes = [bytes([96, 96, 82]) + rng.bytes(20) for _ in range(24)]
        labels = rng.integers(0, 2, size=24)
        labels[0], labels[1] = 0, 1  # both classes present
        detector = HSCDetector("Random Forest", seed=0)
        detector.classifier_.set_params(n_estimators=4)
        detector.fit(bytecodes, labels)
        assert precompile(detector) == 1
        assert detector.classifier_._flat is not None

    def test_precompile_is_safe_on_flatless_models(self):
        from repro.models.hsc import HSCDetector

        detector = HSCDetector("k-NN")
        assert precompile(detector) == 0
        assert precompile(object()) == 0

    def test_from_arrays_single_output_value_promoted(self):
        flat = FlatEnsemble.from_arrays(
            [(np.array([LEAF]), np.array([LEAF]), np.array([LEAF]),
              np.array([0.0]), np.array([0.25]))],
            n_features=2,
        )
        assert flat.value.shape == (1, 1)
        assert flat.apply(np.zeros((3, 2)))[0, 0] == 0
