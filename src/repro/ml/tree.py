"""CART decision trees (gini impurity), numpy-vectorized split search.

The fitted tree is exposed as flat parallel arrays (``children_left_`` …)
— the representation both the exact TreeSHAP implementation in
:mod:`repro.analysis.shap_values` and the vectorized inference engine in
:mod:`repro.ml.flat` consume. Single-tree inference (:meth:`apply`)
descends the tree as a one-tree :class:`~repro.ml.flat.FlatEnsemble`, the
same kernel every forest and booster scores through; the seed per-row
traversal is retained as :func:`apply_per_row` — the bit-identical
reference the equivalence tests and throughput benchmark compare against.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_array, check_X_y
from repro.ml.flat import LEAF, FlatEnsemble, max_leaf_depth, reference_apply

__all__ = ["DecisionTreeClassifier", "best_gini_split", "apply_per_row"]

_SINGLE_ROOT = np.zeros(1, dtype=np.int64)


def apply_per_row(tree: "DecisionTreeClassifier", X) -> np.ndarray:
    """Reference leaf lookup: the seed's per-row Python ``while`` loop."""
    return reference_apply(
        check_array(X),
        tree.children_left_,
        tree.children_right_,
        tree.feature_,
        tree.threshold_,
    )


def best_gini_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over candidate features, or None.

    Gain is the decrease in gini impurity; thresholds are midpoints
    between consecutive distinct feature values.
    """
    n = len(y)
    total_pos = int(y.sum())
    parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
    best: tuple[int, float, float] | None = None
    best_gain = 1e-12

    for feature in feature_indices:
        values = X[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        cumulative_pos = np.cumsum(y[order])

        boundaries = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
        if len(boundaries) == 0:
            continue
        n_left = boundaries + 1
        n_right = n - n_left
        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        boundaries = boundaries[valid]
        if len(boundaries) == 0:
            continue
        n_left = n_left[valid]
        n_right = n_right[valid]

        left_pos = cumulative_pos[boundaries]
        right_pos = total_pos - left_pos
        gini_left = 1.0 - (left_pos / n_left) ** 2 - (
            (n_left - left_pos) / n_left
        ) ** 2
        gini_right = 1.0 - (right_pos / n_right) ** 2 - (
            (n_right - right_pos) / n_right
        ) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = parent_gini - weighted

        arg = int(np.argmax(gains))
        if gains[arg] > best_gain:
            boundary = boundaries[arg]
            threshold = 0.5 * (
                sorted_values[boundary] + sorted_values[boundary + 1]
            )
            best_gain = float(gains[arg])
            best = (int(feature), float(threshold), best_gain)
    return best


class DecisionTreeClassifier(Classifier):
    """Binary CART tree.

    Args:
        max_depth: Depth bound (None = unbounded).
        min_samples_split: Minimum samples to attempt a split.
        min_samples_leaf: Minimum samples on each side of a split.
        max_features: Features examined per split: None (all), "sqrt",
            an int count, or a float fraction.
        random_state: Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ------------------------------------------------------------------ #

    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * n_features))
        return max(1, min(int(self.max_features), n_features))

    def fit(self, X, y, sample_indices=None) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        if sample_indices is not None:
            X, y = X[sample_indices], y[sample_indices]
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        k = self._n_candidate_features(self.n_features_)

        children_left: list[int] = []
        children_right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        value: list[list[float]] = []
        n_node_samples: list[int] = []

        def new_node() -> int:
            children_left.append(LEAF)
            children_right.append(LEAF)
            feature.append(LEAF)
            threshold.append(0.0)
            value.append([0.0, 0.0])
            n_node_samples.append(0)
            return len(children_left) - 1

        # Iterative construction: stack of (node_id, row_indices, depth).
        root = new_node()
        stack = [(root, np.arange(len(y)), 0)]
        while stack:
            node, rows, depth = stack.pop()
            labels = y[rows]
            positives = int(labels.sum())
            n = len(rows)
            n_node_samples[node] = n
            value[node] = [float(n - positives) / n, float(positives) / n]

            if (
                positives == 0
                or positives == n
                or n < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
            ):
                continue
            if k < self.n_features_:
                candidates = rng.choice(self.n_features_, size=k, replace=False)
            else:
                candidates = np.arange(self.n_features_)
            split = best_gini_split(
                X[rows], labels, candidates, self.min_samples_leaf
            )
            if split is None:
                continue
            split_feature, split_threshold, __ = split
            mask = X[rows, split_feature] <= split_threshold
            left_id, right_id = new_node(), new_node()
            children_left[node] = left_id
            children_right[node] = right_id
            feature[node] = split_feature
            threshold[node] = split_threshold
            stack.append((left_id, rows[mask], depth + 1))
            stack.append((right_id, rows[~mask], depth + 1))

        self.children_left_ = np.asarray(children_left, dtype=np.int64)
        self.children_right_ = np.asarray(children_right, dtype=np.int64)
        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.value_ = np.asarray(value, dtype=np.float64)
        self.n_node_samples_ = np.asarray(n_node_samples, dtype=np.int64)
        return self

    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        if not hasattr(self, "children_left_"):
            raise RuntimeError("tree is not fitted; call fit() first")
        return {
            "children_left": self.children_left_,
            "children_right": self.children_right_,
            "feature": self.feature_,
            "threshold": self.threshold_,
            "value": self.value_,
            "n_node_samples": self.n_node_samples_,
            "n_features": int(self.n_features_),
        }

    def load_state(self, state: dict) -> "DecisionTreeClassifier":
        self.children_left_ = np.asarray(state["children_left"], dtype=np.int64)
        self.children_right_ = np.asarray(state["children_right"], dtype=np.int64)
        self.feature_ = np.asarray(state["feature"], dtype=np.int64)
        self.threshold_ = np.asarray(state["threshold"], dtype=np.float64)
        self.value_ = np.asarray(state["value"], dtype=np.float64)
        self.n_node_samples_ = np.asarray(state["n_node_samples"], dtype=np.int64)
        self.n_features_ = int(state["n_features"])
        return self

    # ------------------------------------------------------------------ #

    @property
    def node_count(self) -> int:
        return len(self.children_left_)

    @property
    def max_depth_reached(self) -> int:
        """Deepest node, via a vectorized breadth-first frontier sweep."""
        return max_leaf_depth(
            self.children_left_, self.children_right_, self.feature_,
            _SINGLE_ROOT,
        )

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each sample (one-tree flat descent)."""
        X = check_array(X)
        flat = FlatEnsemble.from_arrays(
            [(
                self.children_left_,
                self.children_right_,
                self.feature_,
                self.threshold_,
                self.value_,
            )],
            n_features=self.n_features_,
        )
        return flat.apply(X)[:, 0]

    def predict_proba(self, X) -> np.ndarray:
        return self.value_[self.apply(X)]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalized to sum to 1.

        One vectorized pass over the internal nodes; repeated features
        accumulate via ``np.add.at`` in node order, matching the former
        per-node Python loop float-for-float.
        """
        importances = np.zeros(self.n_features_)
        internal = self.children_left_ != LEAF
        if not internal.any():
            return importances
        total = self.n_node_samples_[0]
        left = self.children_left_[internal]
        right = self.children_right_[internal]

        p = self.value_[:, 1]
        gini = 1.0 - p * p - (1.0 - p) ** 2
        decrease = (
            self.n_node_samples_[internal] * gini[internal]
            - self.n_node_samples_[left] * gini[left]
            - self.n_node_samples_[right] * gini[right]
        )
        np.add.at(importances, self.feature_[internal], decrease / total)
        if importances.sum() > 0:
            importances /= importances.sum()
        return importances
