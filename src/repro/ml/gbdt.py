"""Gradient-boosted decision trees: XGBoost / LightGBM / CatBoost styles.

All three boost the logistic loss with second-order statistics
(gradient ``g = p - y``, hessian ``h = p (1 - p)``) and share the gain
formula ``½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]``. They differ in the
tree-construction strategy, mirroring the distinguishing design choice of
each library the paper benchmarks:

* :class:`XGBoostClassifier` — exact greedy splits, level-wise growth to a
  depth bound,
* :class:`LightGBMClassifier` — features pre-binned into quantile
  histograms, best-first *leaf-wise* growth to a leaf-count bound,
* :class:`CatBoostClassifier` — *oblivious* (symmetric) trees: every node
  at a level shares one (feature, threshold) condition.

Inference is vectorized end to end: each fitted tree finalizes its node
lists into flat numpy arrays, and ``decision_function`` stacks the whole
booster into one :class:`~repro.ml.flat.FlatEnsemble` so a batch costs
O(max_depth) numpy steps for *all* trees at once (oblivious trees are
index-arithmetic already). The boosting fit uses the same engine: every
round scores the training set with its fresh tree compiled as a one-tree
:class:`~repro.ml.flat.FlatEnsemble`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ml.base import Classifier, check_array, check_X_y
from repro.ml.flat import FlatEnsemble

__all__ = ["XGBoostClassifier", "LightGBMClassifier", "CatBoostClassifier"]

_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


def _leaf_weight(G: float, H: float, reg_lambda: float) -> float:
    return -G / (H + reg_lambda + _EPS)


def _split_score(G: float, H: float, reg_lambda: float) -> float:
    return G * G / (H + reg_lambda + _EPS)


# --------------------------------------------------------------------- #
# Exact splitter (XGBoost style)
# --------------------------------------------------------------------- #


def _best_exact_split(X, g, h, rows, reg_lambda, min_child_samples):
    """Best (feature, threshold, gain) on raw feature values."""
    n = len(rows)
    G_total, H_total = g[rows].sum(), h[rows].sum()
    parent = _split_score(G_total, H_total, reg_lambda)
    best = None
    best_gain = 1e-9
    for feature in range(X.shape[1]):
        values = X[rows, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        g_cum = np.cumsum(g[rows][order])
        h_cum = np.cumsum(h[rows][order])
        boundaries = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
        if len(boundaries) == 0:
            continue
        n_left = boundaries + 1
        valid = (n_left >= min_child_samples) & (n - n_left >= min_child_samples)
        boundaries = boundaries[valid]
        if len(boundaries) == 0:
            continue
        G_left = g_cum[boundaries]
        H_left = h_cum[boundaries]
        gains = (
            _split_score(G_left, H_left, reg_lambda)
            + _split_score(G_total - G_left, H_total - H_left, reg_lambda)
            - parent
        )
        arg = int(np.argmax(gains))
        if gains[arg] > best_gain:
            boundary = boundaries[arg]
            best_gain = float(gains[arg])
            threshold = 0.5 * (sorted_values[boundary] + sorted_values[boundary + 1])
            best = (feature, float(threshold), best_gain)
    return best


class _ExactTree:
    """Level-wise regression tree on (g, h)."""

    def __init__(self, max_depth, reg_lambda, min_child_samples):
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples

    def fit(self, X, g, h):
        self.features: list[int] = []
        self.thresholds: list[float] = []
        self.lefts: list[int] = []
        self.rights: list[int] = []
        self.weights: list[float] = []

        def build(rows, depth) -> int:
            node = len(self.features)
            self.features.append(-1)
            self.thresholds.append(0.0)
            self.lefts.append(-1)
            self.rights.append(-1)
            self.weights.append(
                _leaf_weight(g[rows].sum(), h[rows].sum(), self.reg_lambda)
            )
            if depth >= self.max_depth or len(rows) < 2 * self.min_child_samples:
                return node
            split = _best_exact_split(
                X, g, h, rows, self.reg_lambda, self.min_child_samples
            )
            if split is None:
                return node
            feature, threshold, __ = split
            mask = X[rows, feature] <= threshold
            left = build(rows[mask], depth + 1)
            right = build(rows[~mask], depth + 1)
            self.features[node] = feature
            self.thresholds[node] = threshold
            self.lefts[node] = left
            self.rights[node] = right
            return node

        build(np.arange(len(g)), 0)
        self.features = np.asarray(self.features, dtype=np.int64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        self.lefts = np.asarray(self.lefts, dtype=np.int64)
        self.rights = np.asarray(self.rights, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        return self

    def predict(self, X) -> np.ndarray:
        flat = FlatEnsemble.from_regression_trees([self], X.shape[1])
        return self.weights[flat.apply(X)[:, 0]]

    def to_state(self) -> dict:
        return {
            "features": self.features,
            "thresholds": self.thresholds,
            "lefts": self.lefts,
            "rights": self.rights,
            "weights": self.weights,
        }

    @classmethod
    def from_state(cls, state: dict, **params) -> "_ExactTree":
        tree = cls(**params)
        tree.features = np.asarray(state["features"], dtype=np.int64)
        tree.thresholds = np.asarray(state["thresholds"], dtype=np.float64)
        tree.lefts = np.asarray(state["lefts"], dtype=np.int64)
        tree.rights = np.asarray(state["rights"], dtype=np.int64)
        tree.weights = np.asarray(state["weights"], dtype=np.float64)
        return tree


# --------------------------------------------------------------------- #
# Histogram machinery (LightGBM / CatBoost styles)
# --------------------------------------------------------------------- #


class _Binner:
    """Quantile binning of raw features into uint8 bin ids."""

    def __init__(self, max_bins: int):
        self.max_bins = max_bins

    def fit(self, X) -> "_Binner":
        # One quantile pass over every column at once; per-feature edge
        # lists stay ragged only because duplicate quantiles collapse.
        quantiles = np.quantile(
            X, np.linspace(0, 1, self.max_bins + 1)[1:-1], axis=0
        )
        self.edges_ = [
            np.unique(quantiles[:, feature]) for feature in range(X.shape[1])
        ]
        return self

    def transform(self, X) -> np.ndarray:
        """Raw values → bin ids, one ``np.searchsorted`` per feature column."""
        binned = np.empty(X.shape, dtype=np.int64)
        for feature, edges in enumerate(self.edges_):
            binned[:, feature] = np.searchsorted(edges, X[:, feature], side="left")
        return binned

    @property
    def n_bins(self) -> int:
        return self.max_bins

    def to_state(self) -> dict:
        return {"max_bins": int(self.max_bins), "edges": list(self.edges_)}

    @classmethod
    def from_state(cls, state: dict) -> "_Binner":
        binner = cls(int(state["max_bins"]))
        binner.edges_ = [
            np.asarray(edges, dtype=np.float64) for edges in state["edges"]
        ]
        return binner


def _histogram_gains(binned, g, h, rows, n_bins, reg_lambda, min_child):
    """Per-(feature, bin) split gains for one leaf.

    Returns (gains, G_left, H_left) arrays of shape (n_features, n_bins-1);
    invalid splits carry -inf gain.
    """
    n_features = binned.shape[1]
    G_total, H_total = g[rows].sum(), h[rows].sum()
    parent = _split_score(G_total, H_total, reg_lambda)
    gains = np.full((n_features, n_bins - 1), -np.inf)
    for feature in range(n_features):
        bins = binned[rows, feature]
        G_bin = np.bincount(bins, weights=g[rows], minlength=n_bins)
        H_bin = np.bincount(bins, weights=h[rows], minlength=n_bins)
        C_bin = np.bincount(bins, minlength=n_bins)
        G_left = np.cumsum(G_bin)[:-1]
        H_left = np.cumsum(H_bin)[:-1]
        C_left = np.cumsum(C_bin)[:-1]
        C_right = len(rows) - C_left
        valid = (C_left >= min_child) & (C_right >= min_child)
        if not valid.any():
            continue
        score = (
            _split_score(G_left, H_left, reg_lambda)
            + _split_score(G_total - G_left, H_total - H_left, reg_lambda)
            - parent
        )
        gains[feature, valid] = score[valid]
    return gains


class _LeafwiseTree:
    """Best-first (leaf-wise) tree over binned features."""

    def __init__(self, num_leaves, reg_lambda, min_child_samples, n_bins):
        self.num_leaves = num_leaves
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples
        self.n_bins = n_bins

    def fit(self, binned, g, h):
        self.features = [-1]
        self.bins = [0]
        self.lefts = [-1]
        self.rights = [-1]
        self.weights = [
            _leaf_weight(g.sum(), h.sum(), self.reg_lambda)
        ]
        counter = 0
        heap: list = []

        def push(node, rows):
            nonlocal counter
            gains = _histogram_gains(
                binned, g, h, rows, self.n_bins, self.reg_lambda,
                self.min_child_samples,
            )
            best_flat = int(np.argmax(gains))
            best_gain = gains.flat[best_flat]
            if np.isfinite(best_gain) and best_gain > 1e-9:
                feature, split_bin = divmod(best_flat, self.n_bins - 1)
                counter += 1
                heapq.heappush(
                    heap, (-best_gain, counter, node, rows, feature, split_bin)
                )

        push(0, np.arange(len(g)))
        n_leaves = 1
        while heap and n_leaves < self.num_leaves:
            __, __, node, rows, feature, split_bin = heapq.heappop(heap)
            mask = binned[rows, feature] <= split_bin
            left_rows, right_rows = rows[mask], rows[~mask]
            left, right = len(self.features), len(self.features) + 1
            for child_rows in (left_rows, right_rows):
                self.features.append(-1)
                self.bins.append(0)
                self.lefts.append(-1)
                self.rights.append(-1)
                self.weights.append(
                    _leaf_weight(
                        g[child_rows].sum(), h[child_rows].sum(), self.reg_lambda
                    )
                )
            self.features[node] = feature
            self.bins[node] = split_bin
            self.lefts[node] = left
            self.rights[node] = right
            n_leaves += 1
            push(left, left_rows)
            push(right, right_rows)
        self.features = np.asarray(self.features, dtype=np.int64)
        self.bins = np.asarray(self.bins, dtype=np.float64)
        self.lefts = np.asarray(self.lefts, dtype=np.int64)
        self.rights = np.asarray(self.rights, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        return self

    def predict_binned(self, binned) -> np.ndarray:
        flat = FlatEnsemble.from_regression_trees(
            [self], binned.shape[1], threshold_attr="bins"
        )
        return self.weights[flat.apply(binned)[:, 0]]

    def to_state(self) -> dict:
        return {
            "features": self.features,
            "bins": self.bins,
            "lefts": self.lefts,
            "rights": self.rights,
            "weights": self.weights,
        }

    @classmethod
    def from_state(cls, state: dict, **params) -> "_LeafwiseTree":
        tree = cls(**params)
        tree.features = np.asarray(state["features"], dtype=np.int64)
        tree.bins = np.asarray(state["bins"], dtype=np.float64)
        tree.lefts = np.asarray(state["lefts"], dtype=np.int64)
        tree.rights = np.asarray(state["rights"], dtype=np.int64)
        tree.weights = np.asarray(state["weights"], dtype=np.float64)
        return tree


class _ObliviousTree:
    """Symmetric tree: one (feature, bin) condition per level."""

    def __init__(self, depth, reg_lambda, min_child_samples, n_bins):
        self.depth = depth
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples
        self.n_bins = n_bins

    def fit(self, binned, g, h):
        self.conditions: list[tuple[int, int]] = []
        leaves = [np.arange(len(g))]
        for __ in range(self.depth):
            total_gain = np.zeros((binned.shape[1], self.n_bins - 1))
            any_valid = np.zeros_like(total_gain, dtype=bool)
            for rows in leaves:
                if len(rows) == 0:
                    continue
                gains = _histogram_gains(
                    binned, g, h, rows, self.n_bins, self.reg_lambda,
                    self.min_child_samples,
                )
                finite = np.isfinite(gains)
                total_gain[finite] += gains[finite]
                any_valid |= finite
            total_gain[~any_valid] = -np.inf
            best_flat = int(np.argmax(total_gain))
            if not np.isfinite(total_gain.flat[best_flat]):
                break
            feature, split_bin = divmod(best_flat, self.n_bins - 1)
            self.conditions.append((feature, split_bin))
            next_leaves = []
            for rows in leaves:
                mask = binned[rows, feature] <= split_bin
                next_leaves.append(rows[mask])
                next_leaves.append(rows[~mask])
            leaves = next_leaves
        self.leaf_weights = np.array(
            [
                _leaf_weight(g[rows].sum(), h[rows].sum(), self.reg_lambda)
                if len(rows)
                else 0.0
                for rows in leaves
            ]
        )
        return self

    def predict_binned(self, binned) -> np.ndarray:
        index = np.zeros(len(binned), dtype=np.int64)
        for feature, split_bin in self.conditions:
            goes_right = binned[:, feature] > split_bin
            index = index * 2 + goes_right
        return self.leaf_weights[index]

    def to_state(self) -> dict:
        return {
            "conditions": [[int(f), int(b)] for f, b in self.conditions],
            "leaf_weights": self.leaf_weights,
        }

    @classmethod
    def from_state(cls, state: dict, **params) -> "_ObliviousTree":
        tree = cls(**params)
        tree.conditions = [(int(f), int(b)) for f, b in state["conditions"]]
        tree.leaf_weights = np.asarray(state["leaf_weights"], dtype=np.float64)
        return tree


# --------------------------------------------------------------------- #
# Boosting drivers
# --------------------------------------------------------------------- #


class _BoostedClassifier(Classifier):
    """Shared logistic-loss boosting loop."""

    n_estimators: int
    learning_rate: float

    def _setup(self, X):  # pragma: no cover - interface
        raise NotImplementedError

    def _fit_tree(self, X, g, h):  # pragma: no cover - interface
        raise NotImplementedError

    def _tree_predict(self, tree, X):  # pragma: no cover - interface
        raise NotImplementedError

    def _rebuild_tree(self, state):  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        if not getattr(self, "trees_", None):
            raise RuntimeError("booster is not fitted; call fit() first")
        state = {
            "base_score": float(self.base_score_),
            "n_features": int(self.n_features_),
            "trees": [tree.to_state() for tree in self.trees_],
        }
        binner = getattr(self, "binner_", None)
        if binner is not None:
            state["binner"] = binner.to_state()
        return state

    def load_state(self, state: dict) -> "_BoostedClassifier":
        self.base_score_ = float(state["base_score"])
        self.n_features_ = int(state["n_features"])
        if state.get("binner") is not None:
            self.binner_ = _Binner.from_state(state["binner"])
        self.trees_ = [self._rebuild_tree(s) for s in state["trees"]]
        # Stack the booster into the flat inference engine now — a loaded
        # model is serve-ready without paying compilation in the first
        # scored batch (oblivious trees need none and return None).
        self._flat = None
        self.compile_flat()
        return self

    def fit(self, X, y) -> "_BoostedClassifier":
        X, y = check_X_y(X, y)
        X = self._setup(X)
        self.n_features_ = X.shape[1]
        self._flat: FlatEnsemble | None = None
        positive_rate = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        self.base_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(len(y), self.base_score_)
        self.trees_ = []
        for __ in range(self.n_estimators):
            p = _sigmoid(raw)
            g = p - y
            h = np.maximum(p * (1 - p), 1e-6)
            tree = self._fit_tree(X, g, h)
            self.trees_.append(tree)
            raw += self.learning_rate * self._tree_predict(tree, X)
        return self

    def fit_more(self, X, y, n_more: int) -> "_BoostedClassifier":
        """Continue boosting for ``n_more`` rounds on new data.

        The incremental-retrain primitive: existing trees, the fitted
        base score and (for binned boosters) the quantile binner are all
        frozen — only the new rounds train, on the *new* window, starting
        from the fitted ensemble's raw margin. Freezing the binner is
        what makes continuation well-defined: rebinning on the new
        window would silently re-map the thresholds every old tree
        splits on.

        Raises:
            RuntimeError: If the booster is not fitted.
            ValueError: If ``n_more < 1`` or the feature count changed.
        """
        if not getattr(self, "trees_", None):
            raise RuntimeError("booster is not fitted; call fit() first")
        if n_more < 1:
            raise ValueError("n_more must be >= 1")
        X, y = check_X_y(X, y)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"fit_more expects {self.n_features_} features, "
                f"got {X.shape[1]}"
            )
        # Raw margins of the fitted ensemble on the new window — computed
        # through decision_function so the frozen binner transforms the
        # raw features exactly as inference does.
        raw = self.decision_function(X)
        X = self._prepare(check_array(X))
        self._flat = None
        for __ in range(int(n_more)):
            p = _sigmoid(raw)
            g = p - y
            h = np.maximum(p * (1 - p), 1e-6)
            tree = self._fit_tree(X, g, h)
            self.trees_.append(tree)
            raw += self.learning_rate * self._tree_predict(tree, X)
        self.n_estimators = len(self.trees_)
        return self

    def compile_flat(self) -> FlatEnsemble | None:
        """The booster as one stacked :class:`FlatEnsemble` (cached).

        Returns ``None`` for tree types without node arrays (oblivious
        trees descend by index arithmetic and need no compilation).
        """
        if getattr(self, "_flat", None) is not None:
            return self._flat
        trees = getattr(self, "trees_", None)
        if not trees or not hasattr(trees[0], "lefts"):
            return None
        threshold_attr = "thresholds" if hasattr(trees[0], "thresholds") else "bins"
        self._flat = FlatEnsemble.from_regression_trees(
            trees, self.n_features_, threshold_attr=threshold_attr
        )
        return self._flat

    def decision_function(self, X) -> np.ndarray:
        X = check_array(X)
        X = self._prepare(X)
        flat = self.compile_flat()
        if flat is not None:
            # One descent for every (sample, tree) pair; contributions are
            # added in boosting order — bit-identical to the loop below.
            return flat.decision_sum(X, self.learning_rate, self.base_score_)
        raw = np.full(len(X), self.base_score_)
        for tree in self.trees_:
            raw += self.learning_rate * self._tree_predict(tree, X)
        return raw

    def _prepare(self, X):
        return X

    def predict_proba(self, X) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1 - p, p])


class XGBoostClassifier(_BoostedClassifier):
    """Exact greedy, level-wise second-order boosting."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.3,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        min_child_samples: int = 2,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples

    def _setup(self, X):
        return X

    def _fit_tree(self, X, g, h):
        return _ExactTree(
            self.max_depth, self.reg_lambda, self.min_child_samples
        ).fit(X, g, h)

    def _tree_predict(self, tree, X):
        return tree.predict(X)

    def _rebuild_tree(self, state):
        return _ExactTree.from_state(
            state, max_depth=self.max_depth, reg_lambda=self.reg_lambda,
            min_child_samples=self.min_child_samples,
        )


class LightGBMClassifier(_BoostedClassifier):
    """Histogram-binned, leaf-wise second-order boosting."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        num_leaves: int = 15,
        max_bins: int = 32,
        reg_lambda: float = 1.0,
        min_child_samples: int = 2,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.num_leaves = num_leaves
        self.max_bins = max_bins
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples

    def _setup(self, X):
        self.binner_ = _Binner(self.max_bins).fit(X)
        return self.binner_.transform(X)

    def _prepare(self, X):
        return self.binner_.transform(X)

    def _fit_tree(self, X, g, h):
        return _LeafwiseTree(
            self.num_leaves, self.reg_lambda, self.min_child_samples,
            self.max_bins,
        ).fit(X, g, h)

    def _tree_predict(self, tree, X):
        return tree.predict_binned(X)

    def _rebuild_tree(self, state):
        return _LeafwiseTree.from_state(
            state, num_leaves=self.num_leaves, reg_lambda=self.reg_lambda,
            min_child_samples=self.min_child_samples, n_bins=self.max_bins,
        )


class CatBoostClassifier(_BoostedClassifier):
    """Oblivious-tree second-order boosting."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        depth: int = 4,
        max_bins: int = 32,
        reg_lambda: float = 1.0,
        min_child_samples: int = 2,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.depth = depth
        self.max_bins = max_bins
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples

    def _setup(self, X):
        self.binner_ = _Binner(self.max_bins).fit(X)
        return self.binner_.transform(X)

    def _prepare(self, X):
        return self.binner_.transform(X)

    def _fit_tree(self, X, g, h):
        return _ObliviousTree(
            self.depth, self.reg_lambda, self.min_child_samples, self.max_bins
        ).fit(X, g, h)

    def _tree_predict(self, tree, X):
        return tree.predict_binned(X)

    def _rebuild_tree(self, state):
        return _ObliviousTree.from_state(
            state, depth=self.depth, reg_lambda=self.reg_lambda,
            min_child_samples=self.min_child_samples, n_bins=self.max_bins,
        )
