"""Flat-array vectorized ensemble inference engine.

Any fitted tree ensemble — a :class:`~repro.ml.forest.RandomForestClassifier`,
the XGBoost/LightGBM-style boosted trees in :mod:`repro.ml.gbdt`, or a single
:class:`~repro.ml.tree.DecisionTreeClassifier` — compiles into one set of
contiguous stacked node arrays (``children_left`` / ``children_right`` /
``feature`` / ``threshold`` / ``value`` plus per-tree root offsets). Inference
then runs as **level-synchronous descent**: one :func:`np.where` step advances
*every* (sample, tree) pair a level at once, so a batched ``predict_proba``
costs O(max_depth) numpy operations instead of O(rows × trees × depth) Python
loop iterations.

Numerical contract: the engine is **bit-identical** to the per-row reference
traversal. Descent uses the same ``x[feature] <= threshold`` comparison on the
same float64 values, and per-tree leaf values are accumulated *sequentially in
tree order*: one gather of every (sample, tree) leaf value, then
``np.add.accumulate`` along the tree axis, which adds tree ``t`` to the
running total of trees ``0 … t-1`` exactly as the reference
``for tree in trees: total += ...`` loop does. ``np.sum`` /
``.sum(axis=...)`` over the tree axis is *not* used: it sums pairwise, which
rounds differently. The cost is a few numpy calls per batch, not one per tree.

TreeSHAP contract: compilation is view-preserving. :meth:`FlatEnsemble.tree_view`
returns the ``i``-th tree as an object exposing the exact per-tree attribute
names (``children_left_`` …, local node ids, ``LEAF`` sentinels,
``n_node_samples_`` when stacked) that the exact TreeSHAP implementation in
:mod:`repro.analysis.shap_values` consumes, so explanations can be computed
from either representation interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEAF",
    "FlatEnsemble",
    "level_descent",
    "max_leaf_depth",
    "reference_apply",
    "precompile",
]

#: Sentinel used in the flat arrays for leaves (shared with repro.ml.tree).
LEAF = -1

#: Rows per descent chunk. It bounds the temporaries regardless of batch
#: size: (chunk × trees) int64 node ids during descent, and two float64
#: (chunk × (trees + 1) × outputs) arrays during accumulation — ~16 MB each
#: for a 120-tree two-class forest.
DESCENT_CHUNK_ROWS = 8192


def level_descent(
    X: np.ndarray,
    children_left: np.ndarray,
    children_right: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    roots: np.ndarray,
    chunk_rows: int = DESCENT_CHUNK_ROWS,
    consecutive_children: bool | None = None,
) -> np.ndarray:
    """Vectorized root→leaf descent over every (sample, tree) pair.

    Args:
        X: ``(n_samples, n_features)`` feature matrix (float or binned
            int; must be NaN-free — every classifier validates upstream).
        children_left / children_right / feature / threshold: Stacked node
            arrays; child ids are *global* (already offset per tree) and
            ``LEAF`` marks leaves in ``feature`` and both child arrays.
        roots: ``(n_trees,)`` global root node id per tree.
        chunk_rows: Sample-chunk size bounding temporary memory.
        consecutive_children: Whether ``right == left + 1`` for every
            internal node (the CART and leaf-wise builders allocate
            children adjacently), enabling a one-gather child step.
            ``None`` detects it with one O(nodes) pass.

    Returns:
        ``(n_samples, n_trees)`` global node id of the leaf each sample
        reaches in each tree.
    """
    X = np.asarray(X)
    if consecutive_children is None:
        internal = feature != LEAF
        consecutive_children = bool(
            np.array_equal(children_right[internal], children_left[internal] + 1)
        )
    n_samples = len(X)
    if n_samples <= chunk_rows:
        return _descend(
            X, children_left, children_right, feature, threshold, roots,
            consecutive_children,
        )
    out = np.empty((n_samples, len(roots)), dtype=np.int64)
    for start in range(0, n_samples, chunk_rows):
        stop = start + chunk_rows
        out[start:stop] = _descend(
            X[start:stop], children_left, children_right, feature, threshold,
            roots, consecutive_children,
        )
    return out


def _descend(X, children_left, children_right, feature, threshold, roots,
             consecutive_children):
    n_samples = len(X)
    n_trees = len(roots)
    leaves = np.repeat(roots[None, :], n_samples, axis=0).ravel()
    # Active-set descent: each level only touches (sample, tree) pairs
    # still at internal nodes, so total work is the sum of root→leaf path
    # lengths rather than n_samples × n_trees × max_depth. Pairs scatter
    # into the output exactly once, when they settle on a leaf; the split
    # feature of the next level is carried over from the settledness probe
    # so each level costs one gather into X and one into each node array.
    index = np.nonzero(feature[leaves] != LEAF)[0]
    samples = np.repeat(np.arange(n_samples), n_trees)[index]
    current = leaves[index]
    split_feature = feature[current]
    while index.size:
        if consecutive_children:
            # right child = left child + 1, and x > t ⟺ ¬(x ≤ t) on the
            # NaN-free inputs the classifiers validate — bit-identical to
            # the reference ``<=`` branch at one gather instead of two.
            go_right = X[samples, split_feature] > threshold[current]
            advanced = children_left[current] + go_right
        else:
            go_left = X[samples, split_feature] <= threshold[current]
            advanced = np.where(
                go_left, children_left[current], children_right[current]
            )
        next_feature = feature[advanced]
        settled = next_feature == LEAF
        if settled.any():
            leaves[index[settled]] = advanced[settled]
            alive = ~settled
            index = index[alive]
            samples = samples[alive]
            current = advanced[alive]
            split_feature = next_feature[alive]
        else:
            current = advanced
            split_feature = next_feature
    return leaves.reshape(n_samples, n_trees)


def max_leaf_depth(
    children_left: np.ndarray,
    children_right: np.ndarray,
    feature: np.ndarray,
    roots: np.ndarray,
) -> int:
    """Longest root→leaf path (in edges), by vectorized frontier sweep.

    This is the iteration bound for parked descent and the
    ``max_depth_reached`` of a single tree (pass a one-element root).
    """
    internal = feature != LEAF
    depth = 0
    frontier = roots[internal[roots]]
    while frontier.size:
        depth += 1
        children = np.concatenate(
            (children_left[frontier], children_right[frontier])
        )
        frontier = children[internal[children]]
    return depth


def reference_apply(
    X: np.ndarray,
    children_left: np.ndarray,
    children_right: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    root: int = 0,
) -> np.ndarray:
    """The seed per-row, per-node Python traversal (one tree).

    Kept as the ground-truth reference the equivalence tests and
    ``benchmarks/bench_predict_throughput.py`` measure the engine against.
    """
    leaves = np.empty(len(X), dtype=np.int64)
    for row in range(len(X)):
        node = root
        while children_left[node] != LEAF:
            if X[row, feature[node]] <= threshold[node]:
                node = children_left[node]
            else:
                node = children_right[node]
        leaves[row] = node
    return leaves


class _TreeView:
    """One tree of a :class:`FlatEnsemble`, in per-tree attribute naming.

    Exposes ``children_left_`` / ``children_right_`` / ``feature_`` /
    ``threshold_`` / ``value_`` (and ``n_node_samples_`` / ``n_features_``
    when available) with *local* node ids — the exact contract
    :func:`repro.analysis.shap_values.tree_shap_values` traverses.
    """

    def __init__(self, flat: "FlatEnsemble", index: int):
        start, stop = flat.offsets[index], flat.offsets[index + 1]
        shift = np.int64(start)
        left = flat.children_left[start:stop].copy()
        right = flat.children_right[start:stop].copy()
        left[left != LEAF] -= shift
        right[right != LEAF] -= shift
        self.children_left_ = left
        self.children_right_ = right
        self.feature_ = flat.feature[start:stop]
        self.threshold_ = flat.threshold[start:stop]
        self.value_ = flat.value[start:stop]
        if flat.n_node_samples is not None:
            self.n_node_samples_ = flat.n_node_samples[start:stop]
        self.n_features_ = flat.n_features


@dataclass
class FlatEnsemble:
    """A fitted ensemble compiled to contiguous stacked node arrays.

    Attributes:
        children_left / children_right: ``(total_nodes,)`` global child ids
            (``LEAF`` for leaves).
        feature: ``(total_nodes,)`` split feature (``LEAF`` for leaves).
        threshold: ``(total_nodes,)`` split threshold (bin id for binned
            trees, stored as float64 — exact for the small integer bins).
        value: ``(total_nodes, n_outputs)`` leaf/node payload — class
            fractions for CART trees, a single leaf-weight column for
            boosted regression trees.
        offsets: ``(n_trees + 1,)`` prefix of per-tree node counts; tree
            ``i`` occupies rows ``offsets[i]:offsets[i+1]`` and its root is
            ``offsets[i]``.
        n_features: Feature-space width the ensemble was fitted on.
        n_node_samples: Optional ``(total_nodes,)`` per-node training-sample
            counts (stacked for CART trees; TreeSHAP weighs paths with it).
    """

    children_left: np.ndarray
    children_right: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    offsets: np.ndarray
    n_features: int
    n_node_samples: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    @classmethod
    def from_arrays(
        cls,
        per_tree: list[tuple],
        n_features: int,
        n_node_samples: list[np.ndarray] | None = None,
    ) -> "FlatEnsemble":
        """Stack per-tree ``(left, right, feature, threshold, value)`` tuples.

        Child ids in the inputs are tree-local; stacking offsets every
        non-``LEAF`` id by the tree's base so descent runs on global ids.
        """
        counts = [len(arrays[0]) for arrays in per_tree]
        offsets = np.zeros(len(per_tree) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        lefts, rights, features, thresholds, values = [], [], [], [], []
        for base, (left, right, feature, threshold, value) in zip(
            offsets[:-1], per_tree
        ):
            left = np.asarray(left, dtype=np.int64).copy()
            right = np.asarray(right, dtype=np.int64).copy()
            left[left != LEAF] += base
            right[right != LEAF] += base
            lefts.append(left)
            rights.append(right)
            features.append(np.asarray(feature, dtype=np.int64))
            thresholds.append(np.asarray(threshold, dtype=np.float64))
            value = np.asarray(value, dtype=np.float64)
            if value.ndim == 1:
                value = value[:, None]
            values.append(value)
        return cls(
            children_left=np.concatenate(lefts),
            children_right=np.concatenate(rights),
            feature=np.concatenate(features),
            threshold=np.concatenate(thresholds),
            value=np.concatenate(values),
            offsets=offsets,
            n_features=n_features,
            n_node_samples=(
                np.concatenate(
                    [np.asarray(s, dtype=np.int64) for s in n_node_samples]
                )
                if n_node_samples is not None
                else None
            ),
        )

    @classmethod
    def from_cart_trees(cls, trees: list) -> "FlatEnsemble":
        """Compile fitted :class:`~repro.ml.tree.DecisionTreeClassifier` trees."""
        return cls.from_arrays(
            [
                (
                    tree.children_left_,
                    tree.children_right_,
                    tree.feature_,
                    tree.threshold_,
                    tree.value_,
                )
                for tree in trees
            ],
            n_features=trees[0].n_features_,
            n_node_samples=[tree.n_node_samples_ for tree in trees],
        )

    @classmethod
    def from_regression_trees(
        cls, trees: list, n_features: int, threshold_attr: str = "thresholds"
    ) -> "FlatEnsemble":
        """Compile the gbdt module's regression trees (scalar leaf weights).

        ``threshold_attr`` selects raw thresholds (:class:`_ExactTree`) or
        split-bin ids (:class:`_LeafwiseTree`, ``"bins"``).
        """
        return cls.from_arrays(
            [
                (
                    tree.lefts,
                    tree.rights,
                    tree.features,
                    getattr(tree, threshold_attr),
                    tree.weights,
                )
                for tree in trees
            ],
            n_features=n_features,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1

    @property
    def node_count(self) -> int:
        return len(self.children_left)

    @property
    def roots(self) -> np.ndarray:
        return self.offsets[:-1]

    def tree_view(self, index: int) -> _TreeView:
        """Tree ``index`` under the per-tree (TreeSHAP) attribute contract."""
        return _TreeView(self, index)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #

    def _descent_tables(self) -> tuple:
        """Leaf-parked node tables + depth bound (built once, cached).

        Leaves are rewritten to self-loop — ``left = right = self``,
        ``threshold = +inf`` (every finite x goes left), ``feature = 0`` —
        so the descent loop needs no per-level settledness bookkeeping at
        all: it runs exactly ``max_depth`` data-independent iterations and
        settled pairs park in place. Bit-identity is unaffected; internal
        nodes keep their original comparisons.
        """
        cached = self.__dict__.get("_tables")
        if cached is not None:
            return cached
        leaf = self.feature == LEAF
        node_ids = np.arange(self.node_count, dtype=np.int64)
        left = np.where(leaf, node_ids, self.children_left)
        right = np.where(leaf, node_ids, self.children_right)
        feat = np.where(leaf, 0, self.feature)
        thr = np.where(leaf, np.inf, self.threshold)
        internal = ~leaf
        consecutive = bool(
            np.array_equal(
                self.children_right[internal], self.children_left[internal] + 1
            )
        )
        depth = max_leaf_depth(
            self.children_left, self.children_right, self.feature, self.roots
        )
        self.__dict__["_tables"] = (left, right, feat, thr, consecutive, depth)
        return self.__dict__["_tables"]

    def apply(self, X, chunk_rows: int = DESCENT_CHUNK_ROWS) -> np.ndarray:
        """``(n_samples, n_trees)`` global leaf ids (level-synchronous).

        Runs the leaf-parked full-set descent: ``max_depth`` branch-free
        numpy iterations over every (sample, tree) pair, chunked over
        samples to bound temporaries.
        """
        X = np.asarray(X)
        n_samples = len(X)
        if n_samples <= chunk_rows:
            return self._parked_descent(X)
        out = np.empty((n_samples, self.n_trees), dtype=np.int64)
        for start in range(0, n_samples, chunk_rows):
            stop = start + chunk_rows
            out[start:stop] = self._parked_descent(X[start:stop])
        return out

    def _parked_descent(self, X):
        left, right, feat, thr, consecutive, depth = self._descent_tables()
        n_samples, n_columns = X.shape
        if n_columns < self.n_features:
            raise ValueError(
                f"X has {n_columns} features; the ensemble was fitted on "
                f"{self.n_features}"
            )
        # Split values gather through one flat index, row * n_columns +
        # feature, instead of a 2-D fancy index. ravel() flattens in row
        # order: a view of a C-contiguous X, one copy of any other layout.
        flat_x = X.ravel()
        row_base = (np.arange(n_samples) * n_columns)[:, None]
        nodes = np.repeat(self.roots[None, :], n_samples, axis=0)
        for __ in range(depth):
            go_right = flat_x[row_base + feat[nodes]] > thr[nodes]
            if consecutive:
                # right = left + 1 on internal nodes; parked leaves have
                # threshold +inf so go_right is always False there.
                nodes = left[nodes] + go_right
            else:
                nodes = np.where(go_right, right[nodes], left[nodes])
        return nodes

    def _leaf_total(self, X, start, scale) -> np.ndarray:
        """``start + Σ_t scale·value[leaf_t]`` per sample, in tree order.

        Per chunk, one gather lays out ``[start, scale·v₀, scale·v₁, …]``
        along a tree axis and ``np.add.accumulate`` sums it sequentially,
        so the last slice is bit-identical to the reference loop
        ``total = start; for t: total += scale * v_t`` (``scale = 1``
        leaves every ``v_t`` exact). Pairwise ``np.sum`` would round
        differently.

        Returns:
            ``(n_samples, n_outputs)`` float64 totals.
        """
        X = np.asarray(X)
        n_outputs = self.value.shape[1]
        total = np.empty((len(X), n_outputs))
        for begin in range(0, len(X), DESCENT_CHUNK_ROWS):
            stop = begin + DESCENT_CHUNK_ROWS
            leaves = self._parked_descent(X[begin:stop])
            terms = np.empty((len(leaves), self.n_trees + 1, n_outputs))
            terms[:, 0] = start
            # ``take`` gathers whole value rows far faster than value[leaves].
            np.multiply(
                np.take(self.value, leaves, axis=0), scale, out=terms[:, 1:]
            )
            total[begin:stop] = np.add.accumulate(terms, axis=1)[:, -1]
        return total

    def predict_proba_mean(self, X) -> np.ndarray:
        """Forest-style probability: mean of per-tree class fractions.

        Sums the trees' leaf ``value`` rows from zero in tree order (one
        gather and one sequential accumulate per chunk), then divides by
        the tree count — bit-identical to the reference per-tree ``+=``
        loop.
        """
        return self._leaf_total(X, 0.0, 1.0) / self.n_trees

    def decision_sum(self, X, learning_rate: float, base_score: float) -> np.ndarray:
        """Boosting-style raw score: ``base + lr * Σ_t weight_t`` per sample.

        Accumulates ``[base, lr·w₀, lr·w₁, …]`` in boosting order, each
        ``lr·w`` the same elementwise product the reference sequential loop
        adds, so the score is bit-identical to it.
        """
        return self._leaf_total(X, base_score, learning_rate)[:, 0]


def precompile(model) -> int:
    """Force flat compilation of every ensemble reachable from ``model``.

    Walks detector wrappers (``classifier_`` on HSC detectors, ``model`` /
    ``_model`` on services) and calls ``compile_flat()`` wherever exposed, so
    serve/stream cold starts and evaluation folds pay the (cheap, one-off)
    array stacking at fit time rather than inside the first scored batch.

    Returns:
        Number of compiled ensembles reached (0 for models with no flat
        representation — compilation is strictly additive).
    """
    count = 0
    seen: set[int] = set()
    stack = [model]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        compile_flat = getattr(node, "compile_flat", None)
        if callable(compile_flat):
            if compile_flat() is not None:
                count += 1
            continue
        for attr in ("classifier_", "model", "_model"):
            stack.append(getattr(node, attr, None))
    return count
