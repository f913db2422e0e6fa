"""Histogram Similarity Classifiers — the seven HSC rows of Table II.

Opcode-occurrence histograms (vocabulary learned on the training set, raw
counts, no normalization) fed to a classical classifier.

The classifier sees only the histogram row, so two contracts with the same
row get the same probabilities. For the tree ensembles, ``predict_proba``
scores each distinct row of a batch once and copies the result to its
repeats: EIP-1167 clones that differ only in their delegate address share
one row. This needs no cache, because the repeats sit inside one batch.
The other variants score the whole matrix: their BLAS products round a
row differently depending on how many rows the batch holds, so only the
whole batch reproduces the per-row reference bit for bit.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from repro.features.histogram import OpcodeHistogramExtractor
from repro.ml import (
    CatBoostClassifier,
    KNeighborsClassifier,
    LightGBMClassifier,
    LogisticRegression,
    RandomForestClassifier,
    SVC,
    XGBoostClassifier,
)
from repro.models.detector import PhishingDetector

__all__ = ["HSCDetector", "HSC_VARIANTS", "make_hsc"]

def _forest_jobs() -> int | None:
    """Worker processes for forest training (``PHOOK_N_JOBS``; -1 = all).

    Predictions are bit-identical at any setting — the forest pre-derives
    per-tree seeds — so this is purely a wall-clock knob for campaigns.
    Unset, empty, or ``0`` all mean serial, matching the other ``PHOOK_*``
    flags where 0 is "off".
    """
    value = os.environ.get("PHOOK_N_JOBS")
    return int(value) if value and int(value) != 0 else None


#: Factory per Table II HSC row. Hyperparameters are the defaults selected
#: by the tuning study (see core.tuning and EXPERIMENTS.md).
HSC_VARIANTS: dict[str, callable] = {
    "Random Forest": lambda seed: RandomForestClassifier(
        n_estimators=120, max_features="sqrt", random_state=seed,
        n_jobs=_forest_jobs(),
    ),
    "k-NN": lambda seed: KNeighborsClassifier(n_neighbors=5),
    "SVM": lambda seed: SVC(
        C=10.0, gamma="scale", n_components=384, random_state=seed
    ),
    "Logistic Regression": lambda seed: LogisticRegression(C=1.0),
    "XGBoost": lambda seed: XGBoostClassifier(
        n_estimators=80, learning_rate=0.3, max_depth=4
    ),
    "LightGBM": lambda seed: LightGBMClassifier(
        n_estimators=80, learning_rate=0.15, num_leaves=15
    ),
    "CatBoost": lambda seed: CatBoostClassifier(
        n_estimators=80, learning_rate=0.15, depth=4
    ),
}


#: Variants whose classifier scores each row on its own (tree descent), so
#: scoring only a batch's distinct rows is bit-identical to scoring all.
_ROW_WISE_VARIANTS = frozenset(
    {"Random Forest", "XGBoost", "LightGBM", "CatBoost"}
)


class HSCDetector(PhishingDetector):
    """One opcode-histogram classifier.

    Args:
        variant: A key of :data:`HSC_VARIANTS`.
        seed: Seed forwarded to stochastic classifiers.
    """

    category = "HSC"

    def __init__(self, variant: str = "Random Forest", seed: int = 0):
        if variant not in HSC_VARIANTS:
            raise ValueError(
                f"unknown HSC variant {variant!r}; "
                f"choose from {sorted(HSC_VARIANTS)}"
            )
        self.variant = variant
        self.seed = seed
        self.name = variant
        self.extractor_ = OpcodeHistogramExtractor()
        self.classifier_ = HSC_VARIANTS[variant](seed)

    def get_params(self) -> dict:
        return {"variant": self.variant, "seed": self.seed,
                **{f"clf__{k}": v for k, v in self.classifier_.get_params().items()}}

    def set_params(self, **params) -> "HSCDetector":
        for name, value in params.items():
            if name.startswith("clf__"):
                self.classifier_.set_params(**{name[5:]: value})
            else:
                super().set_params(**{name: value})
        return self

    def use_feature_cache(self, cache):
        """Decode mnemonic-ID arrays through a shared FeatureCache.

        Returns a callable that puts the previous decoder back.
        """
        return partial(self.extractor_.set_decoder,
                       self.extractor_.set_decoder(cache.mnemonic_ids))

    def fit(self, bytecodes, labels) -> "HSCDetector":
        features = self.extractor_.fit_transform(bytecodes)
        self.classifier_.fit(features, np.asarray(labels))
        return self

    def fit_more(self, bytecodes, labels, n_more: int) -> "HSCDetector":
        """Grow the fitted classifier by ``n_more`` trees on new data.

        Warm-start entry point for the continuous-learning loop: the
        extractor's vocabulary stays frozen (``transform``, not
        ``fit_transform`` — old trees split on the fitted feature space)
        and the classifier continues from its fitted state. Only
        ensemble variants support this; anything else raises
        ``TypeError`` so the loop can surface a config error instead of
        silently cold-refitting.
        """
        grow = getattr(self.classifier_, "fit_more", None)
        if grow is None:
            raise TypeError(
                f"HSC variant {self.variant!r} does not support "
                "warm-start fit_more"
            )
        features = self.extractor_.transform(bytecodes)
        grow(features, np.asarray(labels), n_more)
        return self

    def predict_proba(self, bytecodes) -> np.ndarray:
        """Class probabilities, one descent per distinct histogram row.

        Rows are keyed by their exact bytes in first-occurrence order, so
        the result is bit-identical to scoring every row; a batch without
        a repeated row, or a variant outside :data:`_ROW_WISE_VARIANTS`,
        goes to the classifier whole.
        """
        features = self.extractor_.transform(bytecodes)
        if self.variant in _ROW_WISE_VARIANTS:
            first: dict[bytes, int] = {}
            owners = [
                first.setdefault(row.tobytes(), position)
                for position, row in enumerate(features)
            ]
            if len(first) < len(owners):
                unique = np.fromiter(first.values(), dtype=np.intp)
                proba = self.classifier_.predict_proba(features[unique])
                return proba[np.searchsorted(unique, owners)]
        return self.classifier_.predict_proba(features)

    # ------------------------------------------------------------------ #
    # Persistence (see repro.artifacts)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Extractor vocabulary + classifier state and hyperparameters.

        The classifier's ``get_params()`` ride along because tuned values
        (``set_params(clf__…)``) diverge from the variant factory's
        defaults — a loaded detector must serve the tuned model.
        """
        return {
            "extractor": self.extractor_.state_dict(),
            "classifier_params": self.classifier_.get_params(),
            "classifier": self.classifier_.state_dict(),
        }

    def load_state(self, state: dict) -> "HSCDetector":
        self.extractor_ = OpcodeHistogramExtractor().load_state(
            state["extractor"]
        )
        classifier = HSC_VARIANTS[self.variant](self.seed)
        classifier.set_params(**state["classifier_params"])
        self.classifier_ = classifier.load_state(state["classifier"])
        return self


def make_hsc(variant: str, seed: int = 0) -> HSCDetector:
    """Convenience factory mirroring the registry naming."""
    return HSCDetector(variant=variant, seed=seed)
