"""Tests for the seven histogram similarity classifiers."""

import numpy as np
import pytest

from repro.datagen.mutation import minimal_proxy
from repro.evm.disassembler import (
    MNEMONIC_COUNT,
    MNEMONIC_IDS,
    decode_mnemonic_ids,
)
from repro.ml.metrics import accuracy_score
from repro.models.hsc import HSC_VARIANTS, HSCDetector


class TestConstruction:
    def test_all_seven_variants_exist(self):
        assert len(HSC_VARIANTS) == 7
        assert set(HSC_VARIANTS) == {
            "Random Forest", "k-NN", "SVM", "Logistic Regression",
            "XGBoost", "LightGBM", "CatBoost",
        }

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            HSCDetector(variant="AdaBoost")

    def test_name_and_category(self):
        detector = HSCDetector(variant="Random Forest")
        assert detector.name == "Random Forest"
        assert detector.category == "HSC"

    def test_params_roundtrip(self):
        detector = HSCDetector(variant="Random Forest", seed=5)
        params = detector.get_params()
        assert params["variant"] == "Random Forest"
        assert params["clf__n_estimators"] == 120
        detector.set_params(clf__n_estimators=10)
        assert detector.classifier_.n_estimators == 10

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            HSCDetector().set_params(bogus=1)


@pytest.mark.parametrize("variant", sorted(HSC_VARIANTS))
class TestAllVariantsLearn:
    def test_beats_chance_on_synthetic_corpus(self, variant, tiny_split):
        train, test = tiny_split
        detector = HSCDetector(variant=variant, seed=0)
        if variant in ("XGBoost", "LightGBM", "CatBoost"):
            detector.set_params(clf__n_estimators=25)
        if variant == "Random Forest":
            detector.set_params(clf__n_estimators=40)
        detector.fit(train.bytecodes, train.labels)
        accuracy = accuracy_score(test.labels, detector.predict(test.bytecodes))
        assert accuracy > 0.62, f"{variant} accuracy {accuracy:.3f}"

    def test_probabilities_shape_and_range(self, variant, tiny_split):
        train, test = tiny_split
        detector = HSCDetector(variant=variant, seed=0)
        if variant in ("Random Forest", "XGBoost", "LightGBM", "CatBoost"):
            detector.set_params(clf__n_estimators=10)
        detector.fit(train.bytecodes, train.labels)
        proba = detector.predict_proba(test.bytecodes)
        assert proba.shape == (len(test.bytecodes), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestVocabularyIsolation:
    def test_vocabulary_learned_on_train_only(self, tiny_split):
        train, test = tiny_split
        detector = HSCDetector(variant="k-NN")
        detector.fit(train.bytecodes, train.labels)
        vocab_size = len(detector.extractor_.vocabulary_)
        detector.predict(test.bytecodes)
        assert len(detector.extractor_.vocabulary_) == vocab_size


def _reference_proba(detector, bytecodes):
    """Per-row reference: one decode and one ``np.bincount`` per contract,
    gathered to the fitted columns and scored as one full matrix."""
    columns = [MNEMONIC_IDS[name] for name in detector.extractor_.feature_names]
    matrix = np.zeros((len(bytecodes), len(columns)), dtype=np.float64)
    for row, code in enumerate(bytecodes):
        counts = np.bincount(decode_mnemonic_ids(code), minlength=MNEMONIC_COUNT)
        matrix[row] = counts[columns]
    return detector.classifier_.predict_proba(matrix)


@pytest.fixture(scope="module", params=sorted(HSC_VARIANTS))
def fitted_variant(request, tiny_split):
    train, __ = tiny_split
    detector = HSCDetector(variant=request.param, seed=0)
    if request.param in ("Random Forest", "XGBoost", "LightGBM", "CatBoost"):
        detector.set_params(clf__n_estimators=10)
    return detector.fit(train.bytecodes, train.labels)


def _clones(count):
    return [minimal_proxy(0x1000 + 7 * index) for index in range(count)]


def _base_and_clone_mix(test):
    bases, clones = iter(test.bytecodes[:3]), iter(_clones(13))
    # Scanbench's request shape: a base in every fifth slot or so.
    return [next(bases) if slot in (0, 5, 11) else next(clones)
            for slot in range(16)]


_BATCHES = {
    "clones": lambda test: _clones(16),
    "distinct": lambda test: list(test.bytecodes[:16]),
    "mix": _base_and_clone_mix,
    "single": lambda test: [test.bytecodes[0]],
    "empty-bytecode": lambda test: [b"", test.bytecodes[1], b""],
    "hex": lambda test: ["0x" + test.bytecodes[2].hex(),
                         test.bytecodes[2].hex(), test.bytecodes[3]],
}


class TestInBatchDedup:
    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    def test_bit_identical_to_per_row_reference(
        self, fitted_variant, tiny_split, batch
    ):
        codes = _BATCHES[batch](tiny_split[1])
        proba = fitted_variant.predict_proba(codes)
        expected = _reference_proba(fitted_variant, codes)
        assert proba.dtype == expected.dtype
        assert np.array_equal(proba, expected)

    def test_empty_batch(self, fitted_variant):
        assert fitted_variant.predict_proba([]).shape == (0, 2)

    def test_only_distinct_rows_reach_the_classifier(self, tiny_split):
        train, test = tiny_split
        detector = HSCDetector(variant="Random Forest", seed=0)
        detector.set_params(clf__n_estimators=10)
        detector.fit(train.bytecodes, train.labels)
        seen = []
        score = detector.classifier_.predict_proba

        def spy(features):
            seen.append(features.copy())
            return score(features)

        detector.classifier_.predict_proba = spy
        codes = _base_and_clone_mix(test)
        distinct = {
            row.tobytes() for row in detector.extractor_.transform(codes)
        }
        proba = detector.predict_proba(codes)
        assert len(seen) == 1
        (scored,) = seen
        assert len(scored) == len(distinct) == 4
        assert {row.tobytes() for row in scored} == distinct
        assert np.array_equal(proba, _reference_proba(detector, codes))
        # Every clone shares one row, so every clone shares one verdict.
        clones = [row for row, code in zip(proba, codes) if len(code) == 45]
        assert len(clones) == 13 and all(
            np.array_equal(row, clones[0]) for row in clones
        )

        seen.clear()
        detector.predict_proba(list(test.bytecodes[:3]))
        assert len(seen) == 1 and len(seen[0]) == 3
