"""Tests for the HSC opcode-histogram extractor."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.evm.disassembler import (
    MNEMONIC_COUNT,
    MNEMONIC_IDS,
    decode_mnemonic_ids,
)
from repro.features.histogram import OpcodeHistogramExtractor

PROLOGUE = bytes.fromhex("6080604052")  # PUSH1 PUSH1 MSTORE
STOP_ONLY = b"\x00"


class TestFitTransform:
    def test_vocabulary_from_training_set(self):
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        assert set(extractor.vocabulary_) == {"PUSH1", "MSTORE"}
        assert extractor.feature_names == sorted(["PUSH1", "MSTORE"])

    def test_counts(self):
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        matrix = extractor.transform([PROLOGUE])
        row = dict(zip(extractor.feature_names, matrix[0]))
        assert row["PUSH1"] == 2.0
        assert row["MSTORE"] == 1.0

    def test_unseen_opcodes_ignored(self):
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        matrix = extractor.transform([STOP_ONLY])  # STOP not in vocabulary
        assert matrix.shape == (1, 2)
        assert np.all(matrix == 0.0)

    def test_counts_are_raw_not_normalized(self):
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE * 3])
        matrix = extractor.transform([PROLOGUE * 3])
        assert matrix.max() == 6.0  # raw occurrence counts

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            OpcodeHistogramExtractor().transform([PROLOGUE])
        with pytest.raises(RuntimeError):
            __ = OpcodeHistogramExtractor().feature_names

    def test_fit_transform_equals_fit_then_transform(self):
        codes = [PROLOGUE, STOP_ONLY, PROLOGUE + STOP_ONLY]
        a = OpcodeHistogramExtractor().fit_transform(codes)
        extractor = OpcodeHistogramExtractor().fit(codes)
        b = extractor.transform(codes)
        assert np.array_equal(a, b)

    def test_is_fitted_flag(self):
        extractor = OpcodeHistogramExtractor()
        assert not extractor.is_fitted
        extractor.fit([PROLOGUE])
        assert extractor.is_fitted


class TestSingleDecode:
    def _counting_decoder(self):
        from repro.evm.disassembler import decode_mnemonic_ids

        calls = []

        def decoder(bytecode):
            calls.append(bytecode)
            return decode_mnemonic_ids(bytecode)

        return decoder, calls

    def test_fit_transform_decodes_each_bytecode_once(self):
        # The seed implementation disassembled everything twice (fit, then
        # transform).
        decoder, calls = self._counting_decoder()
        codes = [PROLOGUE, STOP_ONLY, PROLOGUE + STOP_ONLY]
        extractor = OpcodeHistogramExtractor()
        extractor.set_decoder(decoder)
        extractor.fit_transform(codes)
        assert calls == codes

    def test_fit_then_transform_decodes_twice(self):
        decoder, calls = self._counting_decoder()
        codes = [PROLOGUE, STOP_ONLY]
        extractor = OpcodeHistogramExtractor()
        extractor.set_decoder(decoder)
        extractor.fit(codes)
        extractor.transform(codes)
        assert calls == codes * 2

    def test_cached_decoder_yields_identical_features(self):
        from repro.serve.cache import FeatureCache

        codes = [PROLOGUE, STOP_ONLY, PROLOGUE * 4, bytes(range(64))]
        plain = OpcodeHistogramExtractor().fit_transform(codes)
        cache = FeatureCache()
        cached_extractor = OpcodeHistogramExtractor()
        cached_extractor.set_decoder(cache.mnemonic_ids)
        cached = cached_extractor.fit_transform(codes)
        assert np.array_equal(plain, cached)
        # And again, now that every decode is a hit.
        assert np.array_equal(cached_extractor.transform(codes), plain)
        assert cache.stats.hits > 0

    def test_transform_decodes_each_bytecode_once_in_order(self):
        # More rows than one offset bincount counts, so the blocks must
        # not decode anything twice or out of order either.
        decoder, calls = self._counting_decoder()
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        extractor.set_decoder(decoder)
        codes = [PROLOGUE * (index % 7) for index in range(600)]
        matrix = extractor.transform(codes)
        assert calls == codes
        assert matrix[:, extractor.vocabulary_["PUSH1"]].tolist() == [
            2.0 * (index % 7) for index in range(600)
        ]

    def test_set_decoder_is_clearable(self):
        decoder, calls = self._counting_decoder()
        extractor = OpcodeHistogramExtractor()
        assert extractor.set_decoder(decoder) is None
        extractor.fit([PROLOGUE])
        assert len(calls) == 1
        assert extractor.set_decoder(None) is decoder
        extractor.transform([PROLOGUE])
        assert len(calls) == 1  # direct decode, counter untouched


class TestProperties:
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=8))
    def test_row_sums_bounded_by_instruction_count(self, codes):
        extractor = OpcodeHistogramExtractor().fit(codes)
        matrix = extractor.transform(codes)
        assert matrix.shape[0] == len(codes)
        assert np.all(matrix >= 0)
        # Each instruction contributes at most one count.
        for row, code in zip(matrix, codes):
            assert row.sum() <= len(code)

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=8))
    def test_self_transform_never_all_zero(self, codes):
        extractor = OpcodeHistogramExtractor().fit(codes)
        matrix = extractor.transform(codes)
        assert np.all(matrix.sum(axis=1) > 0)


def _reference_transform(extractor, codes):
    """One decode and one ``np.bincount`` per contract, gathered to the
    fitted columns."""
    columns = [MNEMONIC_IDS[name] for name in extractor.feature_names]
    matrix = np.zeros((len(codes), len(columns)), dtype=np.float64)
    for row, code in enumerate(codes):
        counts = np.bincount(decode_mnemonic_ids(code), minlength=MNEMONIC_COUNT)
        matrix[row] = counts[columns]
    return matrix


_VOCABULARY_CORPUS = [PROLOGUE, bytes(range(0, 256, 3)), bytes.fromhex("5b5b56")]

_BYTECODE = st.binary(max_size=96) | st.binary(max_size=96).map(
    lambda raw: "0x" + raw.hex()
) | st.binary(max_size=96).map(bytes.hex)


class TestBatchedTransform:
    @given(st.lists(_BYTECODE, max_size=12))
    def test_equals_per_row_reference(self, codes):
        extractor = OpcodeHistogramExtractor().fit(_VOCABULARY_CORPUS)
        matrix = extractor.transform(codes)
        expected = _reference_transform(extractor, codes)
        assert matrix.dtype == expected.dtype
        assert matrix.flags.c_contiguous
        assert np.array_equal(matrix, expected)

    def test_more_rows_than_one_block(self):
        codes = [bytes(range(index % 256)) for index in range(700)]
        extractor = OpcodeHistogramExtractor().fit(codes[:300])
        assert np.array_equal(
            extractor.transform(codes), _reference_transform(extractor, codes)
        )
        assert np.array_equal(
            OpcodeHistogramExtractor().fit_transform(codes),
            OpcodeHistogramExtractor().fit(codes).transform(codes),
        )

    def test_column_index_follows_refit(self):
        # A stale column index would still count the first vocabulary's
        # opcodes; a 144-mnemonic vocabulary would hide that.
        other = [STOP_ONLY, bytes.fromhex("5b01")]  # STOP, JUMPDEST, ADD
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        extractor.transform([PROLOGUE])
        extractor.fit(other)
        assert extractor.feature_names == ["ADD", "JUMPDEST", "STOP"]
        codes = [PROLOGUE, STOP_ONLY, bytes.fromhex("5b0101")]
        assert np.array_equal(
            extractor.transform(codes), _reference_transform(extractor, codes)
        )
        assert extractor.transform(codes).tolist() == [
            [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0],
        ]

    def test_column_index_follows_fit_transform(self):
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        assert extractor.fit_transform([STOP_ONLY]).tolist() == [[1.0]]
        assert extractor.transform([PROLOGUE, STOP_ONLY]).tolist() == [
            [0.0], [1.0],
        ]

    def test_column_index_follows_load_state(self):
        source = OpcodeHistogramExtractor().fit([STOP_ONLY, bytes.fromhex("5b01")])
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        extractor.transform([PROLOGUE])
        extractor.load_state(source.state_dict())
        codes = [PROLOGUE, STOP_ONLY, bytes.fromhex("5b0101")]
        assert np.array_equal(extractor.transform(codes), source.transform(codes))
        assert np.array_equal(
            extractor.transform(codes), _reference_transform(extractor, codes)
        )

    def test_empty_batch(self):
        extractor = OpcodeHistogramExtractor().fit([PROLOGUE])
        assert extractor.transform([]).shape == (0, 2)
        assert extractor.transform([b""]).tolist() == [[0.0, 0.0]]
