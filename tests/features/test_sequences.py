"""Tests for the SCSGuard n-gram encoder and the LM tokenizers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.features.ngrams import PAD_ID, UNK_ID, HexNgramEncoder
from repro.features.tokenizer import (
    BOS_ID,
    EOS_ID,
    OpcodeTokenizer,
)
from repro.features.tokenizer import PAD_ID as TOK_PAD


class TestHexNgrams:
    def test_tokens_are_six_hex_chars(self):
        encoder = HexNgramEncoder()
        tokens = encoder.tokens(bytes.fromhex("aabbccddeeff"))
        assert tokens == ["aabbcc", "ddeeff"]

    def test_short_bytecode_yields_no_full_token(self):
        encoder = HexNgramEncoder()
        assert encoder.tokens(b"\x01") == []

    def test_overlapping_stride(self):
        encoder = HexNgramEncoder(stride=2)
        tokens = encoder.tokens(bytes.fromhex("aabbccdd"))
        assert tokens == ["aabbcc", "bbccdd"]

    def test_fit_transform_shape_and_padding(self):
        codes = [bytes.fromhex("aabbccddeeff"), bytes.fromhex("aabbcc")]
        encoder = HexNgramEncoder(max_length=4)
        matrix = encoder.fit_transform(codes)
        assert matrix.shape == (2, 4)
        assert matrix[1, 1] == PAD_ID  # second sample has one token

    def test_unknown_token_maps_to_unk(self):
        encoder = HexNgramEncoder(max_length=4).fit([bytes.fromhex("aabbcc")])
        matrix = encoder.transform([bytes.fromhex("112233")])
        assert matrix[0, 0] == UNK_ID

    def test_vocab_cap(self):
        rng = np.random.default_rng(0)
        codes = [bytes(rng.integers(0, 256, size=300, dtype=np.uint8))
                 for __ in range(10)]
        encoder = HexNgramEncoder(vocab_size=16).fit(codes)
        assert encoder.effective_vocab_size <= 16
        matrix = encoder.transform(codes)
        assert matrix.max() < 16

    def test_truncation(self):
        encoder = HexNgramEncoder(max_length=2).fit([bytes(range(30))])
        matrix = encoder.transform([bytes(range(30))])
        assert matrix.shape == (1, 2)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            HexNgramEncoder(chars_per_token=5)
        with pytest.raises(ValueError):
            HexNgramEncoder(vocab_size=2)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HexNgramEncoder().transform([b"\x00"])

    @given(st.binary(min_size=0, max_size=200))
    def test_ids_always_in_vocab_range(self, code):
        encoder = HexNgramEncoder(max_length=16, vocab_size=64).fit([code])
        matrix = encoder.transform([code])
        assert matrix.min() >= 0
        assert matrix.max() < 64

    @given(st.binary(min_size=0, max_size=200),
           st.sampled_from([(6, None), (6, 2), (4, 3), (2, None)]))
    def test_token_codes_match_string_tokens(self, code, params):
        width, stride = params
        encoder = HexNgramEncoder(chars_per_token=width, stride=stride)
        assert encoder.token_codes(code).tolist() == [
            int(token, 16) for token in encoder.tokens(code)
        ]

    def test_vocabulary_matches_counter_reference(self):
        from collections import Counter

        rng = np.random.default_rng(1)
        codes = [bytes(rng.integers(0, 256, size=90, dtype=np.uint8))
                 for __ in range(6)]
        encoder = HexNgramEncoder(vocab_size=32).fit(codes)
        counts = Counter()
        for code in codes:
            counts.update(encoder.tokens(code))
        expected = {
            token: index + 2
            for index, (token, __) in enumerate(counts.most_common(30))
        }
        assert encoder.vocabulary_ == expected


class TestOpcodeTokenizer:
    PROLOGUE = bytes.fromhex("6080604052")

    def test_ids_have_bos_eos(self):
        tokenizer = OpcodeTokenizer(max_length=16).fit([self.PROLOGUE])
        ids = tokenizer.ids(self.PROLOGUE)
        assert ids[0] == BOS_ID
        assert ids[-1] == EOS_ID
        assert len(ids) == 5  # BOS + 3 instructions + EOS

    def test_vocab_size(self):
        tokenizer = OpcodeTokenizer().fit([self.PROLOGUE])
        assert tokenizer.vocab_size == 4 + 2  # reserved + PUSH1 + MSTORE

    def test_alpha_truncates(self):
        tokenizer = OpcodeTokenizer(max_length=4).fit([self.PROLOGUE])
        matrix = tokenizer.encode_alpha([self.PROLOGUE])
        assert matrix.shape == (1, 4)
        assert matrix[0, 0] == BOS_ID

    def test_alpha_pads(self):
        tokenizer = OpcodeTokenizer(max_length=10).fit([self.PROLOGUE])
        matrix = tokenizer.encode_alpha([self.PROLOGUE])
        assert matrix[0, 5] == TOK_PAD
        assert matrix[0, 4] == EOS_ID

    def test_beta_covers_full_sequence(self):
        tokenizer = OpcodeTokenizer(max_length=4, window_stride=2).fit(
            [self.PROLOGUE]
        )
        long_code = self.PROLOGUE * 20
        windows = tokenizer.encode_beta(long_code)
        total_ids = len(tokenizer.ids(long_code))
        assert windows.shape[1] == 4
        # Last window must reach the end of the sequence.
        assert windows.shape[0] == int(np.ceil((total_ids - 4) / 2)) + 1

    def test_beta_short_sequence_single_window(self):
        tokenizer = OpcodeTokenizer(max_length=32).fit([self.PROLOGUE])
        windows = tokenizer.encode_beta(self.PROLOGUE)
        assert windows.shape == (1, 32)

    def test_beta_batch_ownership(self):
        tokenizer = OpcodeTokenizer(max_length=8, window_stride=4).fit(
            [self.PROLOGUE]
        )
        windows, owners = tokenizer.encode_beta_batch(
            [self.PROLOGUE, self.PROLOGUE * 10]
        )
        assert windows.shape[0] == len(owners)
        assert set(owners.tolist()) == {0, 1}
        assert (owners == 0).sum() == 1  # short sample has one window

    def test_unseen_mnemonic_is_unk(self):
        tokenizer = OpcodeTokenizer(max_length=8).fit([self.PROLOGUE])
        ids = tokenizer.ids(b"\x01")  # ADD unseen
        assert ids[1] == 1  # UNK

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            OpcodeTokenizer().ids(b"\x00")
        with pytest.raises(RuntimeError):
            __ = OpcodeTokenizer().vocab_size

    def test_bad_max_length(self):
        with pytest.raises(ValueError):
            OpcodeTokenizer(max_length=2)
