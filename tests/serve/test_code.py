"""Tests for the Code value: normalize once, hash once, decode once."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.evm.disassembler as disassembler
import repro.features.histogram as histogram
import repro.serve.cache as cache_module
import repro.serve.service as service_module
from repro.evm.disassembler import (
    MNEMONIC_IDS,
    Disassembler,
    decode_mnemonic_ids,
    normalize_bytecode,
)
from repro.evm.errors import DisassemblyError
from repro.serve import Code, FeatureCache, ScanService

#: Raw bytecode, biased toward PUSH opcodes so immediates get truncated.
raw_bytecode = st.one_of(
    st.binary(max_size=96),
    st.lists(
        st.one_of(st.integers(0x60, 0x7F), st.integers(0, 255)),
        max_size=64,
    ).map(bytes),
)

_JUNK = st.sampled_from(["g", "z", "x", "X", "-", "é", "\x00", "٣"])
_SPACE = st.sampled_from([" ", "\t", "\n", "\r\n", "\x0b", "　"])


@st.composite
def hex_spellings(draw):
    """Hex text around real bytes: prefix, case, whitespace, odd length
    and non-hex characters, each drawn independently."""
    text = draw(raw_bytecode).hex()
    if draw(st.booleans()):
        text = text.upper()
    if text and draw(st.booleans()):
        text = text[:-1]  # odd length
    chars = list(text)
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(chars)))
        chars.insert(position, draw(_SPACE))
    if draw(st.integers(0, 3)) == 0:
        position = draw(st.integers(0, len(chars)))
        chars.insert(position, draw(_JUNK))
    prefix = draw(st.sampled_from(["", "0x", "0X", " 0x", "0x ", "x0"]))
    return draw(_SPACE | st.just("")) + prefix + "".join(chars)


def stripped_hex(text: str) -> bytes | None:
    """The reference: ``bytes.fromhex`` of the whitespace-free, unprefixed
    text, or ``None`` where that raises."""
    text = "".join(text.split())
    if text[:2] in ("0x", "0X"):
        text = text[2:]
    try:
        return bytes.fromhex(text)
    except ValueError:
        return None


def reference_ids(code: bytes) -> np.ndarray:
    """Mnemonic ids from the instruction-object decoder."""
    return np.array(
        [
            MNEMONIC_IDS[instruction.mnemonic]
            for instruction in Disassembler(code).instructions()
        ],
        dtype=np.uint8,
    )


class TestNormalizeProperty:
    @settings(max_examples=400, deadline=None)
    @given(hex_spellings() | st.text(max_size=24))
    def test_text_normalizes_to_stripped_hex_or_raises(self, text):
        expected = stripped_hex(text)
        if expected is None:
            with pytest.raises(DisassemblyError):
                normalize_bytecode(text)
            with pytest.raises(DisassemblyError):
                Code(text)
        else:
            normalized = normalize_bytecode(text)
            assert type(normalized) is bytes
            assert normalized == expected
            assert np.array_equal(
                decode_mnemonic_ids(text), reference_ids(expected)
            )

    @settings(max_examples=200, deadline=None)
    @given(raw_bytecode)
    def test_bytes_pass_through(self, raw):
        assert normalize_bytecode(raw) == raw
        assert normalize_bytecode(bytearray(raw)) == raw
        assert type(normalize_bytecode(bytearray(raw))) is bytes

    @settings(max_examples=300, deadline=None)
    @given(raw_bytecode)
    def test_decode_matches_instruction_decoder(self, raw):
        ids = decode_mnemonic_ids(raw)
        assert ids.dtype == np.uint8
        assert np.array_equal(ids, reference_ids(raw))
        assert np.array_equal(decode_mnemonic_ids(Code(raw)), ids)
        assert np.array_equal(decode_mnemonic_ids(bytearray(raw)), ids)


class TestCodeProperty:
    @settings(max_examples=300, deadline=None)
    @given(raw_bytecode | hex_spellings())
    def test_bytes_and_digest_match_normalize(self, bytecode):
        try:
            normalized = normalize_bytecode(bytecode)
        except DisassemblyError:
            with pytest.raises(DisassemblyError):
                Code(bytecode)
            return
        code = Code(bytecode)
        assert isinstance(code, bytes)
        assert code == normalized
        assert code.digest == hashlib.sha256(normalized).digest()
        assert code.digest == cache_module.bytecode_digest(bytecode)
        assert Code(code) is code

    def test_code_is_accepted_as_bytes(self):
        code = Code("0x6080604052")
        assert code.hex() == "6080604052"
        assert Disassembler(code).code == bytes.fromhex("6080604052")
        assert bytes(code) == code


class _Spy:
    """Counts calls of one function installed under several names."""

    def __init__(self, monkeypatch, sites):
        module, name = sites[0]
        original = getattr(module, name)
        self.calls = 0

        def spy(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        for module, name in sites:
            assert getattr(module, name) is original
            monkeypatch.setattr(module, name, spy)


@pytest.fixture(scope="module")
def cold_service(serve_dataset):
    service = ScanService(
        "Random Forest", train_dataset=serve_dataset, seed=0
    )
    return service.ensure_fitted()


def novel_codes(serve_dataset, tag: int) -> list[bytes]:
    """16 bytecodes no cache has seen: corpus code plus a fresh trailer."""
    return [
        code + bytes([0xA2, tag, i])
        for i, code in enumerate(serve_dataset.bytecodes[:16])
    ]


class TestOnceEach:
    @pytest.mark.parametrize("spelling", ["bytes", "hex"])
    def test_cold_batch_normalizes_hashes_and_decodes_once(
        self, monkeypatch, cold_service, serve_dataset, spelling
    ):
        codes = novel_codes(serve_dataset, tag=1 + (spelling == "hex"))
        batch = codes if spelling == "bytes" else [c.hex() for c in codes]
        normalize = _Spy(monkeypatch, [
            (disassembler, "normalize_bytecode"),
            (cache_module, "normalize_bytecode"),
            (service_module, "normalize_bytecode"),
        ])
        digest = _Spy(monkeypatch, [
            (cache_module, "bytecode_digest"),
            (service_module, "bytecode_digest"),
        ])
        decode = _Spy(monkeypatch, [
            (cache_module, "decode_mnemonic_ids"),
            (histogram, "decode_mnemonic_ids"),
        ])
        results = cold_service.scan_bytecodes(batch)
        assert len(results) == 16
        assert not any(result.from_cache for result in results)
        assert (normalize.calls, digest.calls, decode.calls) == (16, 16, 16)

    def test_cold_batch_leaves_one_prediction_per_code(
        self, cold_service, serve_dataset
    ):
        # Fitting caches nothing, and serving caches predictions only.
        assert "ids" not in cold_service.cache.stats.by_namespace
        codes = novel_codes(serve_dataset, tag=4)
        service = ScanService(
            "Random Forest", model=cold_service.model, namespace="pred:cold"
        )
        service.scan_bytecodes(codes + codes[:5])
        assert len(service.cache) == len(set(codes)) == 16
        assert {ns for (ns, __) in service.cache._store} == {"pred:cold"}

    def test_scores_match_direct_predict(self, cold_service, serve_dataset):
        codes = novel_codes(serve_dataset, tag=3)
        results = cold_service.scan_bytecodes(codes)
        plain = cold_service.model.predict_proba(codes)[:, 1]
        assert [r.probability for r in results] == [float(p) for p in plain]

    def test_ids_namespace_keyed_by_carried_digest(self):
        cache = FeatureCache()
        code = Code("0x6080604052")
        ids = cache.mnemonic_ids(code)
        hit, cached = cache.lookup("ids", code.digest)
        assert hit and cached is ids
        assert cache.mnemonic_ids(bytes(code)) is ids
