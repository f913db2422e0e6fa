"""Tests for the content-addressed FeatureCache."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evm.disassembler import decode_mnemonic_ids
from repro.serve.cache import FeatureCache, bytecode_digest

PROLOGUE = bytes.fromhex("6080604052")


class TestDigest:
    def test_digest_is_content_addressed(self):
        assert bytecode_digest(PROLOGUE) == bytecode_digest("0x6080604052")
        assert bytecode_digest(PROLOGUE) == bytecode_digest("60 80 60 40 52")
        assert bytecode_digest(b"\x00") != bytecode_digest(b"\x01")


class TestHitMissAccounting:
    def test_first_lookup_misses_then_hits(self):
        cache = FeatureCache()
        cache.mnemonic_ids(PROLOGUE)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.mnemonic_ids(PROLOGUE)
        cache.mnemonic_ids("0x6080604052")  # same content, different spelling
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_namespaces_tracked_separately(self):
        cache = FeatureCache()
        cache.mnemonic_ids(PROLOGUE)
        cache.get("other", PROLOGUE, lambda code: len(code))
        cache.get("other", PROLOGUE, lambda code: len(code))
        assert cache.stats.by_namespace["ids"] == (0, 1)
        assert cache.stats.by_namespace["other"] == (1, 1)

    def test_idle_hit_rate_is_zero(self):
        assert FeatureCache().stats.hit_rate == 0.0

    def test_stats_as_dict(self):
        cache = FeatureCache()
        ids = cache.mnemonic_ids(PROLOGUE)
        summary = cache.stats.as_dict()
        assert summary["misses"] == 1
        assert summary["by_namespace"]["ids"] == {
            "hits": 0,
            "misses": 1,
            "entries": 1,
            "resident_bytes": ids.nbytes,
        }
        assert summary["resident_bytes"] == ids.nbytes


class TestResidency:
    def test_put_and_evict_balance_resident_bytes(self):
        cache = FeatureCache(max_entries=2)
        rows = [np.zeros(n, dtype=np.uint8) for n in (10, 20, 40)]
        for i, row in enumerate(rows):
            cache.put("ids", bytes([i]), row)
        # max_entries=2 evicted the oldest (10-byte) row.
        assert cache.stats.resident_bytes == 60
        assert cache.stats.resident_by_namespace["ids"] == (2, 60)

    def test_replacing_a_key_does_not_double_count(self):
        cache = FeatureCache()
        cache.put("ids", b"k", np.zeros(8, dtype=np.uint8))
        cache.put("ids", b"k", np.zeros(16, dtype=np.uint8))
        assert cache.stats.resident_by_namespace["ids"] == (1, 16)

    def test_invalidate_namespace_releases_bytes(self):
        cache = FeatureCache()
        cache.put("ids", b"a", np.zeros(8, dtype=np.uint8))
        cache.put("proba", b"a", np.zeros(16, dtype=np.float64))
        cache.invalidate_namespace("proba")
        assert "proba" not in cache.stats.resident_by_namespace
        assert cache.stats.resident_bytes == 8

    def test_invalidations_counted_separately_from_evictions(self):
        """ISSUE-10 regression: a promotion-driven namespace sweep is a
        correctness event, not LRU pressure — it must land in the
        ``invalidations`` counter and leave ``evictions`` alone, with
        the per-namespace residency books balancing to zero for the
        swept namespace only."""
        cache = FeatureCache()
        for key in (b"a", b"b", b"c"):
            cache.put("pred:old", key, np.zeros(16, dtype=np.float64))
        cache.put("ids", b"a", np.zeros(8, dtype=np.uint8))

        assert cache.invalidate_namespace("pred:old") == 3
        assert cache.stats.invalidations == 3
        assert cache.stats.evictions == 0
        summary = cache.stats.as_dict()
        assert summary["invalidations"] == 3
        # The swept namespace's residency books drop to zero (and out of
        # the accounting entirely); the surviving namespace is intact.
        assert "pred:old" not in cache.stats.resident_by_namespace
        assert cache.stats.resident_by_namespace["ids"] == (1, 8)
        # A second sweep finds nothing and must not inflate the counter.
        assert cache.invalidate_namespace("pred:old") == 0
        assert cache.stats.invalidations == 3

    def test_clear_zeroes_residency(self):
        cache = FeatureCache()
        cache.mnemonic_ids(PROLOGUE)
        cache.clear()
        assert cache.stats.resident_bytes == 0
        assert cache.stats.resident_by_namespace == {}

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["put", "put", "put", "resize", "invalidate", "clear"]
                ),
                st.sampled_from(["ids", "pred:a", "pred:b"]),
                st.integers(0, 7),
                st.sampled_from(["array", "float", "bytes"]),
                st.integers(1, 9),
            ),
            max_size=60,
        )
    )
    def test_residency_read_equals_recount(self, operations):
        """Whatever put, replace, eviction, resize, invalidation and
        clear did, residency read off the cache equals a brute-force
        recount of its store."""
        cache = FeatureCache(max_entries=6)
        for op, namespace, key, kind, size in operations:
            if op == "put":
                value = {
                    "array": np.zeros(size, dtype=np.uint8),
                    "float": float(size),
                    "bytes": bytes(size),
                }[kind]
                cache.put(namespace, bytes([key]), value)
            elif op == "resize":
                cache.resize(size)
            elif op == "invalidate":
                cache.invalidate_namespace(namespace)
            else:
                cache.clear()
            recount: dict[str, tuple[int, int]] = {}
            for (ns, _digest), value in cache._store.items():
                n, total = recount.get(ns, (0, 0))
                size_of = (
                    value.nbytes if isinstance(value, np.ndarray)
                    else len(value) if isinstance(value, bytes) else 64
                )
                recount[ns] = (n + 1, total + size_of)
            assert len(cache) <= cache.max_entries
            assert cache.stats.resident_by_namespace == recount
            assert cache.stats.resident_bytes == sum(
                total for _n, total in recount.values()
            )
            summary = cache.stats.as_dict()
            assert summary["resident_bytes"] == cache.stats.resident_bytes

    def test_residency_read_races_puts(self):
        """Residency is counted under the cache lock, so a read racing
        concurrent puts and evictions never sees the store mid-mutation
        and never reports more entries than the bound."""
        cache = FeatureCache(max_entries=64)
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer(worker: int) -> None:
            try:
                for i in range(1500):
                    cache.put("ids", bytes([worker, i % 251, i // 251]),
                              np.zeros(4, dtype=np.uint8))
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        def reader() -> None:
            try:
                while not stop.is_set():
                    entries, total = cache.stats.resident_by_namespace.get(
                        "ids", (0, 0)
                    )
                    assert entries <= 64 and total == 4 * entries
            except BaseException as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [
                threading.Thread(target=writer, args=(w,)) for w in range(4)
            ]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        assert cache.stats.resident_by_namespace == {"ids": (64, 256)}


class TestCorrectness:
    def test_cached_ids_equal_direct_decode(self):
        cache = FeatureCache()
        rng = np.random.default_rng(0)
        for __ in range(20):
            code = bytes(
                rng.integers(0, 256, size=int(rng.integers(1, 120)),
                             dtype=np.uint8)
            )
            cached = cache.mnemonic_ids(code)
            again = cache.mnemonic_ids(code)
            assert np.array_equal(cached, decode_mnemonic_ids(code))
            assert np.array_equal(cached, again)

    def test_cached_arrays_are_read_only(self):
        cache = FeatureCache()
        ids = cache.mnemonic_ids(PROLOGUE)
        with pytest.raises(ValueError):
            ids[0] = 1

    def test_compute_called_once(self):
        cache = FeatureCache()
        calls = []

        def compute(code):
            calls.append(code)
            return len(code)

        assert cache.get("n", PROLOGUE, compute) == 5
        assert cache.get("n", PROLOGUE, compute) == 5
        assert calls == [PROLOGUE]


class TestLRU:
    def test_bounded_and_evictions_counted(self):
        cache = FeatureCache(max_entries=4)
        for value in range(6):
            cache.mnemonic_ids(bytes([value]))
        assert len(cache) == 4
        assert cache.stats.evictions == 2

    def test_oldest_entry_evicted_first(self):
        cache = FeatureCache(max_entries=2)
        cache.mnemonic_ids(b"\x00")
        cache.mnemonic_ids(b"\x01")
        cache.mnemonic_ids(b"\x02")  # evicts \x00
        hit, __ = cache.lookup("ids", bytecode_digest(b"\x00"))
        assert not hit
        hit, __ = cache.lookup("ids", bytecode_digest(b"\x01"))
        assert hit

    def test_recently_used_survives(self):
        cache = FeatureCache(max_entries=2)
        cache.mnemonic_ids(b"\x00")
        cache.mnemonic_ids(b"\x01")
        cache.mnemonic_ids(b"\x00")  # refresh
        cache.mnemonic_ids(b"\x02")  # evicts \x01, not \x00
        hit, __ = cache.lookup("ids", bytecode_digest(b"\x00"))
        assert hit
        hit, __ = cache.lookup("ids", bytecode_digest(b"\x01"))
        assert not hit

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            FeatureCache(max_entries=0)

    def test_clear_drops_entries(self):
        cache = FeatureCache()
        cache.mnemonic_ids(PROLOGUE)
        cache.clear()
        assert len(cache) == 0

    def test_put_reestablishes_bound_after_runtime_shrink(self):
        """Regression: lowering ``max_entries`` on a live cache (hot-swap
        reconfiguration) must not leave the store over-bound — a single
        ``if``-pop per put would drain the excess one entry per insert."""
        cache = FeatureCache(max_entries=10)
        for value in range(10):
            cache.mnemonic_ids(bytes([value]))
        assert len(cache) == 10
        cache.max_entries = 3  # shrunk at runtime, store still holds 10
        cache.mnemonic_ids(bytes([200]))
        assert len(cache) == 3  # one put re-established the whole bound
        # The survivors are exactly the most recent entries.
        hit, __ = cache.lookup("ids", bytecode_digest(bytes([200])))
        assert hit
        hit, __ = cache.lookup("ids", bytecode_digest(bytes([0])))
        assert not hit

    def test_resize_evicts_immediately_and_counts(self):
        cache = FeatureCache(max_entries=8)
        for value in range(8):
            cache.mnemonic_ids(bytes([value]))
        evicted = cache.resize(2)
        assert evicted == 6
        assert len(cache) == 2
        assert cache.max_entries == 2
        assert cache.stats.evictions == 6
        with pytest.raises(ValueError):
            cache.resize(0)


class TestInvalidateNamespace:
    def test_invalidate_targets_one_namespace(self):
        cache = FeatureCache()
        cache.mnemonic_ids(PROLOGUE)
        cache.put("pred:A", bytecode_digest(b"\x00"), 0.25)
        cache.put("pred:A", bytecode_digest(b"\x01"), 0.75)
        cache.put("pred:B", bytecode_digest(b"\x00"), 0.5)
        assert cache.invalidate_namespace("pred:A") == 2
        assert len(cache) == 2  # ids + pred:B untouched
        hit, __ = cache.lookup("pred:B", bytecode_digest(b"\x00"))
        assert hit
        assert cache.invalidate_namespace("pred:A") == 0


class TestWarmAndAttach:
    def test_attach_hsc_detector(self):
        from repro.models.hsc import HSCDetector

        cache = FeatureCache()
        model = HSCDetector(variant="Logistic Regression")
        assert cache.attach(model)
        model.fit([PROLOGUE, b"\x00"], [0, 1])
        assert cache.stats.by_namespace["ids"] == (0, 2)
        model.predict_proba([PROLOGUE])
        assert cache.stats.by_namespace["ids"] == (1, 2)

    def test_attach_rejects_cache_unaware_model(self):
        cache = FeatureCache()
        assert cache.attach(object()) is None

    def test_attach_returns_what_puts_the_previous_decoder_back(self):
        from repro.models.hsc import HSCDetector

        cache = FeatureCache()
        model = HSCDetector(variant="Logistic Regression")
        model.fit([PROLOGUE, b"\x00"], [0, 1])
        restore = cache.attach(model)
        model.predict_proba([PROLOGUE])
        assert cache.stats.by_namespace["ids"] == (0, 1)
        restore()
        model.predict_proba([PROLOGUE, b"\x00"])
        assert cache.stats.by_namespace["ids"] == (0, 1)
        assert model.extractor_.set_decoder(None) is None

    def test_attached_features_identical_to_uncached(self):
        from repro.models.hsc import HSCDetector

        codes = [PROLOGUE, b"\x00", PROLOGUE * 3, bytes(range(40))]
        labels = [0, 1, 0, 1]
        cached = HSCDetector(variant="Logistic Regression", seed=0)
        FeatureCache().attach(cached)
        plain = HSCDetector(variant="Logistic Regression", seed=0)
        cached.fit(codes, labels)
        plain.fit(codes, labels)
        assert np.array_equal(
            cached.predict_proba(codes), plain.predict_proba(codes)
        )
        assert np.array_equal(
            cached.extractor_.transform(codes),
            plain.extractor_.transform(codes),
        )
