"""Tests for the batched ScanService."""

import numpy as np
import pytest

from repro.chain.rpc import JsonRpcClient, JsonRpcServer
from repro.core.registry import create_model
from repro.serve import FeatureCache, ScanService


@pytest.fixture(scope="module")
def service(serve_corpus, serve_dataset):
    return ScanService(
        "Random Forest", train_dataset=serve_dataset,
        rpc=JsonRpcClient(JsonRpcServer(serve_corpus.chain)),
    )


@pytest.fixture(scope="module")
def addresses(serve_corpus):
    return [r.address for r in serve_corpus.records[:12]]


class TestConstruction:
    def test_requires_model_or_dataset(self):
        with pytest.raises(ValueError):
            ScanService("Random Forest")

    def test_lazy_fit_happens_once(self, serve_dataset):
        service = ScanService(
            "Logistic Regression", train_dataset=serve_dataset
        )
        assert not service.stats()["fitted"]
        model = service.model
        assert service.model is model  # second access reuses the fit
        assert service.stats()["fitted"]
        assert service.fit_seconds > 0

    def test_scan_many_without_rpc_raises(self, serve_dataset):
        service = ScanService(
            "Logistic Regression", train_dataset=serve_dataset
        )
        with pytest.raises(RuntimeError):
            service.scan_many(["0x" + "11" * 20])


class TestScanSemantics:
    def test_matches_classify_address(self, service, serve_corpus,
                                      addresses):
        """A batched scan classifies each address exactly as the model
        scores its code alone (a forest is per-row deterministic; a BLAS
        model's last bits move with its batch-mates)."""
        code_of = {r.address: r.bytecode for r in serve_corpus.records}
        results = service.scan_many(addresses)
        for address, result in zip(addresses, results):
            probability = float(
                service.model.predict_proba([code_of[address]])[0, 1]
            )
            assert result.address == address
            assert result.probability == probability
            assert result.is_phishing == (probability >= 0.5)

    def test_warm_rescan_is_bit_identical_and_cached(self, service,
                                                     addresses):
        cold = service.scan_many(addresses)
        warm = service.scan_many(addresses)
        assert [r.probability for r in cold] == [r.probability for r in warm]
        assert [r.is_phishing for r in cold] == [r.is_phishing for r in warm]
        assert all(r.from_cache for r in warm)

    def test_in_batch_duplicates_deduped(self, service, serve_corpus):
        code = serve_corpus.records[0].bytecode
        hits_before = service.cache.stats.hits
        results = service.scan_bytecodes([code, code, code])
        assert len({r.probability for r in results}) == 1
        # Duplicates are answered by dedup, not extra predictions.
        assert [r.from_cache for r in results][1:] == [True, True]
        assert service.cache.stats.hits >= hits_before

    def test_hex_string_and_bytes_agree(self, service, serve_corpus):
        code = serve_corpus.records[0].bytecode
        a = service.scan_bytecodes([code])[0]
        b = service.scan_bytecodes(["0x" + code.hex()])[0]
        assert a.probability == b.probability
        assert b.from_cache

    def test_unknown_address_raises(self, service):
        with pytest.raises(ValueError):
            service.scan_many(["0x" + "00" * 20])

    def test_address_length_mismatch_raises(self, service):
        with pytest.raises(ValueError):
            service.scan_bytecodes([b"\x00"], addresses=["a", "b"])

    def test_single_scan_wrapper(self, service, addresses):
        result = service.scan(addresses[0])
        assert result.address == addresses[0]
        assert 0.0 <= result.probability <= 1.0

    def test_threshold_controls_verdict(self, serve_dataset, serve_corpus):
        code = serve_corpus.records[0].bytecode
        lenient = ScanService(
            "Logistic Regression", train_dataset=serve_dataset,
            threshold=0.0,
        )
        assert lenient.scan_bytecodes([code])[0].is_phishing
        strict = ScanService(
            "Logistic Regression", train_dataset=serve_dataset,
            threshold=1.1,
        )
        assert not strict.scan_bytecodes([code])[0].is_phishing


class TestPrefitModel:
    def test_prefit_model_skips_training(self, serve_dataset, serve_corpus):
        model = create_model("Random Forest")
        model.fit(serve_dataset.bytecodes, serve_dataset.labels)
        service = ScanService("Random Forest", model=model)
        assert service.stats()["fitted"]
        code = serve_corpus.records[0].bytecode
        expected = float(model.predict_proba([code])[0, 1])
        assert service.scan_bytecodes([code])[0].probability == expected

    def test_services_fitted_on_one_dataset_share_predictions(
            self, serve_dataset, serve_corpus):
        cache = FeatureCache()
        code = serve_corpus.records[1].bytecode
        first = ScanService("Logistic Regression",
                            train_dataset=serve_dataset, cache=cache)
        first.scan_bytecodes([code])
        second = ScanService("Logistic Regression",
                             train_dataset=serve_dataset, cache=cache)
        result = second.scan_bytecodes([code])[0]
        # Same model, seed and data → the same prediction namespace, so
        # the second service is served straight from the shared cache.
        assert result.from_cache

    def test_wrapping_a_borrowed_model_keeps_its_cache_wiring(self):
        """Serving a borrowed model, in a service or a stream scanner,
        never re-points its extractors at the serving cache."""
        from repro.stream import StreamScanner

        class Recording:
            def __init__(self):
                self.attached = []

            def use_feature_cache(self, cache):
                self.attached.append(cache)

        model = Recording()
        StreamScanner(ScanService("borrowed", model=model))
        assert model.attached == []

    def test_two_prefit_services_do_not_share_predictions(self,
                                                          serve_dataset,
                                                          serve_corpus):
        cache = FeatureCache()
        code = serve_corpus.records[0].bytecode
        first = ScanService(
            "Logistic Regression", train_dataset=serve_dataset, cache=cache
        )
        first.ensure_fitted()
        alt = serve_dataset.subset(np.arange(len(serve_dataset) // 2))
        second = ScanService(
            "Logistic Regression", train_dataset=alt, cache=cache
        )
        second.ensure_fitted()
        p1 = first.scan_bytecodes([code])[0]
        p2 = second.scan_bytecodes([code])[0]
        # Different training data → distinct cache namespaces: the second
        # service must not be served the first one's prediction.
        assert not p2.from_cache


class TestStats:
    def test_stats_shape(self, service, addresses):
        service.scan_many(addresses)
        stats = service.stats()
        assert stats["model"] == "Random Forest"
        assert stats["scanned"] >= len(addresses)
        # Serving caches predictions only: no decoded-opcode namespace.
        assert set(stats["by_namespace"]) == {service._serving[1]}
        assert 0.0 <= stats["hit_rate"] <= 1.0
