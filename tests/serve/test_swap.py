"""Hot-swap: artifact cold starts and atomic model replacement.

The acceptance gate: ``swap_model()`` under concurrent ``scan_bytecodes``
traffic with **zero dropped or mis-scored batches**, driven through
overlapping swaps (A → B → A → …). A batch is *mis-scored* if any of its
probabilities came from a model other than the one the batch snapshotted
— including via cache rows the other version wrote.
"""

import threading
import time

import numpy as np
import pytest

from repro.artifacts import ModelStore
from repro.models.hsc import HSCDetector
from repro.serve.cache import FeatureCache, bytecode_digest
from repro.serve.service import ScanService


def _fit_detector(dataset, variant, seed, rows=None):
    detector = HSCDetector(variant=variant, seed=seed)
    if variant == "Random Forest":
        detector.set_params(clf__n_estimators=10)
    subset = dataset if rows is None else dataset.subset(rows)
    detector.fit(subset.bytecodes, subset.labels)
    return detector


@pytest.fixture(scope="module")
def versions(serve_dataset):
    """Two fitted forests with (generically) different probabilities.

    Forests, not linear models: the flat inference engine is per-row
    deterministic regardless of batch composition, so "matches version X
    exactly" is well-defined for arbitrarily-sliced concurrent batches
    (a BLAS matvec can drift an ulp with batch shape).
    """
    a = _fit_detector(serve_dataset, "Random Forest", seed=0)
    b = _fit_detector(
        serve_dataset, "Random Forest", seed=1,
        rows=np.arange(len(serve_dataset) // 2),
    )
    return a, b


class TestFromArtifact:
    def test_cold_start_matches_fitted_model(self, versions, serve_dataset,
                                             tmp_path):
        a, __ = versions
        store = ModelStore(tmp_path / "store")
        store.put(a, model_name="Random Forest", tags=("production",))
        service = ScanService.from_artifact("production", store=store)
        codes = serve_dataset.bytecodes[:8]
        expected = a.predict_proba(codes)[:, 1]
        got = [r.probability for r in service.scan_bytecodes(codes)]
        assert np.array_equal(np.asarray(got), expected)
        assert service.stats()["artifact_digest"] == store.resolve("production")
        assert service.stats()["fitted"]

    def test_same_artifact_shares_namespace_across_services(
        self, versions, serve_dataset, tmp_path
    ):
        a, __ = versions
        store = ModelStore(tmp_path / "store")
        store.put(a, tags=("production",))
        cache = FeatureCache()
        code = serve_dataset.bytecodes[0]
        first = ScanService.from_artifact("production", store=store,
                                          cache=cache)
        first.scan_bytecodes([code])
        second = ScanService.from_artifact("production", store=store,
                                           cache=cache)
        # Distinct process/service, same version → prediction-cache hit.
        assert second.scan_bytecodes([code])[0].from_cache


class TestSwapModel:
    def test_swap_switches_predictions(self, versions, serve_dataset):
        a, b = versions
        service = ScanService("Random Forest", model=a,
                              namespace="pred:A")
        codes = serve_dataset.bytecodes[:6]
        before = [r.probability for r in service.scan_bytecodes(codes)]
        assert np.array_equal(before, a.predict_proba(codes)[:, 1])
        service.swap_model(b, namespace="pred:B")
        after = [r.probability for r in service.scan_bytecodes(codes)]
        assert np.array_equal(after, b.predict_proba(codes)[:, 1])
        assert service.stats()["swaps"] == 1

    def test_swap_invalidates_only_prediction_namespace(self, versions,
                                                        serve_dataset):
        a, b = versions
        cache = FeatureCache()
        service = ScanService("Random Forest", model=a, cache=cache,
                              namespace="pred:A")
        codes = serve_dataset.bytecodes[:6]
        service.scan_bytecodes(codes)
        other = FeatureCache().mnemonic_ids(codes[0])
        cache.put("other", b"k", other)
        assert any(ns == "pred:A" for (ns, __) in cache._store)
        service.swap_model(b, namespace="pred:B")
        assert not any(ns == "pred:A" for (ns, __) in cache._store)
        # Every other namespace survives the swap.
        assert cache.lookup("other", b"k") == (True, other)

    def test_swap_under_concurrent_traffic(self, versions, serve_dataset):
        """Overlapping swaps, zero dropped, zero mis-scored batches."""
        a, b = versions
        pool = serve_dataset.bytecodes[:24]
        expected = {
            "pred:A": {
                bytecode_digest(c): p
                for c, p in zip(pool, a.predict_proba(pool)[:, 1])
            },
            "pred:B": {
                bytecode_digest(c): p
                for c, p in zip(pool, b.predict_proba(pool)[:, 1])
            },
        }
        service = ScanService("Random Forest", model=a,
                              namespace="pred:A")

        errors: list[str] = []
        batches_done = [0]
        stop = threading.Event()

        def scanner(worker_seed):
            rng = np.random.default_rng(worker_seed)
            while not stop.is_set():
                picks = rng.integers(0, len(pool), size=5)
                batch = [pool[i] for i in picks]
                results = service.scan_bytecodes(batch)
                if len(results) != len(batch):
                    errors.append("dropped results in a batch")
                    return
                digests = [bytecode_digest(c) for c in batch]
                # Every probability in the batch must match ONE version
                # exactly — a mixed batch means the swap tore it.
                consistent = any(
                    all(
                        results[i].probability == expected[tag][digests[i]]
                        for i in range(len(batch))
                    )
                    for tag in ("pred:A", "pred:B")
                )
                if not consistent:
                    errors.append("mis-scored batch during swap")
                    return
                batches_done[0] += 1

        threads = [
            threading.Thread(target=scanner, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        # Overlapping swaps while traffic flows: A→B→A→…, reusing the
        # two namespaces so late cache writes of an outgoing version are
        # exercised too.
        for round_trip in range(30):
            model, tag = ((b, "pred:B") if round_trip % 2 == 0
                          else (a, "pred:A"))
            service.swap_model(model, namespace=tag)
            time.sleep(0.005)  # let batches straddle the swap
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors[0]
        assert batches_done[0] > 0
        assert service.stats()["swaps"] == 30

    def test_swap_from_artifact(self, versions, serve_dataset, tmp_path):
        a, b = versions
        store = ModelStore(tmp_path / "store")
        store.put(a, model_name="Random Forest", tags=("production",))
        vb = store.put(b, model_name="Random Forest",
                       tags=("candidate",))
        service = ScanService.from_artifact("production", store=store)
        codes = serve_dataset.bytecodes[:5]
        service.scan_bytecodes(codes)
        service.swap_from_artifact("candidate", store=store)
        got = [r.probability for r in service.scan_bytecodes(codes)]
        assert np.array_equal(got, b.predict_proba(codes)[:, 1])
        assert service.artifact_digest == vb

    def test_swap_requires_model(self, versions):
        a, __ = versions
        service = ScanService("Random Forest", model=a)
        with pytest.raises(ValueError):
            service.swap_model(None)

    def test_direct_model_swap_clears_artifact_digest(self, versions,
                                                      tmp_path):
        a, b = versions
        store = ModelStore(tmp_path / "store")
        store.put(a, tags=("production",))
        service = ScanService.from_artifact("production", store=store)
        assert service.artifact_digest is not None
        service.swap_model(b)
        # The digest describes the served version; b never came from an
        # artifact, so reporting the old digest would be a lie.
        assert service.stats()["artifact_digest"] is None
