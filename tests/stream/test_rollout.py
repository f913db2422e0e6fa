"""Stream cold start from artifacts + live version rollout."""

import numpy as np
import pytest

from repro.artifacts import ModelStore
from repro.models.hsc import HSCDetector
from repro.stream.events import ContractEvent
from repro.stream.scanner import StreamScanner
from repro.stream.sinks import MemorySink


def _event(index, code):
    return ContractEvent(
        address=f"0x{index:040x}", code=code, block_number=index,
        timestamp=1_700_000_000 + index, tx_hash=f"0x{index:064x}",
        sequence=index,
    )


@pytest.fixture(scope="module")
def stocked_store(stream_dataset, tmp_path_factory):
    store = ModelStore(tmp_path_factory.mktemp("rollout") / "store")
    a = HSCDetector(variant="Random Forest", seed=0)
    a.set_params(clf__n_estimators=10)
    a.fit(stream_dataset.bytecodes, stream_dataset.labels)
    half = stream_dataset.subset(np.arange(len(stream_dataset) // 2))
    b = HSCDetector(variant="Random Forest", seed=1)
    b.set_params(clf__n_estimators=10)
    b.fit(half.bytecodes, half.labels)
    store.put(a, model_name="Random Forest", tags=("production",))
    store.put(b, model_name="Random Forest", tags=("candidate",))
    return store, a, b


class TestColdStart:
    def test_all_shards_start_from_one_artifact(self, stocked_store,
                                                stream_dataset):
        store, a, __ = stocked_store
        scanner = StreamScanner.from_artifact(
            "production", store=store, max_batch=4, threshold=0.0,
        )
        # The scanner scores through one service, which serves the
        # loaded model under its digest-derived namespace — no training
        # happened anywhere.
        assert scanner.service._serving[1] == (
            f"pred:artifact:{store.resolve('production')}"
        )
        assert scanner.service.fit_seconds == 0.0
        codes = stream_dataset.bytecodes[:9]
        for index, code in enumerate(codes):
            scanner.on_event(_event(index, code))
        scanner.flush()
        assert scanner.stats.scanned == len(codes)
        assert scanner.stats.dropped == 0
        expected = {code: p for code, p in
                    zip(codes, a.predict_proba(codes)[:, 1])}
        for alert in scanner.alerts:
            index = int(alert.address, 16)
            assert alert.probability == expected[codes[index]]


class TestRollout:
    def test_live_rollout_switches_every_shard(self, stocked_store,
                                               stream_dataset):
        store, a, b = stocked_store
        sink = MemorySink()
        scanner = StreamScanner.from_artifact(
            "production", store=store, max_batch=4,
            threshold=0.0, sinks=[sink],
        )
        codes = stream_dataset.bytecodes[:16]
        expected_a = {c: p for c, p in zip(codes, a.predict_proba(codes)[:, 1])}
        expected_b = {c: p for c, p in zip(codes, b.predict_proba(codes)[:, 1])}

        for index in range(8):
            scanner.on_event(_event(index, codes[index]))
        scanner.flush()
        scanner.rollout("candidate", store=store)
        for index in range(8, 16):
            scanner.on_event(_event(index, codes[index]))
        scanner.flush()

        assert scanner.stats.dropped == 0
        assert scanner.stats.scanned == 16
        summary = scanner.summary()
        assert summary["rollouts"] == 1
        assert summary["artifact_digest"] == store.resolve("candidate")
        for alert in scanner.alerts:
            index = int(alert.address, 16)
            want = expected_a if index < 8 else expected_b
            assert alert.probability == want[codes[index]], alert.address
        # After the roll the service serves the new version under its
        # namespace, and the old prediction namespace is gone.
        old_ns = f"pred:artifact:{store.resolve('production')}"
        new_ns = f"pred:artifact:{store.resolve('candidate')}"
        assert scanner.service._serving[1] == new_ns
        # Without a shadow attached, predictions are all the cache holds.
        assert {ns for (ns, __) in scanner.service.cache._store} == {new_ns}
        assert old_ns != new_ns

    def test_rollout_with_raw_model_shares_namespace(self, stocked_store,
                                                     stream_dataset):
        store, __, b = stocked_store
        scanner = StreamScanner.from_artifact("production", store=store)
        old_ns = scanner.service._serving[1]
        scanner.rollout(model=b, model_name="Random Forest")
        # The scanner scores through one service: one new namespace.
        model, namespace = scanner.service._serving
        assert model is b
        assert namespace != old_ns

    def test_rollout_argument_validation(self, stocked_store):
        store, a, __ = stocked_store
        scanner = StreamScanner.from_artifact("production", store=store)
        with pytest.raises(ValueError):
            scanner.rollout()
        with pytest.raises(ValueError):
            scanner.rollout("production", store=store, model=a)
