"""Tests for the proxy-resolving defence."""

import numpy as np
import pytest

from repro.chain.blockchain import Blockchain
from repro.chain.rpc import JsonRpcClient, JsonRpcServer
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.dataset import Dataset
from repro.models.detector import PhishingDetector
from repro.models.hsc import HSCDetector
from repro.robustness.attacks import wrap_in_minimal_proxy
from repro.robustness.defenses import ProxyResolvingDetector

IMPLEMENTATION = bytes.fromhex("600760005500")  # SSTORE(0, 7); STOP


class RecordingDetector(PhishingDetector):
    """Captures the bytecodes it is fitted/evaluated on."""

    def __init__(self):
        self.name = "recording"
        self.fitted_with: list[bytes] = []
        self.predicted_with: list[bytes] = []

    def fit(self, bytecodes, labels):
        self.fitted_with = list(bytecodes)
        return self

    def predict_proba(self, bytecodes):
        self.predicted_with = list(bytecodes)
        return np.tile([0.5, 0.5], (len(bytecodes), 1))


class TestResolve:
    def _wrapped(self, lookup):
        return ProxyResolvingDetector(RecordingDetector(), lookup)

    def test_non_proxy_passthrough(self):
        detector = self._wrapped(lambda address: b"")
        assert detector.resolve(IMPLEMENTATION) == IMPLEMENTATION

    def test_single_hop(self):
        address_book = {}
        proxy = wrap_in_minimal_proxy(0xAB)
        address_book["0x" + "00" * 19 + "ab"] = IMPLEMENTATION
        detector = self._wrapped(lambda a: address_book.get(a, b""))
        assert detector.resolve(proxy) == IMPLEMENTATION

    def test_proxy_chain_two_hops(self):
        inner = wrap_in_minimal_proxy(0x01)
        outer = wrap_in_minimal_proxy(0x02)
        address_book = {
            "0x" + "00" * 19 + "02": inner,
            "0x" + "00" * 19 + "01": IMPLEMENTATION,
        }
        detector = self._wrapped(lambda a: address_book.get(a, b""))
        assert detector.resolve(outer) == IMPLEMENTATION

    def test_cycle_stops_at_max_hops(self):
        # A proxy pointing to itself must not loop forever.
        address = 0x33
        proxy = wrap_in_minimal_proxy(address)
        lookup_calls = []

        def lookup(a):
            lookup_calls.append(a)
            return proxy

        detector = ProxyResolvingDetector(
            RecordingDetector(), lookup, max_hops=3
        )
        resolved = detector.resolve(proxy)
        assert resolved == proxy
        assert len(lookup_calls) == 3

    def test_lookup_failure_falls_back(self):
        proxy = wrap_in_minimal_proxy(0xCD)

        def lookup(address):
            raise ConnectionError("endpoint down")

        detector = self._wrapped(lookup)
        assert detector.resolve(proxy) == proxy

    def test_empty_code_falls_back(self):
        # Self-destructed implementation: eth_getCode returns empty.
        proxy = wrap_in_minimal_proxy(0xEF)
        detector = self._wrapped(lambda a: b"")
        assert detector.resolve(proxy) == proxy


class TestConstruction:
    def test_rejects_non_detector(self):
        with pytest.raises(TypeError):
            ProxyResolvingDetector(object(), lambda a: b"")

    def test_rejects_bad_hops(self):
        with pytest.raises(ValueError):
            ProxyResolvingDetector(RecordingDetector(), lambda a: b"",
                                   max_hops=0)

    def test_name_includes_base(self):
        detector = ProxyResolvingDetector(RecordingDetector(), lambda a: b"")
        assert "recording" in detector.name


class TestDelegation:
    def test_fit_and_predict_see_resolved_bytes(self):
        proxy = wrap_in_minimal_proxy(0xAB)
        address_book = {"0x" + "00" * 19 + "ab": IMPLEMENTATION}
        base = RecordingDetector()
        detector = ProxyResolvingDetector(
            base, lambda a: address_book.get(a, b"")
        )
        detector.fit([proxy, IMPLEMENTATION], [1, 1])
        assert base.fitted_with == [IMPLEMENTATION, IMPLEMENTATION]
        detector.predict_proba([proxy])
        assert base.predicted_with == [IMPLEMENTATION]


class TestEndToEndWithChain:
    def test_proxy_hiding_defeated_via_rpc(self):
        """The full story: attack blinds the detector, resolution restores it."""
        corpus = build_corpus(
            CorpusConfig(n_phishing=80, n_benign=80, seed=31, clone_factor=3.0)
        )
        dataset = Dataset.from_corpus(corpus, seed=3)
        train, test = dataset.train_test_split(0.3, seed=6)

        # The attacker hides every phishing test contract behind a fresh
        # EIP-1167 proxy deployed on-chain.
        chain = Blockchain()
        client = JsonRpcClient(JsonRpcServer(chain))
        attacked_codes = []
        for index, (code, label) in enumerate(
            zip(test.bytecodes, test.labels)
        ):
            if label != 1:
                attacked_codes.append(code)
                continue
            address = chain.deploy(code, timestamp=1_700_000_000 + index)
            attacked_codes.append(wrap_in_minimal_proxy(address))

        def make_base():
            base = HSCDetector(variant="Random Forest", seed=0)
            base.set_params(clf__n_estimators=40)
            return base

        labels = np.asarray(test.labels)

        naive = make_base().fit(train.bytecodes, train.labels)
        naive_recall = float(
            np.mean(naive.predict(attacked_codes)[labels == 1] == 1)
        )

        defended = ProxyResolvingDetector(make_base(), client.get_code)
        defended.fit(train.bytecodes, train.labels)
        defended_recall = float(
            np.mean(defended.predict(attacked_codes)[labels == 1] == 1)
        )

        # All proxies look alike — the naive detector's recall on hidden
        # phishing collapses to near one class-constant decision, while
        # resolution restores most of it.
        assert defended_recall > naive_recall + 0.3
        assert defended_recall > 0.6

    def test_live_monitor_composition(self):
        """ProxyResolvingDetector plugs into the §VII live monitor: a
        stream scanner following the chain's deploy events."""
        from repro.serve.service import ScanService
        from repro.stream import EventBus, StreamScanner

        corpus = build_corpus(
            CorpusConfig(n_phishing=60, n_benign=60, seed=37)
        )
        dataset = Dataset.from_corpus(corpus, seed=4)
        train, test = dataset.train_test_split(0.3, seed=7)

        base = HSCDetector(variant="Random Forest", seed=0)
        base.set_params(clf__n_estimators=40)

        chain = Blockchain()
        client = JsonRpcClient(JsonRpcServer(chain))
        defended = ProxyResolvingDetector(base, client.get_code)
        defended.fit(train.bytecodes, train.labels)

        monitor = StreamScanner(
            ScanService("defended", model=defended), max_batch=1,
        )
        bus = EventBus()
        monitor.attach(bus)
        detach = bus.attach(chain)

        # A phishing implementation lands, hidden behind a fresh proxy.
        # Pick one the fitted model detects directly, so the test isolates
        # the proxy-resolution step from base-model false negatives.
        phishing_code = next(
            code for code, label in zip(test.bytecodes, test.labels)
            if label == 1 and defended.predict_proba([code])[0, 1] >= 0.6
        )
        implementation = chain.deploy(phishing_code, timestamp=1_700_000_000)
        proxy_address = chain.deploy(
            wrap_in_minimal_proxy(implementation), timestamp=1_700_000_060
        )

        detach()
        flagged = {alert.address for alert in monitor.alerts}
        assert proxy_address in flagged
        assert monitor.stats.scanned == 2
