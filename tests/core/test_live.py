"""Tests for live detection: a stream scanner following a chain.

The §VII live mode is a :class:`~repro.stream.StreamScanner` subscribed
to ``EventBus.attach(chain)``: each deployment is scored inside the
``chain.deploy`` call that lands it (a micro-batch of one flushes
inline), and the alert carries the deployment's creation-index block.
"""

import numpy as np
import pytest

from repro.chain.blockchain import Blockchain
from repro.chain.timeline import month_to_timestamp
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.dataset import Dataset
from repro.datagen.families import FAMILIES, generate_contract
from repro.datagen.solidity_like import Environment
from repro.models.hsc import HSCDetector
from repro.serve.service import ScanService
from repro.stream import CallbackSink, EventBus, StreamScanner, TimelineReplayer


@pytest.fixture(scope="module")
def live_corpus():
    """A private corpus: live tests deploy fresh contracts onto its chain,
    which must not pollute the session-scoped fixture."""
    return build_corpus(
        CorpusConfig(n_phishing=60, n_benign=60, seed=21, clone_factor=4.0)
    )


@pytest.fixture(scope="module")
def trained_model(live_corpus):
    dataset = Dataset.from_corpus(live_corpus, seed=0)
    detector = HSCDetector(variant="Random Forest", seed=0)
    detector.set_params(clf__n_estimators=40)
    detector.fit(dataset.bytecodes, dataset.labels)
    return detector


def deploy_fresh(chain, label: int, seed: int, month: int = 8) -> str:
    family = "approval_drainer" if label else "erc20_token"
    timestamp = month_to_timestamp(month, 0.5)
    env = Environment(
        rng=np.random.default_rng(seed),
        attacker=0xFEFE << 96,
        tokens=(0xABAB << 96,),
        deploy_timestamp=timestamp,
    )
    bytecode, __ = generate_contract(FAMILIES[family], env, month)
    return chain.deploy(bytecode, timestamp=timestamp)


@pytest.fixture
def follow(trained_model):
    """``follow(chain, threshold=0.5, max_batch=1, sinks=())``: a scanner
    on a bus bridged from ``chain``, detached after the test."""
    detaches = []

    def start(chain, threshold=0.5, max_batch=1, sinks=()):
        service = ScanService("live", model=trained_model,
                              threshold=threshold)
        scanner = StreamScanner(service, max_batch=max_batch,
                                threshold=threshold, sinks=sinks)
        bus = EventBus()
        scanner.attach(bus)
        detaches.append(bus.attach(chain))
        return scanner

    yield start
    for detach in detaches:
        detach()


class TestLiveDetector:
    def test_existing_contracts_skipped(self, live_corpus, follow):
        scanner = follow(live_corpus.chain)
        address = deploy_fresh(live_corpus.chain, label=1, seed=9)
        scanner.flush()
        # Only what lands after the attach is scored.
        assert scanner.stats.events_in == scanner.stats.scanned == 1
        assert {alert.address for alert in scanner.alerts} <= {address}

    def test_new_phishing_deployment_alerts(self, live_corpus, follow):
        chain = live_corpus.chain
        scanner = follow(chain)
        address = deploy_fresh(chain, label=1, seed=123)
        # Scored inside chain.deploy, before any flush.
        assert scanner.stats.scanned == 1
        [alert] = scanner.alerts
        assert alert.address == address
        assert alert.probability >= 0.5
        assert alert.latency_seconds < 2.0
        assert alert.block_number > 0
        assert alert.block_number == (
            chain.get_creation_transaction(address).block_number
        )

    def test_benign_deployment_usually_passes(self, live_corpus, follow):
        scanner = follow(live_corpus.chain, threshold=0.9)
        deploy_fresh(live_corpus.chain, label=0, seed=321)
        assert scanner.stats.scanned == 1
        assert len(scanner.alerts) <= 1  # high threshold: benign rarely crosses

    def test_callback_invoked(self, live_corpus, follow):
        received = []
        scanner = follow(live_corpus.chain, threshold=0.4,
                         sinks=[CallbackSink(received.append)])
        deploy_fresh(live_corpus.chain, label=1, seed=55)
        assert received and received == scanner.alerts

    def test_mean_latency(self, live_corpus, follow):
        scanner = follow(live_corpus.chain)
        deploy_fresh(live_corpus.chain, label=1, seed=77)
        assert scanner.stats.mean_latency_seconds > 0

    def test_follow_mode_matches_replay_alerts(self, live_corpus,
                                               trained_model, follow):
        """Following a chain as it fills flags the same deployments, with
        the same probabilities, as replaying the filled chain."""
        chain = Blockchain()
        followed = follow(chain, max_batch=4)
        for record in live_corpus.records[:40]:
            chain.deploy(record.bytecode, timestamp=record.timestamp)
        followed.flush()

        replayed = StreamScanner(
            ScanService("replay", model=trained_model), max_batch=8,
        )
        report = TimelineReplayer(replayed).replay_chain(chain)
        assert followed.stats.scanned == report.scanned == 40
        assert report.alerts
        assert {(a.address, a.probability, a.block_number)
                for a in followed.alerts} == {
            (a.address, a.probability, a.block_number)
            for a in report.alerts
        }
