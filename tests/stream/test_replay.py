"""Tests for the timeline replay driver and poll/stream parity."""

import json

import pytest

from repro.core.live import LiveDetector
from repro.stream.replay import TimelineReplayer
from repro.stream.scanner import StreamScanner
from repro.stream.sinks import MemorySink


class TestReplay:
    def test_replay_chain_scans_every_deployment(
        self, service, stream_corpus
    ):
        scanner = StreamScanner(service, max_batch=16, max_queue=64)
        report = TimelineReplayer(scanner).replay_chain(stream_corpus.chain)
        assert report.events == len(stream_corpus.chain)
        assert report.scanned == report.events
        assert report.dropped == 0
        assert report.events_per_second > 0
        latency = report.latency_seconds
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        json.dumps(report.as_dict())

    def test_replay_records_resolves_chain_metadata(
        self, service, stream_corpus
    ):
        scanner = StreamScanner(service, max_batch=16, max_queue=64)
        report = TimelineReplayer(scanner).replay_records(
            stream_corpus.records[:20], chain=stream_corpus.chain
        )
        assert report.scanned == 20
        assert all(alert.block_number > 0 for alert in report.alerts)

    def test_repeat_replay_dedups_and_hits_cache(self, service, stream_corpus):
        scanner = StreamScanner(service, max_batch=16, max_queue=64)
        replayer = TimelineReplayer(scanner)
        first = replayer.replay_chain(stream_corpus.chain)
        again = replayer.replay_chain(stream_corpus.chain)
        assert first.scanned == len(stream_corpus.chain)
        assert again.scanned == 0  # every address deduped on redelivery
        assert again.deduped == again.events

    def test_warm_scanner_serves_alerts_from_cache(
        self, service, stream_corpus
    ):
        cold = StreamScanner(service, max_batch=16, max_queue=64)
        cold_report = TimelineReplayer(cold).replay_chain(stream_corpus.chain)
        warm = StreamScanner(service, max_batch=16, max_queue=64)
        warm_report = TimelineReplayer(warm).replay_chain(stream_corpus.chain)
        assert {a.address for a in warm_report.alerts} == {
            a.address for a in cold_report.alerts
        }
        assert all(alert.from_cache for alert in warm_report.alerts)

    def test_rate_paces_the_feed(self, service, stream_corpus):
        from tests.stream.test_scanner import events_for

        scanner = StreamScanner(service, max_batch=4, max_queue=16)
        events = events_for(stream_corpus, 10)
        report = TimelineReplayer(scanner, rate=500.0).replay_events(events)
        # 10 events at 500/s: the feed alone spans ≥ 9/500 s.
        assert report.duration_seconds >= 9 / 500.0
        assert report.scanned == 10

    def test_bad_config_rejected(self, service):
        scanner = StreamScanner(service)
        with pytest.raises(ValueError):
            TimelineReplayer(scanner, rate=0)
        with pytest.raises(ValueError):
            TimelineReplayer(scanner, tick_every=0)


class TestPollStreamParity:
    def test_live_detector_matches_stream_alerts(
        self, fitted_service, service, stream_corpus
    ):
        """The poll adapter and a direct replay flag the same addresses
        with the same probabilities."""
        detector = LiveDetector(
            stream_corpus.chain, fitted_service.model, threshold=0.5
        )
        poll_alerts = detector.poll()

        scanner = StreamScanner(
            service, max_batch=8, max_queue=64, threshold=0.5,
        )
        report = TimelineReplayer(scanner).replay_chain(stream_corpus.chain)
        assert {(a.address, a.probability) for a in poll_alerts} == {
            (a.address, a.probability) for a in report.alerts
        }
        assert detector.stats.scanned == report.scanned

    def test_mark_existing_returns_total_each_call(
        self, fitted_service, stream_corpus
    ):
        detector = LiveDetector(stream_corpus.chain, fitted_service.model)
        total = len(stream_corpus.chain)
        assert detector.mark_existing_as_seen() == total  # seed semantics
        assert detector.mark_existing_as_seen() == total

    def test_follow_mode_delivers_at_flush_without_poll(
        self, fitted_service, stream_corpus
    ):
        from repro.chain.blockchain import Blockchain

        chain = Blockchain()
        received = []
        detector = LiveDetector(
            chain, fitted_service.model, threshold=0.5,
            on_alert=received.append, follow=True, max_batch=2,
        )
        for record in stream_corpus.phishing_records()[:4]:
            chain.deploy(record.bytecode, timestamp=record.timestamp)
        # Two micro-batches auto-flushed during the deploys themselves.
        assert detector.stats.scanned == 4
        assert len(received) > 0
        assert received == detector.alerts
        # poll() returns everything streamed in since the last poll…
        assert detector.poll() == detector.alerts
        # …exactly once.
        assert detector.poll() == []
        detector.close()

    def test_follow_mode_defers_on_alert_errors_to_poll(
        self, fitted_service, stream_corpus
    ):
        """A raising on_alert must not unwind chain.deploy(); it surfaces
        from the owner's next poll instead."""
        from repro.chain.blockchain import Blockchain

        calls = []

        def explode(alert):
            calls.append(alert)
            raise RuntimeError("pager down")

        chain = Blockchain()
        detector = LiveDetector(
            chain, fitted_service.model, threshold=0.5,
            on_alert=explode, follow=True, max_batch=1,
        )
        record = stream_corpus.phishing_records()[0]
        address = chain.deploy(record.bytecode, timestamp=record.timestamp)
        assert calls, "expected the phishing deploy to alert"  # deploy OK
        with pytest.raises(RuntimeError, match="pager down"):
            detector.poll()
        # The alert itself was not lost: the next poll returns it.
        assert [a.address for a in detector.poll()] == [address]
        detector.close()

    def test_wrapping_a_borrowed_model_keeps_its_cache_wiring(
        self, stream_corpus
    ):
        """LiveDetector must not silently re-point a borrowed model's
        extractors at its private cache."""

        class Recording:
            def __init__(self):
                self.attached = []

            def use_feature_cache(self, cache):
                self.attached.append(cache)

        model = Recording()
        LiveDetector(stream_corpus.chain, model, threshold=0.5)
        assert model.attached == []

    def test_alert_block_numbers_use_creation_index(
        self, fitted_service, stream_corpus
    ):
        detector = LiveDetector(
            stream_corpus.chain, fitted_service.model, threshold=0.5
        )
        for alert in detector.poll():
            transaction = stream_corpus.chain.get_creation_transaction(
                alert.address
            )
            assert alert.block_number == transaction.block_number
