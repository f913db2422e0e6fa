"""Tests for the timeline replay driver and chain-following parity."""

import json

import pytest

from repro.chain.blockchain import Blockchain
from repro.stream.events import EventBus
from repro.stream.replay import TimelineReplayer
from repro.stream.scanner import StreamScanner
from repro.stream.sinks import CallbackSink


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
    """A scanner following a chain needs no poll: it scores deployments
    as they land and stamps them as a replay of the chain does."""

    def test_follow_mode_delivers_at_flush_without_poll(
        self, service, stream_corpus
    ):
        chain = Blockchain()
        received = []
        scanner = StreamScanner(service, max_batch=2, threshold=0.5,
                                sinks=[CallbackSink(received.append)])
        bus = EventBus()
        scanner.attach(bus)
        detach = bus.attach(chain)
        try:
            for record in stream_corpus.phishing_records()[:4]:
                chain.deploy(record.bytecode, timestamp=record.timestamp)
            # Two micro-batches auto-flushed during the deploys themselves.
            assert scanner.stats.scanned == 4
            assert scanner.pending == 0
            assert len(received) > 0
            assert received == scanner.alerts
        finally:
            detach()

    def test_alert_block_numbers_use_creation_index(
        self, service, stream_corpus
    ):
        scanner = StreamScanner(service, max_batch=8, max_queue=64,
                                threshold=0.5)
        report = TimelineReplayer(scanner).replay_chain(stream_corpus.chain)
        assert report.alerts
        for alert in report.alerts:
            transaction = stream_corpus.chain.get_creation_transaction(
                alert.address
            )
            assert alert.block_number == transaction.block_number
