"""Tests for the micro-batching stream scanner."""

import pytest

from repro.stream.scanner import StreamScanner
from repro.stream.sinks import CallbackSink, MemorySink
from tests.stream.test_events import make_event


def events_for(corpus, count=None):
    """Corpus deployments as stream events, oldest first."""
    records = corpus.records if count is None else corpus.records[:count]
    return [
        make_event_from(record, i) for i, record in enumerate(records)
    ]


def make_event_from(record, sequence):
    from repro.stream.events import ContractEvent
    import time

    return ContractEvent(
        address=record.address,
        code=record.bytecode,
        block_number=sequence + 1,
        timestamp=record.timestamp,
        tx_hash=f"0x{sequence:x}",
        sequence=sequence,
        enqueued_at=time.perf_counter(),
    )


class TestValidation:
    def test_bad_config_rejected(self, service):
        with pytest.raises(ValueError):
            StreamScanner(service, max_batch=0)
        with pytest.raises(ValueError):
            StreamScanner(service, max_batch=16, max_queue=8)
        with pytest.raises(ValueError):
            StreamScanner(service, policy="explode")
        for threshold in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                StreamScanner(service, threshold=threshold)
        with pytest.raises(TypeError):  # no shard knob
            StreamScanner(service, shards=2)


class TestMicroBatching:
    def test_flush_on_size(self, service, stream_corpus):
        scanner = StreamScanner(service, max_batch=4, max_queue=16)
        for event in events_for(stream_corpus, 3):
            scanner.on_event(event)
        assert scanner.stats.batches == 0  # below threshold: nothing flushed
        assert scanner.pending == 3
        scanner.on_event(events_for(stream_corpus, 4)[3])
        assert scanner.stats.batches == 1
        assert scanner.pending == 0
        assert scanner.stats.scanned == 4

    def test_flush_on_deadline(self, service, stream_corpus):
        scanner = StreamScanner(
            service, max_batch=64, max_queue=64,
            flush_deadline_seconds=0.5,
        )
        (event,) = events_for(stream_corpus, 1)
        scanner.on_event(event)
        # Not yet due → no flush; past the deadline → flushed.
        assert scanner.tick(now=event.enqueued_at + 0.1) == []
        assert scanner.pending == 1
        scanner.tick(now=event.enqueued_at + 0.6)
        assert scanner.pending == 0
        assert scanner.stats.batches == 1

    def test_drain_flushes_everything_in_micro_batches(
        self, service, stream_corpus
    ):
        scanner = StreamScanner(service, max_batch=8, max_queue=64)
        events = events_for(stream_corpus, 21)
        for event in events[:7]:  # stay under the auto-flush threshold
            scanner.on_event(event)
        scanner.flush()
        assert scanner.stats.scanned == 7
        assert scanner.pending == 0

    def test_dedup_and_empty_code(self, service, stream_corpus):
        scanner = StreamScanner(service, max_batch=4, max_queue=16)
        (event,) = events_for(stream_corpus, 1)
        assert scanner.on_event(event)
        assert not scanner.on_event(event)  # redelivery deduped
        assert scanner.stats.deduped == 1
        empty = make_event(999, code=b"")
        assert not scanner.on_event(empty)
        assert scanner.stats.skipped_empty == 1
        assert scanner.pending == 1

    def test_malformed_code_is_skipped_not_batched(
        self, service, stream_corpus
    ):
        """A code that does not normalize is counted at admission and
        never reaches a micro-batch, so the valid events sharing its
        batch are all scored and ``flush`` does not raise."""
        from repro.stream.events import EventBus

        scanner = StreamScanner(service)
        bus = EventBus()
        scanner.attach(bus)
        valid = events_for(stream_corpus, 15)
        for event in valid[:7]:
            bus.publish(event)
        bus.publish(make_event(999, code="0xzz"))
        for event in valid[7:]:
            bus.publish(event)
        scanner.flush()
        assert scanner.stats.skipped_malformed == 1
        assert scanner.stats.scanned == 15
        assert scanner.pending == 0
        assert scanner.summary()["skipped_malformed"] == 1
        # A redelivered malformed event is deduped, not retried.
        bus.publish(make_event(999, code="0xzz"))
        assert scanner.stats.deduped == 1
        assert scanner.stats.skipped_malformed == 1

    def test_admitted_hex_code_scores_like_bytes(
        self, service, stream_corpus
    ):
        (record,) = stream_corpus.records[:1]
        hexed = make_event(1, code="0x" + record.bytecode.hex())
        scanner = StreamScanner(service)
        assert scanner.on_event(hexed)
        scanner.flush()
        (expected,) = service.scan_bytecodes([record.bytecode])
        assert scanner.stats.scanned == 1
        assert scanner.stats.flagged == int(
            expected.probability >= scanner.threshold
        )


class TestBackpressure:
    def test_block_policy_flushes_inline(self, service, stream_corpus):
        scanner = StreamScanner(
            service, max_batch=4, max_queue=4, policy="block"
        )
        for event in events_for(stream_corpus, 10):
            scanner.on_event(event)
        scanner.flush()
        assert scanner.stats.dropped == 0
        assert scanner.stats.scanned == 10

    def test_drop_policies_shed_counted_load(self, service, stream_corpus):
        events = events_for(stream_corpus, 12)
        for policy in ("drop_oldest", "drop_newest", "sample"):
            scanner = StreamScanner(
                service, max_batch=64, max_queue=4,
                policy=policy, seed=5, auto_flush=False,
            )
            # Consumer-paced mode: the bounded queue must shed load.
            for event in events:
                scanner.on_event(event)
            assert scanner.pending == 4
            assert scanner.stats.dropped == 8
            scanner.flush()
            assert scanner.stats.scanned + scanner.stats.dropped == 12

    def test_shed_events_are_not_seen_poisoned(self, service, stream_corpus):
        """A dropped event must stay re-deliverable (at-least-once)."""
        events = events_for(stream_corpus, 3)
        # Refused newcomer: redelivery is scanned, not deduped.
        scanner = StreamScanner(
            service, max_batch=2, max_queue=2, policy="drop_newest",
            auto_flush=False,
        )
        for event in events:
            scanner.on_event(event)
        assert scanner.stats.dropped == 1
        scanner.flush()
        assert scanner.on_event(events[2])  # redelivery admitted
        scanner.flush()
        assert scanner.stats.scanned == 3
        assert scanner.stats.deduped == 0

        # Evicted resident: redelivery is scanned, not deduped.
        scanner = StreamScanner(
            service, max_batch=2, max_queue=2,
            policy="drop_oldest", auto_flush=False,
        )
        for event in events:
            scanner.on_event(event)  # events[0] evicted
        scanner.flush()
        assert scanner.on_event(events[0])
        scanner.flush()
        assert scanner.stats.scanned == 3
        assert scanner.stats.deduped == 0

    def test_auto_flush_requires_room_for_a_batch(self, service):
        with pytest.raises(ValueError):
            StreamScanner(service, max_batch=16, max_queue=8)
        # Fine without auto_flush: the queue bound is the consumer's pace.
        StreamScanner(service, max_batch=16, max_queue=8, auto_flush=False)


class TestShardingAndParity:
    def test_alerts_match_direct_batch_scan(self, service, stream_corpus):
        """Streaming = one big scan_bytecodes call, bit for bit."""
        events = events_for(stream_corpus, 30)
        direct = service.scan_bytecodes(
            [e.code for e in events], addresses=[e.address for e in events]
        )
        expected = {
            r.address: r.probability for r in direct if r.probability >= 0.5
        }

        scanner = StreamScanner(
            service, max_batch=7, max_queue=64, threshold=0.5,
        )
        for event in events:
            scanner.on_event(event)
        scanner.flush()
        streamed = {a.address: a.probability for a in scanner.alerts}
        assert streamed == expected

    def test_latency_accounting(self, service, stream_corpus):
        scanner = StreamScanner(service, max_batch=8, max_queue=64)
        for event in events_for(stream_corpus, 8):
            scanner.on_event(event)
        scanner.flush()
        stats = scanner.stats
        assert stats.mean_latency_seconds > 0
        percentiles = stats.latency_percentiles()
        assert 0 < percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_d003_fires_exactly_where_the_hit_rate_falls(
            self, fitted_service, stream_corpus):
        """check-config's D003 sizes a flush cycle's working set as
        ``batch_size``. Replaying 16 repeating contracts in flushes of
        16, a cache of ``cache_entries`` entries hits
        ``cache_entries / 16`` of the lookups once warm: 0.5 at 8, 0.9375
        at 15 (where D003 fires) and 1.0 at 16. The rule's message states
        that fraction."""
        batch_size = 16
        codes = _distinct_codes(stream_corpus, batch_size)
        for entries in (8, batch_size - 1, batch_size):
            service = _witness_service(fitted_service, entries)
            scanner = StreamScanner(service, max_batch=batch_size,
                                    max_queue=256)
            hit_rate = _steady_hit_rate(scanner, codes)
            assert hit_rate == entries / batch_size, (entries, hit_rate)
            # Serving without a shadow caches predictions only.
            assert set(service.cache.stats.by_namespace) == {
                service._serving[1]}
            violations = _cache_rules(entries, batch_size)
            assert ("D003" in violations) == (entries < batch_size)
            if entries < batch_size:
                assert f"= {entries}/{batch_size} ({hit_rate:.0%})" in (
                    violations["D003"].message)

    @pytest.mark.parametrize("section", ["rollout", "loop"])
    def test_d003_d004_size_a_shadowed_flush(
            self, fitted_service, stream_corpus, stream_dataset, tmp_path,
            section):
        """A shadow scoring the same micro-batches adds the candidate's
        predictions and the decodes both models share. At a batch of 16
        the primary's steady-state hit rate reads 0.0 at 32 entries,
        0.5 at 33 and 35 and 1.0 from 36 = 2 x 16 + ceil(16 / 4): with
        ``[rollout]`` or ``[loop]`` set, D003 fires exactly below 36 and
        D004 warns from there to 2 x 36."""
        from repro.artifacts import ModelStore
        from repro.core.registry import create_model
        from repro.loop import LoopOrchestrator
        from repro.rollout import ManualHoldPolicy, ShadowRollout

        candidate = create_model("Random Forest", seed=1).fit(
            stream_dataset.bytecodes, stream_dataset.labels)
        store = ModelStore(tmp_path / "store")
        store.put(candidate, model_name="Random Forest",
                  tags=("candidate",))
        batch_size = 16
        codes = _distinct_codes(stream_corpus, batch_size)
        measured = {}
        for entries in (32, 33, 35, 36):
            service = _witness_service(fitted_service, entries)
            scanner = StreamScanner(service, max_batch=batch_size,
                                    max_queue=256)
            if section == "rollout":
                shadow = ShadowRollout(scanner, "candidate", store=store,
                                       policy=ManualHoldPolicy())
            else:
                loop = LoopOrchestrator(
                    scanner, store, label_of=lambda address: None,
                    policy=ManualHoldPolicy())
                loop._start_shadow("candidate")  # its shadow phase
                shadow = loop.rollout
            measured[entries] = _steady_hit_rate(scanner, codes)
            assert shadow.state == "shadowing"
            assert shadow.comparison.events == 20 * batch_size
            shadow.detach()
            violations = _cache_rules(entries, batch_size,
                                      **_SHADOW_SECTIONS[section])
            assert ("D003" in violations) == (measured[entries] < 1.0)
            assert ("D004" in violations) == (measured[entries] == 1.0)
        assert measured == {32: 0.0, 33: 0.5, 35: 0.5, 36: 1.0}
        # Without a shadow the same 32 entries hold two flushes.
        assert not {"D003", "D004"} & set(_cache_rules(32, batch_size))


#: Override sections that put a shadow on the scanner.
_SHADOW_SECTIONS = {
    "rollout": {"rollout": {"candidate": "candidate",
                            "production": "production"}},
    "loop": {"loop": {}},
}


def _distinct_codes(corpus, count):
    codes = list(dict.fromkeys(
        r.bytecode for r in corpus.records if r.bytecode))[:count]
    assert len(codes) == count
    return codes


def _witness_service(fitted_service, entries):
    from repro.serve.cache import FeatureCache
    from repro.serve.service import ScanService

    return ScanService(fitted_service.model_name,
                       model=fitted_service.model,
                       cache=FeatureCache(entries))


def _steady_hit_rate(scanner, codes, flushes=20):
    """The primary's prediction hit rate over the last half of
    ``flushes`` flushes, each of every code in ``codes`` once."""
    service = scanner.service
    namespace = service._serving[1]
    batch_size = len(codes)
    for sequence in range(batch_size * flushes):
        if sequence == batch_size * flushes // 2:
            warm = service.cache.stats.by_namespace[namespace]
        scanner.on_event(make_event(sequence, codes[sequence % batch_size]))
    scanner.flush()
    hits, misses = (now - then for now, then in zip(
        service.cache.stats.by_namespace[namespace], warm))
    return hits / (hits + misses)


def _cache_rules(entries, batch_size, **sections):
    """D003/D004 violations, by rule id, for one cache size."""
    from repro.deploy import check_config, parse_config
    from tests.deploy.conftest import base_config

    report = check_config(parse_config(base_config(
        serve={"cache_entries": entries},
        stream={"batch_size": batch_size}, **sections,
    )))
    return {v.rule_id: v for v in report.violations
            if v.rule_id in ("D003", "D004")}


class TestBenchmarkSurface:
    """The scanner as ``scanbench/workloads.py``'s ``run_stream`` builds
    and drives it: ``shards=StreamConfig.shards`` (accepted, ignored),
    blocks of ``batch_size`` deploy events published then flushed, and
    an observer whose ``observe`` takes exactly four keyword-only
    arguments."""

    def test_one_scan_per_micro_batch_and_every_event_observed_once(
            self, fitted_service, stream_corpus, tmp_path, monkeypatch):
        from repro.artifacts import save_artifact
        from repro.deploy.config import StreamConfig
        from repro.serve.service import ScanService
        from repro.stream.events import EventBus

        artifact = tmp_path / "model.npz"
        save_artifact(fitted_service.model, artifact,
                      model_name=fitted_service.model_name)

        class Observer:
            def __init__(self):
                self.calls = 0
                self.observed = []

            def observe(self, *, shard, events, results, elapsed_seconds):
                self.calls += 1
                self.observed.extend(
                    (event.address, result.probability)
                    for event, result in zip(events, results))

        calls = []
        scan_bytecodes = ScanService.scan_bytecodes

        def spy(service, codes, **kwargs):
            calls.append(len(codes))
            return scan_bytecodes(service, codes, **kwargs)

        monkeypatch.setattr(ScanService, "scan_bytecodes", spy)
        sink = MemorySink()
        scanner = StreamScanner.from_artifact(
            str(artifact), shards=StreamConfig.shards,
            max_batch=StreamConfig.batch_size, sinks=[sink],
        )
        observer = Observer()
        bus = EventBus()
        scanner.attach(bus)
        scanner.add_observer(observer)
        events = events_for(stream_corpus, 4 * StreamConfig.batch_size + 3)
        for start in range(0, len(events), StreamConfig.batch_size):
            for event in events[start:start + StreamConfig.batch_size]:
                bus.publish(event)
            scanner.flush()
        scanner.close()

        batches = scanner.stats.batches
        assert batches == 5
        assert calls == [StreamConfig.batch_size] * 4 + [3]
        assert observer.calls == batches
        assert [a for a, _p in observer.observed] == [
            e.address for e in events]

        monkeypatch.undo()
        direct = ScanService.from_artifact(str(artifact)).scan_bytecodes(
            [e.code for e in events], addresses=[e.address for e in events])
        assert [p for _a, p in observer.observed] == [
            r.probability for r in direct]
        assert [(a.address, a.probability) for a in sink.alerts] == [
            (r.address, r.probability) for r in direct
            if r.probability >= scanner.threshold
        ]
        assert {a.shard for a in sink.alerts} <= {0}


class TestSinks:
    def test_alerts_fan_out_to_sinks(self, service, stream_corpus):
        memory = MemorySink()
        received = []
        scanner = StreamScanner(
            service, max_batch=8, max_queue=64,
            sinks=[memory, CallbackSink(received.append)],
        )
        for event in events_for(stream_corpus, 16):
            scanner.on_event(event)
        scanner.flush()
        assert len(memory.alerts) == scanner.stats.flagged
        assert received == memory.alerts
        assert memory.stats.delivered == scanner.stats.flagged

    def test_failing_sink_does_not_break_scanning(
        self, service, stream_corpus
    ):
        def explode(alert):
            raise RuntimeError("delivery down")

        bad = CallbackSink(explode)
        good = MemorySink()
        scanner = StreamScanner(
            service, max_batch=8, max_queue=64, sinks=[bad, good]
        )
        for event in events_for(stream_corpus, 16):
            scanner.on_event(event)
        scanner.flush()
        assert scanner.stats.flagged > 0
        assert bad.stats.failed == scanner.stats.flagged
        assert bad.stats.delivered == 0
        assert good.stats.delivered == scanner.stats.flagged

    def test_summary_is_json_ready(self, service, stream_corpus):
        import json

        scanner = StreamScanner(
            service, max_batch=8, max_queue=64, sinks=[MemorySink()],
        )
        for event in events_for(stream_corpus, 10):
            scanner.on_event(event)
        scanner.close()
        summary = scanner.summary()
        json.dumps(summary)
        assert summary["scanned"] == 10
        assert summary["sinks"]["memory"]["delivered"] == summary["flagged"]
