"""Tests for alert sinks and their delivery accounting."""

import json

import pytest

from repro.stream.scanner import StreamAlert
from repro.stream.sinks import (
    AlertSink,
    CallbackSink,
    JsonlSink,
    MemorySink,
    WebhookSink,
)


@pytest.fixture
def alert():
    return StreamAlert(
        address="0x" + "ab" * 20,
        probability=0.93,
        block_number=18_000_000,
        timestamp=1_700_000_000,
        latency_seconds=0.004,
        shard=1,
        batch_id=7,
        from_cache=False,
    )


def test_base_sink_requires_deliver(alert):
    sink = AlertSink()
    assert not sink.emit(alert)  # NotImplementedError → counted failure
    assert sink.stats.failed == 1


def test_memory_sink_collects(alert):
    sink = MemorySink()
    assert sink.emit(alert)
    assert sink.alerts == [alert]
    assert sink.stats.as_dict() == {"delivered": 1, "failed": 0}


def test_jsonl_sink_appends_one_object_per_alert(alert, tmp_path):
    path = tmp_path / "alerts.jsonl"
    sink = JsonlSink(path)
    sink.emit(alert)
    sink.emit(alert)
    sink.close()
    sink.close()  # idempotent
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    body = json.loads(lines[0])
    assert body["address"] == alert.address
    assert body["probability"] == alert.probability
    assert body["shard"] == 1


def test_callback_sink_invokes(alert):
    received = []
    sink = CallbackSink(received.append)
    sink.emit(alert)
    assert received == [alert]


def test_callback_failure_is_swallowed_and_counted(alert):
    def explode(_):
        raise RuntimeError("down")

    sink = CallbackSink(explode)
    assert not sink.emit(alert)
    assert sink.stats.failed == 1
    assert sink.stats.delivered == 0


def test_webhook_sink_records_wire_format(alert):
    sink = WebhookSink.recording("https://hooks.example/phishing")
    sink.emit(alert)
    (url, body), = sink.sent
    assert url == "https://hooks.example/phishing"
    assert body["type"] == "phishing_alert"
    assert body["address"] == alert.address
    assert body["block_number"] == alert.block_number


def test_webhook_custom_transport_failure_counted(alert):
    def transport(url, body):
        raise ConnectionError("no route")

    sink = WebhookSink("https://hooks.example/x", transport=transport)
    assert not sink.emit(alert)
    assert sink.stats.failed == 1
    assert sink.sent == []


class TestFailurePaths:
    """Delivery failures are counted per channel, never fatal."""

    def test_webhook_flaky_transport_accounting(self, alert):
        calls = {"n": 0}

        def flaky(url, body):
            calls["n"] += 1
            if calls["n"] % 3 == 0:  # every third POST times out
                raise TimeoutError("gateway timeout")

        sink = WebhookSink("https://hooks.example/phishing", transport=flaky)
        outcomes = [sink.emit(alert) for _ in range(9)]
        assert outcomes.count(True) == 6
        assert sink.stats.as_dict() == {"delivered": 6, "failed": 3}
        # Only successful posts count as delivered; the wire log keeps
        # everything the default recorder saw (custom transport: none).
        assert sink.sent == []

    def test_webhook_failure_then_recovery(self, alert):
        state = {"down": True}

        def transport(url, body):
            if state["down"]:
                raise ConnectionError("endpoint down")

        sink = WebhookSink("https://hooks.example/x", transport=transport)
        assert not sink.emit(alert)
        state["down"] = False
        assert sink.emit(alert)
        assert sink.stats.as_dict() == {"delivered": 1, "failed": 1}

    def test_jsonl_opens_lazily(self, alert, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # nothing touched before traffic
        sink.emit(alert)
        sink.close()
        assert path.exists()

    def test_jsonl_unwritable_path_counts_failures(self, alert, tmp_path):
        # The parent directory does not exist: every append fails, the
        # failure is visible in the sink stats, and nothing raises out
        # of emit() into the scan loop.
        sink = JsonlSink(tmp_path / "missing-dir" / "alerts.jsonl")
        assert not sink.emit(alert)
        assert not sink.emit(alert)
        assert sink.stats.as_dict() == {"delivered": 0, "failed": 2}
        sink.close()  # close with no handle is a no-op

    def test_jsonl_unwritable_path_recovers_when_fixed(self, alert, tmp_path):
        target = tmp_path / "late-dir" / "alerts.jsonl"
        sink = JsonlSink(target)
        assert not sink.emit(alert)
        target.parent.mkdir()
        assert sink.emit(alert)
        sink.close()
        assert len(target.read_text().strip().splitlines()) == 1
        assert sink.stats.as_dict() == {"delivered": 1, "failed": 1}

    def test_failing_sink_never_breaks_the_scan_loop(self, service,
                                                     stream_dataset,
                                                     tmp_path):
        from repro.stream.scanner import StreamScanner
        from repro.stream.events import ContractEvent

        broken = JsonlSink(tmp_path / "nope" / "alerts.jsonl")
        healthy = MemorySink()
        scanner = StreamScanner(
            service, max_batch=4, threshold=1e-9,  # alert on any nonzero score
            sinks=[broken, healthy],
        )
        codes = stream_dataset.bytecodes[:12]
        for index, code in enumerate(codes):
            scanner.on_event(ContractEvent(
                address=f"0x{index:040x}", code=code, block_number=index,
                timestamp=1_700_000_000 + index,
                tx_hash=f"0x{index:064x}", sequence=index,
            ))
        scanner.flush()
        # Scanning finished; the broken channel is visible per channel.
        assert scanner.stats.scanned == len(codes)
        assert len(healthy.alerts) == scanner.stats.flagged > 0
        summary = scanner.summary()["sinks"]
        assert summary["jsonl"]["failed"] == scanner.stats.flagged
        assert summary["jsonl"]["delivered"] == 0
        assert summary["memory"]["delivered"] == scanner.stats.flagged


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDeadLetterSink:
    """Zero-alert-loss wrapper: delivered or spooled, never dropped."""

    def _sink(self, tmp_path, *, failures=2, reset=5.0):
        from repro.net.retry import CircuitBreaker
        from repro.stream.sinks import DeadLetterSink

        clock = _Clock()
        inner = MemorySink()
        sink = DeadLetterSink(
            inner, tmp_path / "dead.jsonl",
            breaker=CircuitBreaker(failures=failures,
                                   reset_seconds=reset, clock=clock),
        )
        return sink, inner, clock

    def test_healthy_channel_passes_straight_through(self, alert,
                                                     tmp_path):
        sink, inner, _ = self._sink(tmp_path)
        assert sink.emit(alert)
        assert inner.alerts == [alert]
        assert sink.stats.as_dict() == {
            "delivered": 1, "failed": 0, "spooled": 0, "replayed": 0,
        }
        assert sink.spooled_alerts() == []

    def test_failed_delivery_spools_and_trips_the_breaker(self, alert,
                                                          tmp_path):
        from repro.faults import FaultPlan, FaultSpec
        from repro.net.retry import CircuitBreaker

        sink, inner, _ = self._sink(tmp_path)
        plan = FaultPlan([FaultSpec("sink.emit", "error",
                                    match="memory", count=2)])
        with plan.installed():
            assert sink.emit(alert)  # spooled counts as accounted-for
            assert sink.emit(alert)
        assert inner.alerts == []
        assert sink.stats.spooled == 2
        assert sink.breaker.state == CircuitBreaker.OPEN
        assert len(sink.spooled_alerts()) == 2

    def test_open_breaker_spools_without_attempting(self, alert,
                                                    tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        sink, inner, _ = self._sink(tmp_path)
        # Two injected failures open the breaker; the third emit must
        # not even reach the inner sink (the fault budget is spent).
        plan = FaultPlan([FaultSpec("sink.emit", "error",
                                    match="memory", count=2)])
        with plan.installed():
            sink.emit(alert)
            sink.emit(alert)
            assert sink.emit(alert)
            assert plan.specs[0].hits == 2, (
                "open breaker still attempted a delivery"
            )
        assert sink.stats.spooled == 3

    def test_recovery_replays_the_spool_in_order(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        sink, inner, clock = self._sink(tmp_path)
        alerts = [{"address": f"0x{i:040x}", "probability": 0.9}
                  for i in range(4)]
        plan = FaultPlan([FaultSpec("sink.emit", "error",
                                    match="memory", count=2)])
        with plan.installed():
            sink.emit(alerts[0])
            sink.emit(alerts[1])
            sink.emit(alerts[2])  # breaker open: straight to spool
        clock.now += 5.0  # half-open: next emit is the probe
        assert sink.emit(alerts[3])
        # Probe delivered, then the whole spool replayed oldest-first.
        assert inner.alerts == [alerts[3], alerts[0], alerts[1],
                                alerts[2]]
        assert sink.spooled_alerts() == []
        assert sink.stats.as_dict() == {
            "delivered": 4, "failed": 0, "spooled": 0, "replayed": 3,
        }

    def test_replay_stops_at_first_failure_and_keeps_order(self,
                                                           tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        sink, inner, clock = self._sink(tmp_path)
        alerts = [{"address": f"0x{i:040x}"} for i in range(3)]
        plan = FaultPlan([FaultSpec("sink.emit", "error",
                                    match="memory", count=2)])
        with plan.installed():
            sink.emit(alerts[0])
            sink.emit(alerts[1])
            sink.emit(alerts[2])
        clock.now += 5.0
        # The probe succeeds, replay delivers alerts[0], then a fresh
        # fault kills the second replay: the tail must stay spooled.
        plan2 = FaultPlan([FaultSpec("sink.emit", "error",
                                     match="memory", after=2)])
        with plan2.installed():
            sink.emit({"address": "0xprobe"})
        assert inner.alerts == [{"address": "0xprobe"}, alerts[0]]
        assert sink.spooled_alerts() == [alerts[1], alerts[2]]
        assert sink.stats.replayed == 1

    def test_unwritable_spool_is_the_only_true_loss(self, alert,
                                                    tmp_path):
        from repro.faults import FaultPlan, FaultSpec
        from repro.net.retry import CircuitBreaker
        from repro.stream.sinks import DeadLetterSink

        clock = _Clock()
        sink = DeadLetterSink(
            MemorySink(), tmp_path / "no-such-dir" / "dead.jsonl",
            breaker=CircuitBreaker(failures=1, reset_seconds=5.0,
                                   clock=clock),
        )
        plan = FaultPlan([FaultSpec("sink.emit", "error",
                                    match="memory")])
        with plan.installed():
            assert not sink.emit(alert)
        assert sink.stats.failed == 1
        assert sink.stats.spooled == 0

    def test_close_replays_then_closes_inner(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        sink, inner, clock = self._sink(tmp_path)
        plan = FaultPlan([FaultSpec("sink.emit", "error",
                                    match="memory", count=2)])
        with plan.installed():
            sink.emit({"address": "0x1"})
            sink.emit({"address": "0x2"})
        clock.now += 5.0
        sink.close()
        assert inner.alerts == [{"address": "0x1"}, {"address": "0x2"}]
        assert sink.spooled_alerts() == []
