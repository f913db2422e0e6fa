"""Live detection — the paper's §VII future work, implemented.

"While the scope of PhishingHook is to detect phishing smart contracts
before they are deployed, we consider live detection an interesting future
work." This module provides that deployment mode with the seed's poll API
kept intact, but the engine swapped: :class:`LiveDetector` is now a thin
adapter over the :mod:`repro.stream` subsystem. Scoring goes through a
fit-once :class:`~repro.serve.service.ScanService` (batched, deduped,
prediction-cached) driven by a
:class:`~repro.stream.scanner.StreamScanner`, and alert metadata resolves
through the chain's O(1) creation-transaction index instead of an
O(transactions) linear scan per alert.

Two consumption modes:

* **poll** (default, seed-compatible) — each :meth:`LiveDetector.poll`
  sweeps unseen accounts into the stream and drains it,
* **follow** (``follow=True``) — deployments push straight from the
  chain's event bus into the scanner as they land; ``poll()`` merely
  drains the last partial micro-batch and returns what streamed in.

Predictions are bit-identical to the seed's per-contract
``predict_proba([code])`` calls: the batch path scores the same fitted
model on the same normalized bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.blockchain import Blockchain
from repro.models.detector import PhishingDetector
from repro.serve.service import ScanService
from repro.stream.events import EventBus, contract_event_at
from repro.stream.scanner import StreamScanner
from repro.stream.sinks import AlertSink

__all__ = ["Alert", "LiveDetector", "MonitorStats"]


@dataclass(frozen=True)
class Alert:
    """One flagged deployment."""

    address: str
    probability: float
    block_number: int
    timestamp: int
    latency_seconds: float


@dataclass(frozen=True)
class MonitorStats:
    """Aggregate accounting for a monitoring session."""

    scanned: int = 0
    flagged: int = 0
    skipped_empty: int = 0
    total_latency_seconds: float = 0.0

    @property
    def mean_latency_seconds(self) -> float:
        return self.total_latency_seconds / self.scanned if self.scanned else 0.0


class _AdapterSink(AlertSink):
    """Internal follow-mode sink: adapts each stream alert at flush time.

    A failing ``on_alert`` must neither be silently counted away (the
    seed surfaced callback exceptions) nor unwind out of the deployer's
    ``chain.deploy()`` call (monitoring must not fail the ledger write) —
    so the first exception is parked on the detector and re-raised from
    the owner's next :meth:`LiveDetector.poll`.
    """

    name = "live-adapter"

    def __init__(self, detector: "LiveDetector"):
        super().__init__()
        self._detector = detector

    def emit(self, alert) -> bool:
        try:
            self._detector._adapt_new_alerts()
        except Exception as exc:
            self.stats.failed += 1
            if self._detector._deferred_error is None:
                self._detector._deferred_error = exc
            return False
        self.stats.delivered += 1
        return True


class LiveDetector:
    """Score new deployments as they appear on a chain.

    Args:
        chain: The ledger to watch.
        model: A *fitted* detector (training happens offline, ahead of
            monitoring — the latency budget covers scoring only).
        threshold: Alert when P(phishing) ≥ threshold.
        on_alert: Optional callback invoked with each :class:`Alert`.
        max_batch: Micro-batch size for the underlying stream scanner.
        follow: Push mode — subscribe to the chain's deploy events so
            scoring happens as deployments land, not at poll time.
    """

    def __init__(
        self,
        chain: Blockchain,
        model: PhishingDetector,
        threshold: float = 0.5,
        on_alert=None,
        *,
        max_batch: int = 32,
        follow: bool = False,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.chain = chain
        self.model = model
        self.threshold = threshold
        self.on_alert = on_alert
        self.service = ScanService("live", model=model, threshold=threshold)
        self.scanner = StreamScanner(
            self.service,
            max_batch=max_batch,
            max_queue=max(max_batch, 4096),
            policy="block",
            threshold=threshold,
        )
        self.alerts: list[Alert] = []
        self._delivered = 0  # stream alerts already adapted into `alerts`
        self._polled = 0     # adapted alerts already returned by poll()
        self._sequence = 0
        self._deferred_error: Exception | None = None
        self._detach = None
        if follow:
            # Alerts reach the caller at flush time, not only at poll():
            # each emitted stream alert is adapted (and on_alert fired)
            # as its micro-batch is scored.
            self.scanner.add_sink(_AdapterSink(self))
            bus = EventBus()
            self.scanner.attach(bus)
            self._detach = bus.attach(chain)
        self.follow = follow

    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> MonitorStats:
        """Seed-shaped counters, read from the stream scanner.

        Unlike the seed's mutable attribute this is an immutable
        *snapshot* — hold the detector, not a stats reference, and
        re-read after each poll.
        """
        raw = self.scanner.stats
        return MonitorStats(
            scanned=raw.scanned,
            flagged=raw.flagged,
            skipped_empty=raw.skipped_empty,
            total_latency_seconds=raw.total_latency_seconds,
        )

    def mark_existing_as_seen(self) -> int:
        """Skip contracts already deployed; monitor only the future.

        Returns the number of existing contracts (seed semantics), not
        the number newly marked.
        """
        addresses = [account.address for account in self.chain.accounts()]
        self.scanner.mark_seen(addresses)
        return len(addresses)

    def poll(self) -> list[Alert]:
        """Scan all unseen deployments; returns new alerts (oldest first).

        In follow mode the sweep is skipped (events already streamed in);
        the return value is everything alerted since the previous poll,
        including alerts the follow sink delivered between polls. An
        ``on_alert`` exception raised during a follow-mode flush is
        re-raised here, on the monitor owner's side (the affected alerts
        stay queued for the next successful poll).
        """
        if not self.follow:
            for event in self._pending_events():
                self.scanner.on_event(event)
        self.scanner.flush()
        self._adapt_new_alerts()
        if self._deferred_error is not None:
            error, self._deferred_error = self._deferred_error, None
            raise error
        fresh = self.alerts[self._polled:]
        self._polled = len(self.alerts)
        return fresh

    def _pending_events(self):
        """Unseen accounts as stream events (O(1) creation-tx lookups)."""
        for account in self.chain.accounts():
            if account.address in self.scanner.seen:
                continue
            self._sequence += 1
            yield contract_event_at(
                address=account.address,
                code=account.code,
                timestamp=account.deployed_at,
                transaction=self.chain.get_creation_transaction(
                    account.address
                ),
                sequence=self._sequence,
            )

    def _adapt_new_alerts(self) -> list[Alert]:
        fresh = self.scanner.alerts[self._delivered:]
        self._delivered = len(self.scanner.alerts)
        adapted = [
            Alert(
                address=alert.address,
                probability=alert.probability,
                block_number=alert.block_number,
                timestamp=alert.timestamp,
                latency_seconds=alert.latency_seconds,
            )
            for alert in sorted(fresh, key=lambda a: (a.timestamp, a.address))
        ]
        self.alerts.extend(adapted)
        if self.on_alert is not None:
            for alert in adapted:
                self.on_alert(alert)
        return adapted

    def close(self) -> None:
        """Stop following the chain (no-op in poll mode)."""
        if self._detach is not None:
            self._detach()
            self._detach = None

    # ------------------------------------------------------------------ #

    def precision_against(self, ground_truth: set[str]) -> float:
        """Alert precision given the true phishing address set."""
        if not self.alerts:
            return 0.0
        hits = sum(1 for alert in self.alerts if alert.address in ground_truth)
        return hits / len(self.alerts)

    def recall_against(self, ground_truth: set[str]) -> float:
        """Alert recall over the scanned portion of the ground truth."""
        scanned_truth = ground_truth & self.scanner.seen
        if not scanned_truth:
            return 0.0
        hits = sum(
            1 for alert in self.alerts if alert.address in scanned_truth
        )
        return hits / len(scanned_truth)
