"""Micro-batching streaming scanner: events in, alerts out.

The seed's live monitor rescanned the whole account set per poll and
scored bytecodes one ``predict_proba`` call at a time. ``StreamScanner``
inverts the shape: deployment events are *pushed* into a bounded intake
queue, grouped into micro-batches (flushed on size or deadline — the
classic latency/throughput dial), and each micro-batch is scored in one
call on the scanner's fit-once :class:`~repro.serve.service.ScanService`
hot path (in-batch dedup + content-addressed prediction cache). Cold
starts are covered too: the service precompiles ensemble models into
the flat inference engine (:mod:`repro.ml.flat`) when it fits or wraps
them, so the very first micro-batch after a stream spin-up is scored by
vectorized descent rather than per-row tree walks
(``summary()["flat_compiled"]``). Flagged deployments become
:class:`StreamAlert` objects fanned out to the registered sinks.

Backpressure is explicit: the intake queue is bounded, and the ``policy``
chooses what happens when a producer outruns the scanner —

* ``block`` — flush inline to make room (the producer pays the scan;
  nothing is lost; the in-process analogue of blocking the publisher),
* ``drop_oldest`` / ``drop_newest`` / ``sample`` — shed load with an
  explicit, counted drop (freshest-first, history-first, or randomized).

Every stage keeps counters (``scanner.stats``), and per-event end-to-end
latency (enqueue → scored) feeds the p50/p95/p99 accounting the paper's
§IV-F latency budget motivates.

Two post-scoring hooks hang off the scanner: *sinks* receive every
flagged alert (:mod:`repro.stream.sinks`, failure-isolated), and
*observers* receive every scored micro-batch
(:meth:`StreamScanner.add_observer`) — the seam the shadow-rollout
subsystem (:mod:`repro.rollout`) attaches to for candidate-vs-production
validation on identical live traffic.

Thread-safety: one flusher at a time. ``on_event`` / ``tick`` / ``flush``
mutate the intake queue without locking and must not race each other;
concurrency lives *below* the scanner (the service's
:class:`~repro.serve.cache.FeatureCache` locks internally, and a
:meth:`rollout` swap is atomic against an in-flight micro-batch).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.evm.errors import DisassemblyError
from repro.serve.cache import Code
from repro.serve.service import ScanService
from repro.stream.events import TOPIC_CONTRACTS, ContractEvent, shed

__all__ = ["StreamAlert", "StreamStats", "StreamScanner"]

#: Intake backpressure policies.
SCANNER_POLICIES = ("block", "drop_oldest", "drop_newest", "sample")

#: Latency samples retained for percentile accounting. The buffer compacts
#: to this many once it doubles, so a scanner tailing the chain head for
#: months holds O(window) memory; percentiles cover the retained tail.
LATENCY_WINDOW = 65536


@dataclass(frozen=True)
class StreamAlert:
    """One flagged deployment, as delivered to sinks.

    ``shard`` is the index of the fleet worker that scored the alert,
    and 0 for an in-process scanner.
    """

    address: str
    probability: float
    block_number: int
    timestamp: int
    latency_seconds: float
    shard: int
    batch_id: int
    from_cache: bool


@dataclass
class StreamStats:
    """Aggregate pipeline accounting for one scanner."""

    events_in: int = 0
    deduped: int = 0
    skipped_empty: int = 0
    skipped_malformed: int = 0
    dropped: int = 0
    scanned: int = 0
    flagged: int = 0
    batches: int = 0
    observer_errors: int = 0
    total_latency_seconds: float = 0.0
    _latencies: list = field(default_factory=list, repr=False)

    @property
    def mean_latency_seconds(self) -> float:
        return self.total_latency_seconds / self.scanned if self.scanned else 0.0

    def record_latency(self, latency: float) -> None:
        """Retain a latency sample, compacting past the bounded window."""
        self._latencies.append(latency)
        if len(self._latencies) > 2 * LATENCY_WINDOW:
            del self._latencies[:-LATENCY_WINDOW]

    def recent_latencies(self, count: int) -> list[float]:
        """The newest ``count`` retained samples (fewer after compaction)."""
        return self._latencies[-count:] if count > 0 else []

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of per-event enqueue→scored latency (seconds),
        over the retained sample window."""
        if not self._latencies:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = np.percentile(self._latencies, [50, 95, 99])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}

    def as_dict(self) -> dict:
        return {
            "events_in": self.events_in,
            "deduped": self.deduped,
            "skipped_empty": self.skipped_empty,
            "skipped_malformed": self.skipped_malformed,
            "dropped": self.dropped,
            "scanned": self.scanned,
            "flagged": self.flagged,
            "batches": self.batches,
            "observer_errors": self.observer_errors,
            "mean_latency_seconds": self.mean_latency_seconds,
            "latency_seconds": self.latency_percentiles(),
        }


class StreamScanner:
    """Consume :class:`ContractEvent` streams into scored micro-batches.

    Args:
        service: A :class:`ScanService` (fitted or lazily fitted, and
            fitted here); every micro-batch is one ``scan_bytecodes``
            call on it, so predictions are bit-identical to a direct
            ``scan_bytecodes`` call.
        max_batch: Micro-batch flush threshold (events per flush).
        max_queue: Intake bound; must be ≥ ``max_batch`` when
            ``auto_flush`` is on (so a batch can form before overflow).
        policy: Backpressure policy (see module docstring).
        auto_flush: Flush a micro-batch inline whenever ``max_batch``
            events are queued (producer-paced; the default). Turn off to
            model an independent consumer: events then accumulate until
            :meth:`tick` / :meth:`flush_batch` / :meth:`flush` runs, and
            the bounded queue + ``policy`` govern overflow in between.
        flush_deadline_seconds: Age of the oldest queued event that forces
            a flush in :meth:`tick` — bounds worst-case alert latency when
            traffic is too thin to fill batches.
        threshold: Alert cut-off; defaults to the service threshold.
        sinks: Initial :class:`~repro.stream.sinks.AlertSink` list.
        dedup_addresses: Drop redeliveries of an address already consumed
            (at-least-once producers are the norm; scanning is idempotent
            but alerting should not double-fire).
        seed: Seed for the ``sample`` policy.
    """

    def __init__(
        self,
        service: ScanService,
        *,
        max_batch: int = 32,
        max_queue: int = 256,
        policy: str = "block",
        auto_flush: bool = True,
        flush_deadline_seconds: float | None = None,
        threshold: float | None = None,
        sinks=(),
        dedup_addresses: bool = True,
        seed: int = 0,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if auto_flush and max_queue < max_batch:
            raise ValueError(
                "max_queue must be >= max_batch under auto_flush "
                "(a batch must be able to form before the queue overflows)"
            )
        if policy not in SCANNER_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; supported: {SCANNER_POLICIES}"
            )
        self.service = service.ensure_fitted()
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.policy = policy
        self.auto_flush = auto_flush
        self.flush_deadline_seconds = flush_deadline_seconds
        self.threshold = service.threshold if threshold is None else threshold
        self.sinks = list(sinks)
        self.observers: list = []
        self.dedup_addresses = dedup_addresses
        self.stats = StreamStats()
        self.alerts: list[StreamAlert] = []
        self.rollouts = 0
        # Admitted events, each with the Code its bytecode became.
        self._queue: deque[tuple[ContractEvent, Code]] = deque()
        self._seen: set[str] = set()
        self._rng = np.random.default_rng(seed)
        self._batch_id = 0

    @classmethod
    def from_artifact(
        cls,
        source,
        *,
        store=None,
        rpc=None,
        cache=None,
        threshold: float = 0.5,
        expected_fingerprint: str | None = None,
        # Accepted and ignored: scanbench/workloads.py still passes it.
        shards=None,
        **scanner_kwargs,
    ) -> "StreamScanner":
        """Cold-start a whole stream pipeline from one artifact.

        One :meth:`ScanService.from_artifact` load serves the scanner,
        so spinning it up costs a single artifact read — no training
        anywhere.
        ``source``/``store``/``expected_fingerprint`` as in
        :meth:`ScanService.from_artifact`; remaining keyword arguments go
        to the scanner constructor.
        """
        service = ScanService.from_artifact(
            source,
            store=store,
            rpc=rpc,
            cache=cache,
            threshold=threshold,
            expected_fingerprint=expected_fingerprint,
        )
        return cls(service, **scanner_kwargs)

    def rollout(
        self,
        source=None,
        *,
        model=None,
        store=None,
        namespace: str | None = None,
        model_name: str | None = None,
        expected_fingerprint: str | None = None,
        artifact_digest: str | None = None,
    ) -> "StreamScanner":
        """Live-roll a new model version onto the scanner's service.

        Pass an artifact ``source`` (+ ``store``, as in
        :meth:`from_artifact`) or a fitted ``model`` — ``artifact_digest``
        then records which version it is, e.g. a shadow rollout promoting
        a candidate it already loaded. The swap is one
        :meth:`ScanService.swap_from_artifact` or
        :meth:`ScanService.swap_model` call: a micro-batch in flight
        finishes on the version it snapshotted, nothing is dropped, and
        the outgoing prediction namespace is invalidated once.
        """
        if (source is None) == (model is None):
            raise ValueError("rollout needs an artifact source or a model")
        if source is not None:
            self.service.swap_from_artifact(
                source, store=store, expected_fingerprint=expected_fingerprint
            )
        else:
            self.service.swap_model(
                model, namespace=namespace, model_name=model_name,
                artifact_digest=artifact_digest,
            )
        self.rollouts += 1
        return self

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def add_observer(self, observer) -> None:
        """Register a scored-batch observer.

        After each micro-batch is scored (and its alerts emitted), every
        observer's ``observe(shard=0, events=, results=,
        elapsed_seconds=)`` runs once, synchronously, with the exact
        events and :class:`~repro.serve.service.ScanResult` rows the
        production model produced — the hook
        :class:`repro.rollout.ShadowRollout` uses to score a candidate on
        identical live traffic. Observers may swap the serving model from
        inside the callback (promotion): the micro-batch that triggered
        it is already fully scored and delivered, and the next one scores
        on the new version — exactly the per-batch-atomic semantics of
        :meth:`rollout`. Observers get the same failure isolation as
        sinks: an exception from ``observe`` is swallowed and counted
        (``stats.observer_errors``) — production detection never dies
        for a broken observer.
        """
        self.observers.append(observer)

    def remove_observer(self, observer) -> bool:
        """Detach an observer; returns whether it was registered."""
        try:
            self.observers.remove(observer)
            return True
        except ValueError:
            return False

    def attach(self, bus):
        """Subscribe this scanner to a bus's contract topic."""
        return bus.subscribe(TOPIC_CONTRACTS, handler=self.on_event)

    def on_event(self, event: ContractEvent) -> bool:
        """Admit one deployment event; returns False when shed/skipped.

        An admitted event's code becomes a :class:`~repro.serve.cache.Code`
        here, normalized and hashed once, and is queued beside the event
        for its micro-batch. A code that does not normalize (malformed
        hex) is skipped and counted (``stats.skipped_malformed``) before
        it can enter, and fail, a micro-batch of valid events.

        A *shed* event is not marked seen — an at-least-once producer can
        redeliver it and have it scanned; only consumed (queued, empty- or
        malformed-skipped) addresses dedup.
        """
        self.stats.events_in += 1
        if self.dedup_addresses and event.address in self._seen:
            self.stats.deduped += 1
            return False
        if not event.code:
            if self.dedup_addresses:
                self._seen.add(event.address)
            self.stats.skipped_empty += 1
            return False
        try:
            code = Code(event.code)
        except DisassemblyError:
            if self.dedup_addresses:
                self._seen.add(event.address)
            self.stats.skipped_malformed += 1
            return False
        if len(self._queue) >= self.max_queue and self.policy == "block":
            self.flush_batch()
        admit, evicted = shed(
            self._queue, self.max_queue, self.policy, self._rng
        )
        self.stats.dropped += int(not admit) + int(evicted is not None)
        if not admit:
            return False
        if evicted is not None and self.dedup_addresses:
            self._seen.discard(evicted[0].address)
        if self.dedup_addresses:
            self._seen.add(event.address)
        self._queue.append((event, code))
        if self.auto_flush and len(self._queue) >= self.max_batch:
            self.flush_batch()
        return True

    @property
    def pending(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def tick(self, now: float | None = None) -> list[StreamAlert]:
        """Deadline check: flush if the oldest queued event is overdue."""
        if not self._queue or self.flush_deadline_seconds is None:
            return []
        now = time.perf_counter() if now is None else now
        if now - self._queue[0][0].enqueued_at >= self.flush_deadline_seconds:
            return self.flush_batch()
        return []

    def flush_batch(self) -> list[StreamAlert]:
        """Score one micro-batch (up to ``max_batch`` queued events)."""
        if not self._queue:
            return []
        count = min(self.max_batch, len(self._queue))
        batch = [self._queue.popleft() for _ in range(count)]
        return self._score(batch)

    def flush(self) -> list[StreamAlert]:
        """Drain the whole queue, one micro-batch at a time."""
        alerts: list[StreamAlert] = []
        while self._queue:
            alerts.extend(self.flush_batch())
        return alerts

    def _score(
        self, batch: list[tuple[ContractEvent, Code]]
    ) -> list[StreamAlert]:
        batch_id = self._batch_id
        self._batch_id += 1
        self.stats.batches += 1
        events = [event for event, _code in batch]
        started = time.perf_counter()
        results = self.service.scan_bytecodes(
            [code for _event, code in batch],
            addresses=[event.address for event in events],
        )
        scored_at = time.perf_counter()

        alerts: list[StreamAlert] = []
        for event, result in zip(events, results):
            latency = max(scored_at - event.enqueued_at, 0.0)
            self.stats.scanned += 1
            self.stats.total_latency_seconds += latency
            self.stats.record_latency(latency)
            if result.probability < self.threshold:
                continue
            alert = StreamAlert(
                address=event.address,
                probability=result.probability,
                block_number=event.block_number,
                timestamp=event.timestamp,
                latency_seconds=latency,
                shard=0,
                batch_id=batch_id,
                from_cache=result.from_cache,
            )
            alerts.append(alert)
            self.alerts.append(alert)
            self.stats.flagged += 1
            for sink in self.sinks:
                sink.emit(alert)
        # Observers run after delivery so a promotion they trigger can
        # never affect the micro-batch that justified it — and, like
        # sinks, they are failure-isolated: a raising observer is
        # counted, the rest still run.
        for observer in list(self.observers):
            try:
                observer.observe(
                    # Always 0: scanbench/workloads.py's observer requires it.
                    shard=0,
                    events=events,
                    results=results,
                    elapsed_seconds=scored_at - started,
                )
            except Exception:
                self.stats.observer_errors += 1
        return alerts

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain pending events and close every sink."""
        self.flush()
        for sink in self.sinks:
            sink.close()

    def summary(self) -> dict:
        """JSON-ready pipeline + sink accounting."""
        return {
            **self.stats.as_dict(),
            "flat_compiled": getattr(self.service, "flat_compiled", 0),
            "rollouts": self.rollouts,
            "artifact_digest": getattr(self.service, "artifact_digest", None),
            "sinks": {sink.name: sink.stats.as_dict() for sink in self.sinks},
        }
