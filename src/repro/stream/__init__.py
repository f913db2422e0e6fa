"""Event-driven streaming detection (the §VII live mode, production-shaped).

The campaign pipeline (:mod:`repro.core`) is batch-shaped: crawl, train,
evaluate. This subpackage is the *online* shape the ROADMAP's north star
asks for — detection keeping up with the chain head while wallet users
sign within seconds:

* :mod:`repro.stream.events` — :class:`EventBus` pub/sub over
  new-block / new-contract events, bridged from a
  :class:`~repro.chain.blockchain.Blockchain` in-process
  (``bus.attach(chain)``) or pulled through the JSON-RPC filter plane
  (``eth_subscribe`` + ``eth_getFilterChanges`` → ``bus.pump_rpc``), so
  the pipeline downstream is identical either way.
* :mod:`repro.stream.scanner` — :class:`StreamScanner`: bounded intake
  queue with explicit backpressure (block / drop_oldest / drop_newest /
  sample), micro-batches flushed on size or deadline, each scored in
  one call through the fit-once
  :class:`~repro.serve.service.ScanService` + shared
  :class:`~repro.serve.cache.FeatureCache` hot path.
* :mod:`repro.stream.sinks` — pluggable alert delivery (memory, JSONL,
  callback, webhook) with per-sink delivered/failed stats, plus
  :class:`~repro.stream.sinks.DeadLetterSink`: a circuit-breaking
  wrapper that spools undeliverable alerts to a JSONL dead-letter file
  and replays them when the channel recovers.
* :mod:`repro.stream.replay` — :class:`TimelineReplayer`: feed a
  historical campaign through the stream at a configurable rate and
  report events/sec plus p50/p95/p99 end-to-end latency.

Scored micro-batches additionally fan out to registered
*observers* (:meth:`StreamScanner.add_observer`) — the hook
:mod:`repro.rollout` uses to shadow-score a candidate model on identical
live traffic and hot-swap the serving model on promotion.

Entry points: ``phishinghook monitor`` (CLI, a replay through
:class:`TimelineReplayer`), a :class:`StreamScanner` attached to
``EventBus.attach(chain)`` for live follow mode, and
``benchmarks/bench_stream_latency.py``.
"""

from repro.stream.events import (
    TOPIC_BLOCKS,
    TOPIC_CONTRACTS,
    BlockEvent,
    ContractEvent,
    EventBus,
    Subscription,
)
from repro.stream.replay import ReplayReport, TimelineReplayer
from repro.stream.scanner import (
    StreamAlert,
    StreamScanner,
    StreamStats,
)
from repro.stream.sinks import (
    AlertSink,
    CallbackSink,
    DeadLetterSink,
    DeadLetterStats,
    JsonlSink,
    MemorySink,
    SinkStats,
    WebhookSink,
)

__all__ = [
    "TOPIC_BLOCKS",
    "TOPIC_CONTRACTS",
    "BlockEvent",
    "ContractEvent",
    "EventBus",
    "Subscription",
    "ReplayReport",
    "TimelineReplayer",
    "StreamAlert",
    "StreamScanner",
    "StreamStats",
    "AlertSink",
    "CallbackSink",
    "DeadLetterSink",
    "DeadLetterStats",
    "JsonlSink",
    "MemorySink",
    "SinkStats",
    "WebhookSink",
]
