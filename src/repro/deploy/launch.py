"""Config-driven topology construction — the *execute* half of deploy.

:func:`check_config` is the static analyser; this module is the only
place a validated :class:`~repro.deploy.config.DeployConfig` turns into
live objects (stores, scan services, stream scanners, sinks, corpora).
The contract is the QoS-Guard one: **verification precedes launch**.
:func:`ensure_launchable` runs the full rule catalog and raises
:class:`DeploymentBlockedError` on any ERROR-severity violation, so a
topology that would lose alerts or thrash its cache is refused before a
single worker, file handle or model load exists.

Imports of the serving stack are deliberately local to the builder
functions: importing :mod:`repro.deploy` (as ``check-config`` does)
must never drag in — let alone construct — the runtime it is
analysing.
"""

from __future__ import annotations

from repro.deploy.config import DeployConfig
from repro.deploy.rules import CheckReport, check_config

__all__ = [
    "DeploymentBlockedError",
    "ensure_launchable",
    "open_store",
    "build_sinks",
    "build_service",
    "build_scanner",
    "build_fleet",
    "build_loop",
    "build_replay_corpus",
]


class DeploymentBlockedError(RuntimeError):
    """A config failed verification; nothing was launched.

    ``report`` carries the full :class:`CheckReport` so callers render
    the same violations ``check-config`` would have shown.
    """

    def __init__(self, report: CheckReport):
        self.report = report
        errors = ", ".join(v.rule_id for v in report.errors)
        super().__init__(
            f"deployment config {report.config.origin} fails verification "
            f"({errors}); run 'phishinghook check-config' for details"
        )


def ensure_launchable(config: DeployConfig) -> CheckReport:
    """Verify a config before launch; ERROR violations block it.

    Returns the report (so callers can still surface WARNs) or raises
    :class:`DeploymentBlockedError` when any ERROR-severity rule fires.
    """
    report = check_config(config)
    if not report.ok:
        raise DeploymentBlockedError(report)
    return report


# --------------------------------------------------------------------- #
# Builders (launch-time only; every serving import is local)
# --------------------------------------------------------------------- #


def open_store(config: DeployConfig):
    """The :class:`~repro.artifacts.store.ModelStore` the config names."""
    from repro.artifacts import ModelStore

    return ModelStore.from_url(
        config.store.url, cache_dir=config.store.cache_dir or None
    )


def build_sinks(config: DeployConfig) -> list:
    """Instantiate every ``[[sinks]]`` entry, in declaration order.

    With a ``[fault_tolerance]`` section, webhook sinks get a
    config-shaped :class:`~repro.net.retry.RetryPolicy`, and — when
    ``dead_letter_path`` is set — each webhook sink is wrapped in a
    :class:`~repro.stream.DeadLetterSink` spooling failed deliveries to
    disk for replay once the endpoint recovers. Local sinks are never
    wrapped: their failure domain *is* the disk the spool lives on.
    """
    from repro.stream import DeadLetterSink, JsonlSink, MemorySink, WebhookSink

    ft = config.fault_tolerance
    sinks = []
    webhooks = 0
    for sink in config.sinks:
        if sink.kind == "memory":
            sinks.append(MemorySink())
        elif sink.kind == "jsonl":
            sinks.append(JsonlSink(sink.path))
        elif sink.kind == "webhook":
            retry = None
            if ft is not None:
                from repro.net.retry import RetryPolicy

                retry = RetryPolicy(attempts=ft.retry_attempts)
            built = WebhookSink(sink.url, timeout=sink.timeout, retry=retry)
            if ft is not None and ft.dead_letter_path:
                from repro.net.retry import CircuitBreaker

                # One spool file per wrapped sink: replay's atomic
                # rewrite must own its file exclusively.
                path = ft.dead_letter_path
                if webhooks:
                    path = f"{path}.{webhooks}"
                built = DeadLetterSink(
                    built,
                    path,
                    breaker=CircuitBreaker(
                        failures=ft.breaker_failures,
                        reset_seconds=ft.breaker_reset_seconds,
                    ),
                )
            webhooks += 1
            sinks.append(built)
        else:  # pragma: no cover - parse_config rejects unknown kinds
            raise ValueError(f"unknown sink kind {sink.kind!r}")
    return sinks


def build_service(config: DeployConfig, *, store=None, source=None):
    """Cold-start the configured :class:`ScanService` from its artifact.

    ``source`` overrides the ``[model]`` section (the rollout launcher
    serves the production *tag* rather than the model section); when it
    names a store ref, ``store`` is opened from the config if not given.
    """
    from repro.serve.cache import FeatureCache
    from repro.serve.service import ScanService

    cache = FeatureCache(max_entries=config.serve.cache_entries)
    if source is None and config.model.path:
        return ScanService.from_artifact(
            config.model.path,
            cache=cache,
            threshold=config.serve.threshold,
            expected_fingerprint=config.model.expected_fingerprint or None,
        )
    if store is None:
        store = open_store(config)
    return ScanService.from_artifact(
        source if source is not None else config.model.tag,
        store=store,
        cache=cache,
        threshold=config.serve.threshold,
        expected_fingerprint=config.model.expected_fingerprint or None,
    )


def build_scanner(config: DeployConfig, service, *, sinks=None):
    """The configured :class:`StreamScanner` over a built service.

    Mirrors the monitor CLI's construction rules: a ``block`` policy is
    producer-paced (``auto_flush``), drop policies are consumer-paced so
    the bounded queue actually governs overflow, and the deadline flush
    bounds worst-case alert latency either way.
    """
    from repro.stream import StreamScanner

    stream = config.stream
    return StreamScanner(
        service,
        shards=stream.shards,
        max_batch=stream.batch_size,
        max_queue=stream.queue,
        policy=stream.policy,
        auto_flush=stream.policy == "block",
        flush_deadline_seconds=stream.deadline_seconds or None,
        threshold=config.serve.threshold,
        sinks=sinks if sinks is not None else build_sinks(config),
        dedup_addresses=stream.dedup_addresses,
        seed=config.source.seed,
    )


def build_fleet(config: DeployConfig, *, sinks=None):
    """The configured multi-process fleet (not yet started).

    Requires a ``[fleet]`` section; the caller (the ``fleet`` CLI)
    starts it (``manager.start()``) and owns the teardown. ``[stream]``
    knobs map onto the fleet's per-worker topology: ``stream.shards``
    becomes each worker's in-process shard count.
    """
    if config.fleet is None:
        raise ValueError(
            f"config {config.origin} has no [fleet] section; "
            "add one to launch a multi-process fleet"
        )
    from repro.net import FleetManager

    fleet = config.fleet
    ft = config.fault_tolerance
    supervision = {}
    if ft is not None:
        supervision = dict(
            supervise=ft.respawn,
            heartbeat_seconds=ft.heartbeat_seconds,
            max_respawns=ft.max_respawns,
            respawn_backoff_seconds=ft.backoff_seconds,
            respawn_backoff_max=ft.backoff_max_seconds,
        )
    return FleetManager(
        workers=fleet.workers,
        store_url="" if config.model.path else config.store.url,
        model_ref="" if config.model.path else config.model.tag,
        model_path=config.model.path,
        cache_dir=config.store.cache_dir,
        threshold=config.serve.threshold,
        worker_shards=config.stream.shards,
        cache_entries=config.serve.cache_entries,
        queue_depth=fleet.queue_depth,
        overflow=fleet.overflow,
        ship_features=fleet.ship_features,
        mmap=fleet.mmap,
        host=fleet.host,
        port=fleet.port,
        http_timeout=fleet.request_timeout,
        sinks=sinks if sinks is not None else build_sinks(config),
        **supervision,
    )


def build_loop(config: DeployConfig, scanner, store, *, label_of,
               on_invalidate=None):
    """The configured continuous-learning loop, attached to ``scanner``.

    Requires a ``[loop]`` section. The drift monitor comes from
    ``[loop]``; the promotion policy comes from ``[rollout]`` (its
    defaults when the section is absent) — the loop's auto-started
    shadow is an ordinary rollout and obeys the same thresholds an
    operator-started one would. ``label_of`` maps an address to its
    ground-truth label (0/1) or ``None`` for unlabeled traffic.
    """
    if config.loop is None:
        raise ValueError(
            f"config {config.origin} has no [loop] section; "
            "add one to run the continuous-learning loop"
        )
    from repro.deploy.config import RolloutConfig
    from repro.loop import DriftMonitor, LoopOrchestrator
    from repro.rollout.policy import (
        AdaptivePromotionPolicy,
        ManualHoldPolicy,
        MetricParityPolicy,
    )

    loop = config.loop
    rollout = config.rollout or RolloutConfig()
    if rollout.policy == "manual":
        policy = ManualHoldPolicy()
    elif rollout.policy == "adaptive":
        policy = AdaptivePromotionPolicy(
            min_events=rollout.min_events,
            max_lost_rate=rollout.max_lost_rate,
        )
    else:
        policy = MetricParityPolicy(
            min_events=rollout.min_events,
            promote_agreement=rollout.promote_agreement,
            abort_agreement=rollout.abort_agreement,
            max_mean_divergence=rollout.max_divergence,
        )
    monitor = DriftMonitor(
        window=loop.window,
        blocks=loop.blocks,
        alpha=loop.alpha,
        min_effect=loop.min_effect,
        confirm_checks=loop.confirm_checks,
    )
    return LoopOrchestrator(
        scanner,
        store,
        label_of=label_of,
        monitor=monitor,
        check_every=loop.check_every,
        grow=loop.grow,
        holdout=loop.holdout,
        policy=policy,
        retrain_mode=loop.retrain,
        store_url=config.store.url,
        cache_dir=config.store.cache_dir or None,
        candidate_tag=loop.candidate,
        production_tag=rollout.production,
        on_invalidate=on_invalidate,
    )


def build_replay_corpus(config: DeployConfig):
    """The synthetic campaign the ``[source]`` section describes."""
    if config.source.mode != "replay":
        raise ValueError(
            f"source.mode={config.source.mode!r} has no replay corpus; "
            "config-driven launch currently drives replay topologies "
            "(attach a live chain through repro.stream.EventBus instead)"
        )
    from repro.datagen.corpus import CorpusConfig, build_corpus

    return build_corpus(
        CorpusConfig(
            n_phishing=config.source.contracts // 2,
            n_benign=config.source.contracts // 2,
            seed=config.source.seed,
        )
    )
