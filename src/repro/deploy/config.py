"""Declarative deployment configuration: one file, the whole topology.

The serving stack's knobs — shard counts, backpressure policies, cache
sizes, batch sizes and deadlines, sink fan-out, rollout thresholds,
store URLs — used to travel as CLI flags, each validated (if at all)
deep inside the component that consumed it. This module replaces that
with one *declarative* deployment description, the way a DDS QoS
profile declares buffering/reliability policy up front (PAPERS.md:
*Dependency Chain Analysis of ROS 2 DDS QoS Policies*): a TOML or JSON
file parsed into typed dataclasses, every knob checked against its
domain at parse time, and unknown keys rejected so a typo cannot
silently become a default.

Parsing is *total*: all problems in a file are collected and reported
together in one :class:`ConfigError` (field path + message per
problem), not one-at-a-time. A :class:`DeployConfig` that exists is
domain-valid by construction; *cross-knob* consistency is the rule
engine's job (:mod:`repro.deploy.rules`), which is what
``phishinghook check-config`` runs — statically, before anything
launches.

Sections (TOML table names match the dataclass fields)::

    [store]      # where model artifacts live        -> StoreConfig
    [model]      # which artifact production serves  -> ModelConfig
    [serve]      # scan-service knobs                -> ServeConfig
    [stream]     # scanner topology + backpressure   -> StreamConfig
    [[sinks]]    # alert fan-out (repeatable)        -> SinkConfig
    [source]     # traffic source (replay campaign)  -> SourceConfig
    [rollout]    # optional shadow-rollout plan      -> RolloutConfig
    [fleet]      # optional multi-process fleet      -> FleetConfig
    [fault_tolerance]  # optional self-healing knobs -> FaultToleranceConfig
    [loop]       # optional continuous-learning loop -> LoopConfig
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass

__all__ = [
    "ConfigError",
    "ConfigProblem",
    "StoreConfig",
    "ModelConfig",
    "ServeConfig",
    "StreamConfig",
    "SinkConfig",
    "SourceConfig",
    "RolloutConfig",
    "FleetConfig",
    "FaultToleranceConfig",
    "LoopConfig",
    "DeployConfig",
    "load_config",
    "parse_config",
]

#: Backpressure policies the scanner accepts (mirrors
#: ``repro.stream.scanner.SCANNER_POLICIES`` without importing the
#: streaming stack — config parsing must stay import-light and
#: side-effect free).
STREAM_POLICIES = ("block", "drop_oldest", "drop_newest", "sample")

#: Alert sink kinds the launcher can construct.
SINK_KINDS = ("memory", "jsonl", "webhook")

#: Traffic sources. ``replay`` drives a recorded synthetic campaign
#: through the scanner (deterministic, benchmarkable); ``live`` attaches
#: to a chain head via the event bus.
SOURCE_MODES = ("replay", "live")

#: Rollout decision policies (mirrors the CLI / ``repro.rollout``).
#: ``adaptive`` is the learning-loop gate: loss-averse, tolerant of new
#: flags the retrained candidate raises on drifted traffic.
ROLLOUT_POLICIES = ("parity", "manual", "adaptive")

#: Store URL schemes (mirrors ``repro.artifacts.backends``).
STORE_SCHEMES = ("file", "memory", "bucket", "http", "https")

#: Fleet admission-control overflow policies (mirrors
#: ``repro.net.coordinator``): shed (HTTP 429) or block the submitter.
FLEET_OVERFLOW = ("shed", "block")

#: Retrain execution modes for the continuous-learning loop (mirrors
#: ``repro.loop.retrain.RETRAIN_MODES`` without importing the ML stack).
LOOP_RETRAIN_MODES = ("subprocess", "inline")

#: HSC variants whose fitted state can be *grown* with ``fit_more``
#: (mirrors the ensembles of ``repro.models.hsc.HSC_VARIANTS``; k-NN is
#: instance-based and has nothing to warm-start).
WARM_START_FAMILIES = ("Random Forest", "XGBoost", "LightGBM", "CatBoost")


@dataclass(frozen=True)
class ConfigProblem:
    """One domain violation found while parsing a config file."""

    path: str  # dotted field path, e.g. "stream.shards"
    message: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.path}: {self.message}"


class ConfigError(ValueError):
    """A config file failed to parse or failed domain validation.

    ``problems`` holds every :class:`ConfigProblem` found — parsing is
    total, so one bad file produces one error listing everything wrong
    with it.
    """

    def __init__(self, source: str, problems: list[ConfigProblem]):
        self.source = source
        self.problems = list(problems)
        lines = "\n".join(f"  {p.path}: {p.message}" for p in self.problems)
        super().__init__(
            f"invalid deployment config {source}:\n{lines}"
        )

    def as_dict(self) -> dict:
        return {
            "config": self.source,
            "ok": False,
            "problems": [
                {"path": p.path, "message": p.message} for p in self.problems
            ],
        }


# --------------------------------------------------------------------- #
# Section dataclasses
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StoreConfig:
    """Where model artifacts live (``[store]``)."""

    url: str = "./phook-models"
    #: Local spool directory for object-store backends (``bucket://``);
    #: multi-shard monitors without one re-pull every cold start (D006).
    cache_dir: str = ""

    @property
    def scheme(self) -> str:
        """URL scheme; bare paths count as ``file``."""
        for scheme in STORE_SCHEMES:
            if self.url.startswith(f"{scheme}://"):
                return scheme
        return "file"


@dataclass(frozen=True)
class ModelConfig:
    """Which artifact the topology serves (``[model]``)."""

    tag: str = ""  # store tag / version / unique prefix
    path: str = ""  # artifact file (mutually exclusive with tag)
    expected_fingerprint: str = ""

    @property
    def source(self) -> str:
        return self.path or self.tag


@dataclass(frozen=True)
class ServeConfig:
    """Scan-service knobs (``[serve]``)."""

    threshold: float = 0.5
    cache_entries: int = 8192


@dataclass(frozen=True)
class StreamConfig:
    """Scanner topology and backpressure (``[stream]``)."""

    shards: int = 2
    batch_size: int = 16
    queue: int = 256
    policy: str = "block"
    #: Oldest-event age that forces a flush; 0 disables deadline
    #: flushing entirely (only safe under producer-paced ``block``).
    deadline_seconds: float = 0.25
    dedup_addresses: bool = True


@dataclass(frozen=True)
class SinkConfig:
    """One alert delivery channel (``[[sinks]]``)."""

    kind: str = "memory"
    path: str = ""  # jsonl
    url: str = ""  # webhook
    #: Webhook POST timeout in seconds (webhook sinks only).
    timeout: float = 2.0


@dataclass(frozen=True)
class SourceConfig:
    """Traffic source (``[source]``)."""

    mode: str = "replay"
    contracts: int = 200
    seed: int = 0
    #: Replay pacing in events/sec; 0 replays at maximum speed.
    rate: float = 0.0


@dataclass(frozen=True)
class RolloutConfig:
    """Shadow-rollout plan (``[rollout]``, optional)."""

    candidate: str = "candidate"
    production: str = "production"
    policy: str = "parity"
    min_events: int = 100
    promote_agreement: float = 0.98
    abort_agreement: float = 0.90
    max_divergence: float = 0.05
    #: Highest tolerated fraction of shadow events where only production
    #: flagged (``adaptive`` policy only): alerts the candidate drops.
    max_lost_rate: float = 0.02


@dataclass(frozen=True)
class FleetConfig:
    """Multi-process serving fleet (``[fleet]``, optional).

    Present means the topology launches as worker *processes* behind a
    coordinator (:mod:`repro.net`) instead of one in-process scanner.
    """

    workers: int = 2
    #: Max in-flight batches per worker before admission control acts.
    queue_depth: int = 4
    #: Overflow policy: ``shed`` (HTTP 429) or ``block`` the submitter.
    overflow: str = "shed"
    #: Decode each unique bytecode once per host into the shared
    #: feature table that every worker reads zero-copy, so repeat
    #: deployments are never re-shipped or re-decoded; off ships
    #: bytecode inline and workers decode it themselves.
    ship_features: bool = True
    #: Map worker model artifacts with ``mmap_mode="r"`` (zero-copy cold
    #: starts; node arrays page in on demand and are shared between
    #: workers by the OS cache).
    mmap: bool = False
    host: str = "127.0.0.1"
    #: Coordinator port; 0 binds an ephemeral port.
    port: int = 0
    #: Per-batch worker HTTP timeout (seconds): the bound on how long a
    #: hung worker can stall a dispatch before it is declared dead.
    request_timeout: float = 10.0


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Self-healing knobs (``[fault_tolerance]``, optional).

    Present means the fleet launches with worker supervision, retrying
    clients, and (when ``dead_letter_path`` is set) dead-letter spooling
    on webhook sinks. Absent keeps the PR-7 behaviour: dead workers are
    routed around but never replaced.
    """

    #: Auto-respawn crashed workers (heartbeat + exponential backoff).
    respawn: bool = True
    #: Consecutive failed respawns before a worker is quarantined.
    max_respawns: int = 3
    #: Supervisor heartbeat interval (seconds).
    heartbeat_seconds: float = 0.5
    #: First-respawn backoff; doubles per consecutive failure.
    backoff_seconds: float = 0.2
    backoff_max_seconds: float = 5.0
    #: Retry attempts for store/webhook HTTP calls (1 = no retry).
    retry_attempts: int = 3
    #: Circuit breaker: consecutive failures that open it, and how long
    #: it stays open before one half-open probe.
    breaker_failures: int = 5
    breaker_reset_seconds: float = 30.0
    #: JSONL dead-letter spool for alerts the webhook cannot deliver;
    #: empty disables spooling (failed deliveries are only counted).
    dead_letter_path: str = ""


@dataclass(frozen=True)
class LoopConfig:
    """Continuous-learning loop (``[loop]``, optional).

    Present means the topology runs a :class:`repro.loop.LoopOrchestrator`
    over the scanner: drift on the live score distribution triggers an
    incremental warm-start retrain, the candidate shadows production, and
    the ``[rollout]`` policy promotes or aborts — every decision appended
    to the store's ``loop-history.jsonl``.
    """

    #: Scores per drift window (reference and live both hold this many).
    window: int = 256
    #: Labeled-event cadence between drift checks.
    check_every: int = 64
    #: Paired blocks per window (the Wilcoxon sample size).
    blocks: int = 8
    #: Significance level on the Holm-adjusted p-value.
    alpha: float = 0.05
    #: Cliff's-delta magnitude floor; smaller shifts are noise.
    min_effect: float = 0.1
    #: Consecutive positive checks required to confirm drift.
    confirm_checks: int = 2
    #: Estimators grown per warm-start retrain.
    grow: int = 40
    #: Held-out fraction of the retrain window.
    holdout: float = 0.25
    #: Store tag the fresh candidate registers under.
    candidate: str = "candidate"
    #: Retrain execution: forked ``subprocess`` (serving never stalls)
    #: or ``inline`` (deterministic single-process tests).
    retrain: str = "subprocess"
    #: Declared production model family, checked against the
    #: warm-startable set (D028); empty skips the static check.
    model_family: str = ""


@dataclass(frozen=True)
class DeployConfig:
    """The full deployment topology, domain-valid by construction."""

    store: StoreConfig = StoreConfig()
    model: ModelConfig = ModelConfig()
    serve: ServeConfig = ServeConfig()
    stream: StreamConfig = StreamConfig()
    sinks: tuple[SinkConfig, ...] = ()
    source: SourceConfig = SourceConfig()
    rollout: RolloutConfig | None = None
    fleet: FleetConfig | None = None
    fault_tolerance: FaultToleranceConfig | None = None
    loop: LoopConfig | None = None
    #: Where this config came from (file path or ``"<dict>"``).
    origin: str = "<dict>"

    def as_dict(self) -> dict:
        """JSON-ready view of the parsed topology."""
        data = {
            "store": dataclasses.asdict(self.store),
            "model": dataclasses.asdict(self.model),
            "serve": dataclasses.asdict(self.serve),
            "stream": dataclasses.asdict(self.stream),
            "sinks": [
                # Only webhook sinks take a delivery timeout; dropping the
                # key elsewhere keeps as_dict() re-parseable under the same
                # strictness the parser applies to hand-written configs.
                {
                    k: v
                    for k, v in dataclasses.asdict(s).items()
                    if not (k == "timeout" and s.kind != "webhook")
                }
                for s in self.sinks
            ],
            "source": dataclasses.asdict(self.source),
            "rollout": (
                dataclasses.asdict(self.rollout) if self.rollout else None
            ),
            "fleet": (
                dataclasses.asdict(self.fleet) if self.fleet else None
            ),
            "fault_tolerance": (
                dataclasses.asdict(self.fault_tolerance)
                if self.fault_tolerance else None
            ),
            "loop": (
                dataclasses.asdict(self.loop) if self.loop else None
            ),
        }
        return data


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #


class _Section:
    """Typed field extraction over one raw mapping, collecting problems."""

    def __init__(self, name: str, raw: dict, problems: list[ConfigProblem]):
        self.name = name
        self.raw = dict(raw)
        self.problems = problems

    def _path(self, field: str) -> str:
        return f"{self.name}.{field}" if self.name else field

    def complain(self, field: str, message: str) -> None:
        self.problems.append(ConfigProblem(self._path(field), message))

    def finish(self) -> None:
        """Reject keys no field consumed (typos never become defaults)."""
        for key in sorted(self.raw):
            self.complain(str(key), "unknown key")

    # ---- typed getters ------------------------------------------------ #

    def _take(self, field: str, default):
        return self.raw.pop(field, default)

    def string(self, field: str, default: str, *, choices=None) -> str:
        value = self._take(field, default)
        if not isinstance(value, str):
            self.complain(field, f"expected a string, got {value!r}")
            return default
        if choices is not None and value not in choices:
            self.complain(
                field,
                f"{value!r} is not one of {', '.join(map(repr, choices))}",
            )
            return default
        return value

    def boolean(self, field: str, default: bool) -> bool:
        value = self._take(field, default)
        if not isinstance(value, bool):
            self.complain(field, f"expected true/false, got {value!r}")
            return default
        return value

    def integer(
        self, field: str, default: int, *, minimum: int | None = None
    ) -> int:
        value = self._take(field, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.complain(field, f"expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.complain(field, f"must be >= {minimum}, got {value}")
            return default
        return value

    def number(
        self,
        field: str,
        default: float,
        *,
        minimum: float | None = None,
        maximum: float | None = None,
        exclusive: bool = False,
    ) -> float:
        value = self._take(field, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.complain(field, f"expected a number, got {value!r}")
            return default
        value = float(value)
        if minimum is not None and (
            value <= minimum if exclusive else value < minimum
        ):
            bound = ">" if exclusive else ">="
            self.complain(field, f"must be {bound} {minimum}, got {value}")
            return default
        if maximum is not None and (
            value >= maximum if exclusive else value > maximum
        ):
            bound = "<" if exclusive else "<="
            self.complain(field, f"must be {bound} {maximum}, got {value}")
            return default
        return value


def _section(
    data: dict,
    name: str,
    problems: list[ConfigProblem],
) -> _Section | None:
    raw = data.pop(name, None)
    if raw is None:
        return _Section(name, {}, problems)
    if not isinstance(raw, dict):
        problems.append(
            ConfigProblem(name, f"expected a table/object, got {raw!r}")
        )
        return _Section(name, {}, problems)
    return _Section(name, raw, problems)


def _parse_store(section: _Section) -> StoreConfig:
    url = section.string("url", StoreConfig.url)
    if not url:
        section.complain("url", "must not be empty")
        url = StoreConfig.url
    else:
        scheme, _, _ = url.partition("://")
        if "://" in url and scheme not in STORE_SCHEMES:
            section.complain(
                "url",
                f"unknown scheme {scheme!r}; supported: "
                + ", ".join(f"{s}://" for s in STORE_SCHEMES),
            )
    cache_dir = section.string("cache_dir", "")
    section.finish()
    return StoreConfig(url=url, cache_dir=cache_dir)


def _parse_model(section: _Section) -> ModelConfig:
    tag = section.string("tag", "")
    path = section.string("path", "")
    fingerprint = section.string("expected_fingerprint", "")
    if tag and path:
        section.complain(
            "tag", "mutually exclusive with model.path — pick one source"
        )
    if not tag and not path:
        section.complain(
            "tag", "a deployment must name its model: set tag or path"
        )
    section.finish()
    return ModelConfig(tag=tag, path=path, expected_fingerprint=fingerprint)


def _parse_serve(section: _Section) -> ServeConfig:
    threshold = section.number(
        "threshold", ServeConfig.threshold,
        minimum=0.0, maximum=1.0, exclusive=True,
    )
    cache_entries = section.integer(
        "cache_entries", ServeConfig.cache_entries, minimum=1
    )
    section.finish()
    return ServeConfig(threshold=threshold, cache_entries=cache_entries)


def _parse_stream(section: _Section) -> StreamConfig:
    config = StreamConfig(
        shards=section.integer("shards", StreamConfig.shards, minimum=1),
        batch_size=section.integer(
            "batch_size", StreamConfig.batch_size, minimum=1
        ),
        queue=section.integer("queue", StreamConfig.queue, minimum=1),
        policy=section.string(
            "policy", StreamConfig.policy, choices=STREAM_POLICIES
        ),
        deadline_seconds=section.number(
            "deadline_seconds", StreamConfig.deadline_seconds, minimum=0.0
        ),
        dedup_addresses=section.boolean(
            "dedup_addresses", StreamConfig.dedup_addresses
        ),
    )
    section.finish()
    return config


def _parse_sinks(
    data: dict, problems: list[ConfigProblem]
) -> tuple[SinkConfig, ...]:
    raw = data.pop("sinks", [])
    if not isinstance(raw, list):
        problems.append(
            ConfigProblem("sinks", f"expected an array of tables, got {raw!r}")
        )
        return ()
    sinks = []
    for index, entry in enumerate(raw):
        name = f"sinks[{index}]"
        if not isinstance(entry, dict):
            problems.append(
                ConfigProblem(name, f"expected a table/object, got {entry!r}")
            )
            continue
        section = _Section(name, entry, problems)
        kind = section.string("kind", "", choices=SINK_KINDS)
        path = section.string("path", "")
        url = section.string("url", "")
        has_timeout = "timeout" in section.raw
        timeout = section.number(
            "timeout", SinkConfig.timeout, minimum=0.0, exclusive=True
        )
        if kind == "jsonl" and not path:
            section.complain("path", "jsonl sink needs a file path")
        if kind == "webhook" and not url:
            section.complain("url", "webhook sink needs a url")
        if kind == "memory" and (path or url):
            section.complain("kind", "memory sink takes no path/url")
        if kind == "jsonl" and url:
            section.complain("url", "jsonl sink takes no url")
        if kind == "webhook" and path:
            section.complain("path", "webhook sink takes no path")
        if has_timeout and kind != "webhook":
            section.complain(
                "timeout", "only webhook sinks take a delivery timeout"
            )
        section.finish()
        sinks.append(
            SinkConfig(kind=kind, path=path, url=url, timeout=timeout)
        )
    return tuple(sinks)


def _parse_source(section: _Section) -> SourceConfig:
    config = SourceConfig(
        mode=section.string("mode", SourceConfig.mode, choices=SOURCE_MODES),
        contracts=section.integer(
            "contracts", SourceConfig.contracts, minimum=2
        ),
        seed=section.integer("seed", SourceConfig.seed, minimum=0),
        rate=section.number("rate", SourceConfig.rate, minimum=0.0),
    )
    section.finish()
    return config


def _parse_rollout(
    data: dict, problems: list[ConfigProblem]
) -> RolloutConfig | None:
    raw = data.pop("rollout", None)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        problems.append(
            ConfigProblem("rollout", f"expected a table/object, got {raw!r}")
        )
        return None
    section = _Section("rollout", raw, problems)
    candidate = section.string("candidate", RolloutConfig.candidate)
    production = section.string("production", RolloutConfig.production)
    if not candidate:
        section.complain("candidate", "must not be empty")
        candidate = RolloutConfig.candidate
    if not production:
        section.complain("production", "must not be empty")
        production = RolloutConfig.production
    config = RolloutConfig(
        candidate=candidate,
        production=production,
        policy=section.string(
            "policy", RolloutConfig.policy, choices=ROLLOUT_POLICIES
        ),
        min_events=section.integer(
            "min_events", RolloutConfig.min_events, minimum=1
        ),
        promote_agreement=section.number(
            "promote_agreement", RolloutConfig.promote_agreement,
            minimum=0.0, maximum=1.0, exclusive=True,
        ),
        abort_agreement=section.number(
            "abort_agreement", RolloutConfig.abort_agreement,
            minimum=0.0, maximum=1.0, exclusive=True,
        ),
        max_divergence=section.number(
            "max_divergence", RolloutConfig.max_divergence,
            minimum=0.0, maximum=1.0, exclusive=True,
        ),
        max_lost_rate=section.number(
            "max_lost_rate", RolloutConfig.max_lost_rate,
            minimum=0.0, maximum=1.0,
        ),
    )
    section.finish()
    return config


def _parse_fleet(
    data: dict, problems: list[ConfigProblem]
) -> FleetConfig | None:
    raw = data.pop("fleet", None)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        problems.append(
            ConfigProblem("fleet", f"expected a table/object, got {raw!r}")
        )
        return None
    section = _Section("fleet", raw, problems)
    host = section.string("host", FleetConfig.host)
    if not host:
        section.complain("host", "must not be empty")
        host = FleetConfig.host
    port = section.integer("port", FleetConfig.port, minimum=0)
    if port > 65535:
        section.complain("port", f"must be <= 65535, got {port}")
        port = FleetConfig.port
    config = FleetConfig(
        workers=section.integer("workers", FleetConfig.workers, minimum=1),
        queue_depth=section.integer(
            "queue_depth", FleetConfig.queue_depth, minimum=1
        ),
        overflow=section.string(
            "overflow", FleetConfig.overflow, choices=FLEET_OVERFLOW
        ),
        ship_features=section.boolean(
            "ship_features", FleetConfig.ship_features
        ),
        mmap=section.boolean("mmap", FleetConfig.mmap),
        host=host,
        port=port,
        request_timeout=section.number(
            "request_timeout", FleetConfig.request_timeout,
            minimum=0.0, exclusive=True,
        ),
    )
    section.finish()
    return config


def _parse_fault_tolerance(
    data: dict, problems: list[ConfigProblem]
) -> FaultToleranceConfig | None:
    raw = data.pop("fault_tolerance", None)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        problems.append(
            ConfigProblem(
                "fault_tolerance", f"expected a table/object, got {raw!r}"
            )
        )
        return None
    section = _Section("fault_tolerance", raw, problems)
    config = FaultToleranceConfig(
        respawn=section.boolean("respawn", FaultToleranceConfig.respawn),
        max_respawns=section.integer(
            "max_respawns", FaultToleranceConfig.max_respawns, minimum=1
        ),
        heartbeat_seconds=section.number(
            "heartbeat_seconds", FaultToleranceConfig.heartbeat_seconds,
            minimum=0.0, exclusive=True,
        ),
        backoff_seconds=section.number(
            "backoff_seconds", FaultToleranceConfig.backoff_seconds,
            minimum=0.0,
        ),
        backoff_max_seconds=section.number(
            "backoff_max_seconds",
            FaultToleranceConfig.backoff_max_seconds,
            minimum=0.0,
        ),
        retry_attempts=section.integer(
            "retry_attempts", FaultToleranceConfig.retry_attempts,
            minimum=1,
        ),
        breaker_failures=section.integer(
            "breaker_failures", FaultToleranceConfig.breaker_failures,
            minimum=1,
        ),
        breaker_reset_seconds=section.number(
            "breaker_reset_seconds",
            FaultToleranceConfig.breaker_reset_seconds,
            minimum=0.0, exclusive=True,
        ),
        dead_letter_path=section.string("dead_letter_path", ""),
    )
    section.finish()
    return config


def _parse_loop(
    data: dict, problems: list[ConfigProblem]
) -> LoopConfig | None:
    raw = data.pop("loop", None)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        problems.append(
            ConfigProblem("loop", f"expected a table/object, got {raw!r}")
        )
        return None
    section = _Section("loop", raw, problems)
    candidate = section.string("candidate", LoopConfig.candidate)
    if not candidate:
        section.complain("candidate", "must not be empty")
        candidate = LoopConfig.candidate
    window = section.integer("window", LoopConfig.window, minimum=4)
    blocks = section.integer("blocks", LoopConfig.blocks, minimum=2)
    # Window/blocks consistency is same-section, so the parser owns it
    # (like model.tag vs model.path): the monitor rejects these shapes
    # at construction, deep inside launch.
    if window < 2 * blocks:
        section.complain(
            "window", f"must be >= 2 x loop.blocks ({2 * blocks}), "
                      f"got {window}"
        )
    elif window % blocks:
        section.complain(
            "window",
            f"must be divisible by loop.blocks={blocks}, got {window}",
        )
    config = LoopConfig(
        window=window,
        check_every=section.integer(
            "check_every", LoopConfig.check_every, minimum=1
        ),
        blocks=blocks,
        alpha=section.number(
            "alpha", LoopConfig.alpha,
            minimum=0.0, maximum=1.0, exclusive=True,
        ),
        min_effect=section.number(
            "min_effect", LoopConfig.min_effect, minimum=0.0, maximum=1.0
        ),
        confirm_checks=section.integer(
            "confirm_checks", LoopConfig.confirm_checks, minimum=1
        ),
        grow=section.integer("grow", LoopConfig.grow, minimum=1),
        holdout=section.number(
            "holdout", LoopConfig.holdout,
            minimum=0.0, maximum=1.0, exclusive=True,
        ),
        candidate=candidate,
        retrain=section.string(
            "retrain", LoopConfig.retrain, choices=LOOP_RETRAIN_MODES
        ),
        model_family=section.string("model_family", ""),
    )
    section.finish()
    return config


def parse_config(data: dict, *, origin: str = "<dict>") -> DeployConfig:
    """Validate a raw mapping into a :class:`DeployConfig`.

    Raises :class:`ConfigError` listing *every* domain problem found.
    """
    if not isinstance(data, dict):
        raise ConfigError(
            origin,
            [ConfigProblem("", f"expected a table/object, got {data!r}")],
        )
    data = dict(data)
    problems: list[ConfigProblem] = []

    store = _parse_store(_section(data, "store", problems))
    model = _parse_model(_section(data, "model", problems))
    serve = _parse_serve(_section(data, "serve", problems))
    stream = _parse_stream(_section(data, "stream", problems))
    sinks = _parse_sinks(data, problems)
    source = _parse_source(_section(data, "source", problems))
    rollout = _parse_rollout(data, problems)
    fleet = _parse_fleet(data, problems)
    fault_tolerance = _parse_fault_tolerance(data, problems)
    loop = _parse_loop(data, problems)

    for key in sorted(data):
        problems.append(ConfigProblem(str(key), "unknown section"))
    if problems:
        raise ConfigError(origin, problems)
    return DeployConfig(
        store=store,
        model=model,
        serve=serve,
        stream=stream,
        sinks=sinks,
        source=source,
        rollout=rollout,
        fleet=fleet,
        fault_tolerance=fault_tolerance,
        loop=loop,
        origin=origin,
    )


def load_config(path) -> DeployConfig:
    """Load and validate a deployment config file (TOML or JSON).

    The format follows the file suffix: ``.toml`` parses with the
    stdlib ``tomllib``, ``.json`` with ``json``. Syntax errors, unknown
    suffixes and unreadable files all surface as :class:`ConfigError`
    (so ``check-config`` has exactly one failure type to render).
    """
    path = pathlib.Path(path)
    origin = str(path)
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise ConfigError(
            origin,
            [ConfigProblem(
                "", f"unsupported config format {suffix or '<none>'!r} "
                    "(expected .toml or .json)",
            )],
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigError(
            origin, [ConfigProblem("", f"unreadable: {error}")]
        ) from error
    if suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(
                origin, [ConfigProblem("", f"TOML syntax: {error}")]
            ) from error
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(
                origin, [ConfigProblem("", f"JSON syntax: {error}")]
            ) from error
    return parse_config(data, origin=origin)
