"""Declarative deployment configuration: one file, the whole topology.

The serving stack's knobs — batch sizes, backpressure policies, cache
sizes, deadlines, sink fan-out, rollout thresholds, store URLs — used
to travel as CLI flags, each validated (if at all) deep inside the
component that consumed it. This module replaces that with one
*declarative* deployment description, the way a DDS QoS profile
declares buffering/reliability policy up front (PAPERS.md:
*Dependency Chain Analysis of ROS 2 DDS QoS Policies*): a TOML or JSON
file parsed into typed dataclasses, every knob checked against its
domain at parse time, and unknown keys rejected so a typo cannot
silently become a default.

Each knob declares its type, default, domain and reference text once,
on its dataclass field (:func:`_knob`). One walker parses every section
from those declarations, and the knob tables in
``docs/configuration.md`` are checked against them, so a domain lives
in exactly one place.

Parsing is *total*: all problems in a file are collected and reported
together in one :class:`ConfigError` (field path + message per
problem), not one-at-a-time: section by section, each knob's problem
in field order, then the section's cross-knob problems, then its
unknown keys. A bad knob falls back to its default so later checks
still run. A :class:`DeployConfig` that exists is
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

import dataclasses
import json
import math
import pathlib
import typing
from collections.abc import Iterable, Iterator
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

#: Traffic sources the launcher can drive. ``replay`` drives a recorded
#: synthetic campaign through the scanner (deterministic, benchmarkable);
#: a live chain attaches through ``repro.stream.EventBus`` in code.
SOURCE_MODES = ("replay",)

#: Rollout decision policies (mirrors the CLI / ``repro.rollout``).
#: ``adaptive`` is the learning-loop gate: loss-averse, tolerant of new
#: flags the retrained candidate raises on drifted traffic.
ROLLOUT_POLICIES = ("parity", "manual", "adaptive")

#: Store URL schemes (mirrors ``repro.artifacts.backends``).
STORE_SCHEMES = ("file", "memory", "bucket", "http", "https")

#: Fleet admission-control overflow policies (mirrors
#: ``repro.net.coordinator``): shed (HTTP 429) or block the submitter.
FLEET_OVERFLOW = ("shed", "block")

#: HSC variants whose fitted state can be *grown* with ``fit_more``
#: (mirrors the ensembles of ``repro.models.hsc.HSC_VARIANTS``; k-NN is
#: instance-based and has nothing to warm-start).
WARM_START_FAMILIES = ("Random Forest", "XGBoost", "LightGBM", "CatBoost")


@dataclass(frozen=True)
class ConfigProblem:
    """One domain violation found while parsing a config file."""

    path: str  # dotted field path, e.g. "stream.batch_size"
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


def _knob(
    default,
    doc: str = "",
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    exclusive: bool = False,
    choices: tuple[str, ...] = (),
    nonempty: bool = False,
):
    """Declare one knob: default, domain and reference-table text.

    The knob's type is its field annotation. ``exclusive`` makes both
    bounds strict; ``doc`` is the prose that follows the generated
    domain in the ``docs/configuration.md`` table.
    """
    return dataclasses.field(default=default, metadata={
        "doc": doc,
        "minimum": minimum,
        "maximum": maximum,
        "exclusive": exclusive,
        "choices": choices,
        "nonempty": nonempty,
    })


class _Table:
    """What every section dataclass shares: its cross-knob hook and view."""

    def _check(self, given: Iterable[str]) -> Iterator[tuple[str, str]]:
        """Same-section cross-knob problems, as ``(knob, message)``.

        Runs on the parsed section, bad knobs already back at their
        defaults; ``given`` holds the keys the file set.
        """
        return iter(())

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class StoreConfig(_Table):
    """Where model artifacts live (``[store]``)."""

    url: str = _knob(
        "./phook-models",
        "bare path, or "
        + ", ".join(f"`{scheme}://`" for scheme in STORE_SCHEMES) + " URL",
        nonempty=True,
    )
    #: Local spool directory for object-store backends (``bucket://``);
    #: fleet workers without one each re-pull the artifact (D006).
    cache_dir: str = _knob(
        "", "host-local directory for artifact spooling (remote backends)"
    )

    @property
    def scheme(self) -> str:
        """URL scheme; bare paths count as ``file``."""
        for scheme in STORE_SCHEMES:
            if self.url.startswith(f"{scheme}://"):
                return scheme
        return "file"

    def _check(self, given):
        scheme, separator, _ = self.url.partition("://")
        if separator and scheme not in STORE_SCHEMES:
            yield "url", (
                f"unknown scheme {scheme!r}; supported: "
                + ", ".join(f"{s}://" for s in STORE_SCHEMES)
            )


@dataclass(frozen=True)
class ModelConfig(_Table):
    """Which artifact the topology serves (``[model]``)."""

    tag: str = _knob("", "store tag / version / version prefix")
    path: str = _knob("", "artifact file on disk")
    expected_fingerprint: str = _knob(
        "", "refuse to serve unless the artifact digest matches"
    )

    @property
    def source(self) -> str:
        return self.path or self.tag

    def _check(self, given):
        if self.tag and self.path:
            yield "tag", "mutually exclusive with model.path — pick one source"
        if not self.tag and not self.path:
            yield "tag", "a deployment must name its model: set tag or path"


@dataclass(frozen=True)
class ServeConfig(_Table):
    """Scan-service knobs (``[serve]``)."""

    threshold: float = _knob(0.5, minimum=0.0, maximum=1.0, exclusive=True)
    cache_entries: int = _knob(8192, minimum=1)


@dataclass(frozen=True)
class StreamConfig(_Table):
    """Scanner topology and backpressure (``[stream]``)."""

    # Not a knob (a ClassVar, so the parser rejects the key):
    # scanbench/workloads.py still reads it.
    shards: typing.ClassVar[int] = 2
    batch_size: int = _knob(16, minimum=1)
    queue: int = _knob(256, minimum=1)
    policy: str = _knob("block", choices=STREAM_POLICIES)
    #: Oldest-event age that forces a flush; 0 disables deadline
    #: flushing entirely (only safe under producer-paced ``block``).
    deadline_seconds: float = _knob(
        0.25, "0 disables deadline flushing", minimum=0.0
    )
    dedup_addresses: bool = _knob(True)


@dataclass(frozen=True)
class SinkConfig(_Table):
    """One alert delivery channel (``[[sinks]]``)."""

    #: No usable default: a sink entry must say what it is.
    kind: str = _knob("", "required", choices=SINK_KINDS)
    path: str = _knob("", "required for `jsonl`, rejected elsewhere")
    url: str = _knob("", "required for `webhook`, rejected elsewhere")
    timeout: float = _knob(
        2.0, "`webhook` only, rejected elsewhere",
        minimum=0.0, exclusive=True,
    )

    def _check(self, given):
        kind = self.kind
        if kind == "jsonl" and not self.path:
            yield "path", "jsonl sink needs a file path"
        if kind == "webhook" and not self.url:
            yield "url", "webhook sink needs a url"
        if kind == "memory" and (self.path or self.url):
            yield "kind", "memory sink takes no path/url"
        if kind == "jsonl" and self.url:
            yield "url", "jsonl sink takes no url"
        if kind == "webhook" and self.path:
            yield "path", "webhook sink takes no path"
        if "timeout" in given and kind != "webhook":
            yield "timeout", "only webhook sinks take a delivery timeout"

    def as_dict(self) -> dict:
        # Dropping the timeout a non-webhook sink may not set keeps
        # as_dict() re-parseable under the parser's own strictness.
        view = super().as_dict()
        if self.kind != "webhook":
            del view["timeout"]
        return view


@dataclass(frozen=True)
class SourceConfig(_Table):
    """Traffic source (``[source]``)."""

    mode: str = _knob("replay", choices=SOURCE_MODES)
    contracts: int = _knob(200, minimum=2)
    seed: int = _knob(0, minimum=0)
    rate: float = _knob(0.0, "0 replays at maximum speed", minimum=0.0)


@dataclass(frozen=True)
class RolloutConfig(_Table):
    """Shadow-rollout plan (``[rollout]``, optional)."""

    candidate: str = _knob(
        "candidate", "store ref under validation", nonempty=True
    )
    production: str = _knob(
        "production", "store tag serving production", nonempty=True
    )
    policy: str = _knob("parity", choices=ROLLOUT_POLICIES)
    min_events: int = _knob(100, minimum=1)
    promote_agreement: float = _knob(
        0.98, minimum=0.0, maximum=1.0, exclusive=True
    )
    abort_agreement: float = _knob(
        0.90, minimum=0.0, maximum=1.0, exclusive=True
    )
    max_divergence: float = _knob(
        0.05, minimum=0.0, maximum=1.0, exclusive=True
    )
    max_lost_rate: float = _knob(
        0.02,
        "`adaptive` only — top tolerated fraction of shadow events where "
        "only production flagged (alerts the candidate drops)",
        minimum=0.0, maximum=1.0,
    )


@dataclass(frozen=True)
class FleetConfig(_Table):
    """Multi-process serving fleet (``[fleet]``, optional).

    Present means the topology launches as worker *processes* behind a
    coordinator (:mod:`repro.net`) instead of one in-process scanner.
    """

    host: str = _knob("127.0.0.1", "coordinator bind address", nonempty=True)
    port: int = _knob(
        0, "coordinator port, 0 binds an ephemeral port",
        minimum=0, maximum=65535,
    )
    workers: int = _knob(2, minimum=1)
    queue_depth: int = _knob(
        4, "per-worker in-flight batches before admission control acts",
        minimum=1,
    )
    overflow: str = _knob(
        "shed",
        "`shed` answers HTTP 429 on overflow, `block` makes admission wait",
        choices=FLEET_OVERFLOW,
    )
    mmap: bool = _knob(
        False,
        'workers map model artifacts with `mmap_mode="r"` (zero-copy '
        "cold start; OS page cache shared across workers)",
    )
    request_timeout: float = _knob(
        10.0,
        "per-batch worker HTTP timeout (seconds) — the bound on how long "
        "a hung worker can stall a dispatch before being declared dead",
        minimum=0.0, exclusive=True,
    )


@dataclass(frozen=True)
class FaultToleranceConfig(_Table):
    """Self-healing knobs (``[fault_tolerance]``, optional).

    Present means the fleet launches with worker supervision, retrying
    clients, and (when ``dead_letter_path`` is set) dead-letter spooling
    on webhook sinks. Absent keeps the PR-7 behaviour: dead workers are
    routed around but never replaced.
    """

    respawn: bool = _knob(
        True, "auto-respawn crashed workers (heartbeat + backoff)"
    )
    max_respawns: int = _knob(
        3, "consecutive failed respawns before quarantine", minimum=1
    )
    heartbeat_seconds: float = _knob(
        0.5, "supervisor liveness probe interval",
        minimum=0.0, exclusive=True,
    )
    backoff_seconds: float = _knob(
        0.2, "first-respawn backoff, doubling per consecutive failure",
        minimum=0.0,
    )
    backoff_max_seconds: float = _knob(5.0, "backoff ceiling", minimum=0.0)
    retry_attempts: int = _knob(
        3, "store/webhook HTTP retry attempts (1 = no retry)", minimum=1
    )
    breaker_failures: int = _knob(
        5, "consecutive failures that open the delivery circuit", minimum=1
    )
    breaker_reset_seconds: float = _knob(
        30.0, "open window before one half-open probe",
        minimum=0.0, exclusive=True,
    )
    dead_letter_path: str = _knob(
        "", "JSONL spool for undeliverable webhook alerts, empty disables "
            "spooling (failed deliveries are only counted)"
    )


@dataclass(frozen=True)
class LoopConfig(_Table):
    """Continuous-learning loop (``[loop]``, optional).

    Present means the topology runs a :class:`repro.loop.LoopOrchestrator`
    over the scanner: drift on the live score distribution triggers an
    incremental warm-start retrain, the candidate shadows production, and
    the ``[rollout]`` policy promotes or aborts — every decision appended
    to the store's ``loop-history.jsonl``.
    """

    candidate: str = _knob(
        "candidate", "store tag the fresh candidate registers under",
        nonempty=True,
    )
    window: int = _knob(
        256, "scores per drift window (reference and live each)", minimum=4
    )
    blocks: int = _knob(
        8, "paired blocks per window (the Wilcoxon sample size), `window` "
           "must be ≥ 2 × blocks and divisible by it",
        minimum=2,
    )
    check_every: int = _knob(
        64, "labeled events between drift checks", minimum=1
    )
    alpha: float = _knob(
        0.05, "significance level on the Holm-adjusted p-value",
        minimum=0.0, maximum=1.0, exclusive=True,
    )
    min_effect: float = _knob(
        0.1, "Cliff's-delta magnitude floor, smaller shifts are noise",
        minimum=0.0, maximum=1.0,
    )
    confirm_checks: int = _knob(
        2, "consecutive positive checks to confirm drift", minimum=1
    )
    grow: int = _knob(40, "estimators grown per warm-start retrain", minimum=1)
    holdout: float = _knob(
        0.25, "held-out fraction of the retrain window",
        minimum=0.0, maximum=1.0, exclusive=True,
    )
    model_family: str = _knob(
        "", "declared production family for the static D028 check, "
            "empty skips"
    )

    def _check(self, given):
        # Same-section, so the parser owns it (like model.tag vs
        # model.path): the monitor rejects these shapes at construction,
        # deep inside launch.
        if self.window < 2 * self.blocks:
            yield "window", (
                f"must be >= 2 x loop.blocks ({2 * self.blocks}), "
                f"got {self.window}"
            )
        elif self.window % self.blocks:
            yield "window", (
                f"must be divisible by loop.blocks={self.blocks}, "
                f"got {self.window}"
            )


@dataclass(frozen=True)
class DeployConfig:
    """The full deployment topology, domain-valid by construction.

    Each section field's annotation names its table's dataclass; a
    ``None`` default marks an optional table and a tuple an array of
    tables.
    """

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
        """JSON-ready view of the parsed topology; it re-parses as is."""
        view = {}
        for field, _ in _TABLES:
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                view[field.name] = [entry.as_dict() for entry in value]
            else:
                view[field.name] = None if value is None else value.as_dict()
        return view


#: ``(DeployConfig field, table dataclass)`` for each top-level table,
#: in declaration order, read off :class:`DeployConfig`'s annotations.
_TABLES = tuple(
    (field, table)
    for field in dataclasses.fields(DeployConfig)
    for table in (field.type, *typing.get_args(field.type))
    if isinstance(table, type) and issubclass(table, _Table)
)


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #

_EXPECTED = {
    str: "a string",
    bool: "true/false",
    int: "an integer",
    float: "a number",
}


def _checked(value, kind: type, meta) -> tuple[object, str | None]:
    """``(value, None)`` when ``value`` is in a knob's domain, else
    ``(None, problem)``. Floats come back as ``float``."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (
        isinstance(value, bool) and kind is not bool
    ):
        return None, f"expected {_EXPECTED[kind]}, got {value!r}"
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # JSON integers are unbounded
            value = math.inf if value > 0 else -math.inf
    choices = meta["choices"]
    if choices and value not in choices:
        return None, f"{value!r} is not one of {', '.join(map(repr, choices))}"
    low, high, strict = meta["minimum"], meta["maximum"], meta["exclusive"]
    if low is not None and (value <= low if strict else value < low):
        return None, f"must be {'>' if strict else '>='} {low}, got {value}"
    if high is not None and (value >= high if strict else value > high):
        return None, f"must be {'<' if strict else '<='} {high}, got {value}"
    # NaN passes every bound above; a NaN threshold would silently
    # classify nothing as phishing.
    if kind is float and not math.isfinite(value):
        return None, f"must be a finite number, got {value}"
    if meta["nonempty"] and not value:
        return None, "must not be empty"
    return value, None


def _parse_table(
    table: type, name: str, raw: dict, problems: list[ConfigProblem]
) -> _Table:
    """Parse one table into ``table``; a bad knob keeps its default."""
    unknown = dict(raw)
    values = {}
    for field in dataclasses.fields(table):
        value, message = _checked(
            unknown.pop(field.name, field.default), field.type, field.metadata
        )
        if message is not None:
            problems.append(ConfigProblem(f"{name}.{field.name}", message))
            value = field.default
        values[field.name] = value
    section = table(**values)
    for knob, message in section._check(raw.keys()):
        problems.append(ConfigProblem(f"{name}.{knob}", message))
    for key in sorted(unknown):
        problems.append(ConfigProblem(f"{name}.{key}", "unknown key"))
    return section


def _not_a_table(path: str, raw) -> ConfigProblem:
    return ConfigProblem(path, f"expected a table/object, got {raw!r}")


def _parse_array(
    table: type, name: str, raw, problems: list[ConfigProblem]
) -> tuple:
    """Parse an array of tables (``[[sinks]]``), one ``table`` each."""
    if not isinstance(raw, list):
        problems.append(
            ConfigProblem(name, f"expected an array of tables, got {raw!r}")
        )
        return ()
    entries = []
    for index, entry in enumerate(raw):
        path = f"{name}[{index}]"
        if isinstance(entry, dict):
            entries.append(_parse_table(table, path, entry, problems))
        else:
            problems.append(_not_a_table(path, entry))
    return tuple(entries)


def parse_config(data: dict, *, origin: str = "<dict>") -> DeployConfig:
    """Validate a raw mapping into a :class:`DeployConfig`.

    Raises :class:`ConfigError` listing *every* domain problem found.
    """
    if not isinstance(data, dict):
        raise ConfigError(origin, [_not_a_table("", data)])
    data = dict(data)
    problems: list[ConfigProblem] = []
    sections = {}
    for field, table in _TABLES:
        name = field.name
        if isinstance(field.default, tuple):
            sections[name] = _parse_array(
                table, name, data.pop(name, []), problems
            )
            continue
        raw = data.pop(name, None)
        if raw is None and field.default is None:  # optional and absent
            sections[name] = None
            continue
        if raw is None:
            raw = {}
        elif not isinstance(raw, dict):
            problems.append(_not_a_table(name, raw))
            raw = {}
        sections[name] = _parse_table(table, name, raw, problems)

    for key in sorted(data):
        problems.append(ConfigProblem(str(key), "unknown section"))
    if problems:
        raise ConfigError(origin, problems)
    return DeployConfig(**sections, origin=origin)


def load_config(path) -> DeployConfig:
    """Load and validate a deployment config file (TOML or JSON).

    The format follows the file suffix: ``.toml`` parses with the
    stdlib ``tomllib``, ``.json`` with ``json``. Syntax errors, unknown
    suffixes and unreadable or non-UTF-8 files all surface as
    :class:`ConfigError` (so ``check-config`` has exactly one failure
    type to render).
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
    except (OSError, UnicodeDecodeError) as error:
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
