"""Cross-knob dependency-violation rules over a deployment config.

Domain validation (:mod:`repro.deploy.config`) guarantees every knob is
individually sane; this module checks the *combinations* — the silent
failure modes that only appear when two or three knobs interact, the
way a pair of individually-valid DDS QoS policies can form an
unresolvable dependency chain (PAPERS.md). Each rule has a stable ID
(``D001``…), a severity, a rationale and a concrete fix, and the whole
catalog is evaluated statically by :func:`check_config` — no store is
opened, no socket touched, nothing launched (the analyser inspects the
specification, it never executes it).

Severities:

* ``ERROR`` — the topology is broken or lying: it will lose alerts,
  thrash, or can never do what the config says it does. Config-driven
  launch (``monitor --config`` / ``rollout start --config``) refuses to
  start on any ERROR.
* ``WARN`` — legal but almost certainly not what the operator meant;
  launch proceeds, ``check-config`` reports it.

The catalog (rationale + fix per rule) is documented for operators in
``docs/configuration.md``; :func:`rule_catalog` is the machine-readable
version the docs tests cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.deploy.config import (
    WARM_START_FAMILIES,
    DeployConfig,
    RolloutConfig,
)

__all__ = [
    "ERROR",
    "WARN",
    "Violation",
    "Rule",
    "RULES",
    "CheckReport",
    "check_config",
    "rule_catalog",
]

ERROR = "ERROR"
WARN = "WARN"

#: Sink kinds whose whole point is durable/forwarded delivery — losing
#: events in front of one of these is losing alerts, not just telemetry.
_DURABLE_SINKS = ("jsonl", "webhook")

#: Backpressure policies that shed events instead of pacing producers.
_DROP_POLICIES = ("drop_oldest", "drop_newest", "sample")


@dataclass(frozen=True)
class Violation:
    """One rule firing on one config."""

    rule_id: str
    severity: str
    title: str
    message: str
    fields: tuple[str, ...]
    fix: str

    def as_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity,
            "title": self.title,
            "message": self.message,
            "fields": list(self.fields),
            "fix": self.fix,
        }

    def render(self) -> str:
        return (
            f"{self.severity:5s} {self.rule_id} [{self.title}] "
            f"{self.message}\n"
            f"      fields: {', '.join(self.fields)}\n"
            f"      fix: {self.fix}"
        )


@dataclass(frozen=True)
class Rule:
    """One cross-knob dependency rule (stable ID, fixed severity)."""

    rule_id: str
    severity: str
    title: str
    rationale: str
    fix: str
    predicate: object  # (DeployConfig) -> str | None  (violation message)
    fields: tuple[str, ...] = ()

    def check(self, config: DeployConfig) -> Violation | None:
        message = self.predicate(config)
        if message is None:
            return None
        return Violation(
            rule_id=self.rule_id,
            severity=self.severity,
            title=self.title,
            message=message,
            fields=self.fields,
            fix=self.fix,
        )


# --------------------------------------------------------------------- #
# Predicates — each returns a concrete message, or None when clean.
# --------------------------------------------------------------------- #


def _silent_alert_loss(c: DeployConfig):
    durable = [s.kind for s in c.sinks if s.kind in _DURABLE_SINKS]
    if c.stream.policy == "drop_newest" and durable:
        return (
            f"stream.policy='drop_newest' sheds the *freshest* deployments "
            f"— exactly the contracts victims are about to sign — while "
            f"{'/'.join(sorted(set(durable)))} sink(s) promise durable alert "
            f"delivery; shed events are never scored, so their alerts are "
            f"silently lost"
        )
    return None


def _audit_gap(c: DeployConfig):
    if c.stream.policy == "drop_oldest" and any(
        s.kind == "jsonl" for s in c.sinks
    ):
        return (
            "stream.policy='drop_oldest' sheds history under load, so the "
            "jsonl audit trail has silent gaps precisely during the bursts "
            "a post-mortem would need"
        )
    return None


def _flush_working_set(c: DeployConfig) -> int:
    """Entries one flush cycle needs: ``batch_size`` predictions, or with
    a shadow (``[rollout]``, a ``[loop]``'s shadow phase) ``2 x batch_size
    + ceil(batch_size / 4)``, the boundary ``tests/stream/test_scanner.py``
    measures for a primary, a candidate and their shared decodes."""
    batch = c.stream.batch_size
    if c.rollout is None and c.loop is None:
        return batch
    return 2 * batch - (-batch // 4)


def _cache_thrash(c: DeployConfig):
    entries, batch = c.serve.cache_entries, c.stream.batch_size
    working_set = _flush_working_set(c)
    if entries >= working_set:
        return None
    measured = (
        f"hits only cache_entries/batch_size = {entries}/{batch} "
        f"({entries / batch:.0%}) of its lookups" if working_set == batch
        else f"hits none of the primary's lookups at <= {2 * batch} "
             f"entries and about half below {working_set}"
    )
    return (
        f"serve.cache_entries={entries} is smaller than one flush cycle's "
        f"working set ({working_set} entries at stream.batch_size={batch}"
        f"{'' if working_set == batch else ' with a shadow'}): every "
        f"micro-batch evicts entries the next one needs — traffic that "
        f"repeats every flush {measured} in steady state"
    )


def _cache_headroom(c: DeployConfig):
    working_set = _flush_working_set(c)
    if working_set <= c.serve.cache_entries < 2 * working_set:
        return (
            f"serve.cache_entries={c.serve.cache_entries} holds barely one "
            f"flush cycle (working set {working_set}); redelivered or "
            f"cloned bytecodes will mostly miss — give the LRU at least "
            f"2x the working set"
        )
    return None


def _noop_rollout(c: DeployConfig):
    if c.rollout is not None and c.rollout.candidate == c.rollout.production:
        return (
            f"rollout.candidate and rollout.production both resolve "
            f"{c.rollout.candidate!r}: the shadow scores a model against "
            f"itself, agreement is 1.0 by construction, and promotion "
            f"repoints the tag at the version it already serves — a no-op "
            f"rollout that *looks* like a successful validation"
        )
    return None


def _redundant_pulls(c: DeployConfig):
    remote = c.store.scheme in ("bucket", "http", "https")
    if remote and c.fleet is not None and not c.store.cache_dir:
        return (
            f"store.url={c.store.url!r} is a remote backend serving "
            f"fleet.workers={c.fleet.workers} worker processes, but "
            f"store.cache_dir is unset: every worker cold start re-pulls "
            f"the artifact into a throwaway spool instead of a shared "
            f"local cache"
        )
    return None


def _nondeterministic_replay(c: DeployConfig):
    if c.stream.policy == "sample":
        return (
            "stream.policy='sample' sheds by coin-flip, but a replay "
            "exists to produce *reproducible* evaluations — the same "
            "campaign replayed twice scores different event sets"
        )
    return None


def _starved_block_queue(c: DeployConfig):
    if c.stream.policy == "block" and c.stream.queue < c.stream.batch_size:
        return (
            f"stream.queue={c.stream.queue} < stream.batch_size="
            f"{c.stream.batch_size} under policy='block': a full micro-"
            f"batch can never form before the queue overflows (the scanner "
            f"rejects this exact combination at construction, deep inside "
            f"worker setup)"
        )
    return None


def _starved_drop_queue(c: DeployConfig):
    if (
        c.stream.policy in _DROP_POLICIES
        and c.stream.queue < c.stream.batch_size
    ):
        return (
            f"stream.queue={c.stream.queue} < stream.batch_size="
            f"{c.stream.batch_size} under policy={c.stream.policy!r}: the "
            f"queue sheds before a batch can ever fill, so every flush is "
            f"an undersized batch and the drop counters absorb the "
            f"difference"
        )
    return None


def _unbounded_latency(c: DeployConfig):
    if c.stream.policy in _DROP_POLICIES and c.stream.deadline_seconds == 0:
        return (
            f"stream.policy={c.stream.policy!r} implies consumer-paced "
            f"intake (batches flush on the deadline, not per event), but "
            f"stream.deadline_seconds=0 disables deadline flushing: queued "
            f"events sit unscored until a drain, so alert latency is "
            f"unbounded"
        )
    return None


def _deadline_defeats_batching(c: DeployConfig):
    if (
        c.source.rate > 0
        and c.stream.deadline_seconds > 0
        and c.stream.deadline_seconds < 1.0 / c.source.rate
    ):
        return (
            f"stream.deadline_seconds={c.stream.deadline_seconds} is "
            f"shorter than one inter-event gap at source.rate="
            f"{c.source.rate}/s ({1.0 / c.source.rate:.3f}s): every batch "
            f"flushes with a single event, paying batching overhead for "
            f"none of the vectorization win"
        )
    return None


def _inverted_parity_band(c: DeployConfig):
    r = c.rollout
    if (
        r is not None
        and r.policy == "parity"
        and r.abort_agreement >= r.promote_agreement
    ):
        return (
            f"rollout.abort_agreement={r.abort_agreement} >= "
            f"rollout.promote_agreement={r.promote_agreement}: the parity "
            f"band is empty or inverted, so once min_events is reached "
            f"every candidate is either aborted at an agreement that "
            f"should promote it, or the two thresholds fight — no "
            f"candidate can be validated"
        )
    return None


def _undecidable_parity(c: DeployConfig):
    r = c.rollout
    if (
        r is not None
        and r.policy == "parity"
        and r.min_events > c.source.contracts
    ):
        return (
            f"rollout.min_events={r.min_events} exceeds the replay "
            f"campaign's unique-deployment floor (source.contracts="
            f"{c.source.contracts}): one replay may never reach the "
            f"evidence floor, leaving the rollout permanently holding"
        )
    return None


def _ephemeral_promotion(c: DeployConfig):
    if c.rollout is not None and c.store.scheme == "memory":
        return (
            f"store.url={c.store.url!r} is an in-process bucket but the "
            f"config plans a rollout: a promotion retags a store no other "
            f"process can see, and the new production version evaporates "
            f"with this process"
        )
    return None


def _alerts_unobservable(c: DeployConfig):
    if not c.sinks:
        return (
            "no [[sinks]] configured: flagged deployments exist only in "
            "process memory — detection runs, but nobody is told"
        )
    return None


def _degenerate_batching(c: DeployConfig):
    if c.stream.batch_size == 1:
        return (
            "stream.batch_size=1: every event is its own micro-batch, so "
            "each pays a whole flush (cache lookup, feature transform, "
            "forest descent, sink emit) and the vectorized inference "
            "engine only ever sees batches of one"
        )
    return None


def _fleet_unreachable_store(c: DeployConfig):
    if c.fleet is not None and c.store.scheme == "memory":
        return (
            f"store.url={c.store.url!r} is an in-process bucket but "
            f"fleet.workers={c.fleet.workers} spawns worker *processes*: "
            f"a child cannot reach the parent's memory:// registry (under "
            f"spawn it sees an empty store; under fork, a diverging "
            f"snapshot), so workers cold-start from a store that does not "
            f"exist where they run"
        )
    return None


def _fleet_shed_alert_loss(c: DeployConfig):
    if c.fleet is None or c.fleet.overflow != "shed":
        return None
    durable = [s.kind for s in c.sinks if s.kind in _DURABLE_SINKS]
    if c.stream.policy == "block" and durable:
        return (
            f"fleet.overflow='shed' drops whole batches with HTTP 429 "
            f"while stream.policy='block' and "
            f"{'/'.join(sorted(set(durable)))} sink(s) declare a lossless, "
            f"durably-delivered topology: shed batches are never scored, "
            f"so their alerts vanish from a pipeline that promises not to "
            f"lose any"
        )
    return None


def _respawn_cold_store(c: DeployConfig):
    ft = c.fault_tolerance
    if (
        ft is None
        or not ft.respawn
        or c.fleet is None
        or c.store.scheme not in ("bucket", "http", "https")
        or c.store.cache_dir
    ):
        return None
    return (
        f"fault_tolerance.respawn with a remote store "
        f"(store.url={c.store.url!r}) and no store.cache_dir: every "
        f"respawn re-pulls the artifact over the network, and a respawn "
        f"triggered *by* a store outage can never succeed — the warm "
        f"reload that supervision depends on needs a local spool to "
        f"reload from"
    )


def _dead_letter_in_store(c: DeployConfig):
    ft = c.fault_tolerance
    if ft is None or not ft.dead_letter_path or c.store.scheme != "file":
        return None
    import os.path

    root = c.store.url
    if root.startswith("file://"):
        root = root[len("file://"):]
    # Pure path algebra (normpath/abspath never touch the filesystem):
    # the analyser must stay static.
    store_root = os.path.normpath(os.path.abspath(root))
    spool = os.path.normpath(os.path.abspath(ft.dead_letter_path))
    if spool == store_root or spool.startswith(store_root + os.sep):
        return (
            f"fault_tolerance.dead_letter_path={ft.dead_letter_path!r} "
            f"resolves inside the model store at {c.store.url!r}: the "
            f"store is an immutable artifact surface, commonly a "
            f"read-only mount or a store-serve mirror that refuses "
            f"writes — spooling alerts into it fails exactly when the "
            f"spool is needed, and store GC can delete the spool"
        )
    return None


def _lagging_heartbeat(c: DeployConfig):
    ft = c.fault_tolerance
    if (
        ft is None
        or not ft.respawn
        or c.fleet is None
        or ft.heartbeat_seconds < c.fleet.request_timeout
    ):
        return None
    return (
        f"fault_tolerance.heartbeat_seconds={ft.heartbeat_seconds} is "
        f">= fleet.request_timeout={c.fleet.request_timeout}: the "
        f"supervisor probes less often than a request is allowed to "
        f"hang, so every crash is discovered by a client-visible "
        f"timeout before the heartbeat ever notices — the liveness "
        f"check guards nothing"
    )


def _circuit_open_alert_loss(c: DeployConfig):
    ft = c.fault_tolerance
    if ft is None or ft.dead_letter_path:
        return None
    webhooks = [s for s in c.sinks if s.kind == "webhook"]
    if not webhooks:
        return None
    return (
        f"a fault-tolerant topology delivers alerts to "
        f"{len(webhooks)} webhook sink(s) with no "
        f"fault_tolerance.dead_letter_path: when the webhook's circuit "
        f"opens, failed deliveries are only counted, not spooled — "
        f"alerts are dropped during exactly the outage window this "
        f"config exists to survive"
    )


def _loop_without_sink(c: DeployConfig):
    if c.loop is None:
        return None
    durable = [s.kind for s in c.sinks if s.kind in _DURABLE_SINKS]
    if not durable:
        return (
            "a [loop] topology autonomously retrains and repoints "
            "production, but no jsonl/webhook sink is configured: the "
            "loop's promotions change what every future alert means with "
            "no durable channel telling an operator the model changed "
            "under them"
        )
    return None


def _loop_window_below_evidence(c: DeployConfig):
    if c.loop is None:
        return None
    min_events = (
        c.rollout.min_events if c.rollout is not None
        else RolloutConfig.min_events
    )
    if c.loop.window < min_events:
        return (
            f"loop.window={c.loop.window} is below the rollout evidence "
            f"floor rollout.min_events={min_events}: the loop confirms "
            f"drift and retrains on less evidence than its own shadow "
            f"needs to even judge the candidate, so every triggered "
            f"rollout starts in a hold it may never leave"
        )
    return None


def _loop_unsupported_family(c: DeployConfig):
    if c.loop is None or not c.loop.model_family:
        return None
    if c.loop.model_family not in WARM_START_FAMILIES:
        return (
            f"loop.model_family={c.loop.model_family!r} cannot be "
            f"warm-started: fit_more grows fitted ensembles, and only "
            f"{', '.join(WARM_START_FAMILIES)} have trees to grow — "
            f"every drift trigger would fail the retrain and abort, "
            f"leaving a loop that detects but can never adapt"
        )
    return None


#: The catalog. IDs are stable — tooling, dashboards and the docs rule
#: table key on them; new rules append, old rules never renumber. The
#: gaps are retired rules whose IDs are never reused: D018 policed the
#: address-hash routing the fleet coordinator no longer does, D020 and
#: D025 the feature-ring knobs, D029 a forked retrain on a memory://
#: store (the parent now registers every candidate itself).
RULES: tuple[Rule, ...] = (
    Rule(
        "D001", ERROR, "silent-alert-loss",
        "A drop_newest backpressure policy in front of durable alert "
        "sinks sheds the freshest deployments unscored; their alerts "
        "never existed as far as the sink can tell.",
        "use policy='block' (or drop_oldest for telemetry-only "
        "topologies), or remove the durable sink expectation",
        _silent_alert_loss,
        ("stream.policy", "sinks"),
    ),
    Rule(
        "D002", WARN, "audit-gap",
        "drop_oldest sheds history under load, so an append-only jsonl "
        "audit trail silently misses exactly the burst a post-mortem "
        "would study.",
        "use policy='block' for audited topologies, or accept and "
        "monitor the scanner's dropped counter",
        _audit_gap,
        ("stream.policy", "sinks"),
    ),
    Rule(
        "D003", ERROR, "cache-thrash",
        "A cache smaller than one flush cycle's working set thrashes "
        "every flush: repeating traffic hits cache_entries/batch_size of "
        "its lookups. A shadow ([rollout], a [loop]'s shadow phase) "
        "raises the working set to 2 x batch_size + ceil(batch_size / 4).",
        "raise serve.cache_entries to at least the working set (2x for "
        "headroom)",
        _cache_thrash,
        ("serve.cache_entries", "stream.batch_size", "rollout", "loop"),
    ),
    Rule(
        "D004", WARN, "cache-headroom",
        "A cache holding barely one flush cycle's working set (D003) "
        "serves redeliveries and clones mostly from misses.",
        "raise serve.cache_entries to >= 2x the working set",
        _cache_headroom,
        ("serve.cache_entries", "stream.batch_size", "rollout", "loop"),
    ),
    Rule(
        "D005", ERROR, "noop-rollout",
        "candidate == production shadow-validates a model against "
        "itself; perfect agreement is vacuous and promotion changes "
        "nothing while reporting success.",
        "point rollout.candidate at the new version's tag/digest",
        _noop_rollout,
        ("rollout.candidate", "rollout.production"),
    ),
    Rule(
        "D006", WARN, "redundant-pulls",
        "A remote store (bucket:// or http(s)://) serving a worker fleet "
        "without a local cache_dir re-pulls the artifact on every worker "
        "process cold start (an in-process monitor loads it once).",
        "set store.cache_dir to a host-local directory",
        _redundant_pulls,
        ("store.url", "store.cache_dir", "fleet"),
    ),
    Rule(
        "D007", ERROR, "nondeterministic-replay",
        "sample backpressure on a replay timeline sheds by coin-flip: "
        "the evaluation is not reproducible run to run.",
        "use a deterministic policy (block/drop_oldest/drop_newest)",
        _nondeterministic_replay,
        ("stream.policy",),
    ),
    Rule(
        "D008", ERROR, "starved-block-queue",
        "queue < batch_size under policy='block' can never form a full "
        "micro-batch; the scanner rejects it at construction, deep "
        "inside worker setup.",
        "raise stream.queue to >= stream.batch_size",
        _starved_block_queue,
        ("stream.queue", "stream.batch_size", "stream.policy"),
    ),
    Rule(
        "D009", WARN, "starved-drop-queue",
        "queue < batch_size under a drop policy sheds before a batch "
        "can fill; every flush is undersized.",
        "raise stream.queue to >= stream.batch_size",
        _starved_drop_queue,
        ("stream.queue", "stream.batch_size", "stream.policy"),
    ),
    Rule(
        "D010", ERROR, "unbounded-latency",
        "A drop policy flushes on the deadline, not per event; with "
        "deadline flushing disabled, queued events wait for a drain and "
        "alert latency is unbounded.",
        "set stream.deadline_seconds > 0 (0.25 is the monitor default)",
        _unbounded_latency,
        ("stream.policy", "stream.deadline_seconds"),
    ),
    Rule(
        "D011", WARN, "deadline-defeats-batching",
        "A flush deadline shorter than one inter-event gap at the "
        "configured replay rate degenerates every micro-batch to a "
        "single event.",
        "raise stream.deadline_seconds above 1/source.rate, or raise "
        "the rate",
        _deadline_defeats_batching,
        ("stream.deadline_seconds", "source.rate"),
    ),
    Rule(
        "D012", ERROR, "inverted-parity-band",
        "abort_agreement >= promote_agreement leaves the parity policy "
        "no band to decide in; no candidate can validate.",
        "set rollout.abort_agreement strictly below "
        "rollout.promote_agreement",
        _inverted_parity_band,
        ("rollout.abort_agreement", "rollout.promote_agreement"),
    ),
    Rule(
        "D013", WARN, "undecidable-parity",
        "An evidence floor above the replay campaign's deployment count "
        "may leave the rollout permanently holding.",
        "lower rollout.min_events or raise source.contracts",
        _undecidable_parity,
        ("rollout.min_events", "source.contracts"),
    ),
    Rule(
        "D014", WARN, "ephemeral-promotion",
        "Promoting through a memory:// store retags state no other "
        "process can observe; the promotion evaporates with the "
        "process.",
        "use a file:// or bucket:// store for rollout topologies",
        _ephemeral_promotion,
        ("store.url", "rollout"),
    ),
    Rule(
        "D015", WARN, "alerts-unobservable",
        "A topology with no sinks scores traffic but tells no one.",
        "add at least one [[sinks]] entry (jsonl for an audit trail)",
        _alerts_unobservable,
        ("sinks",),
    ),
    Rule(
        "D016", WARN, "degenerate-batching",
        "batch_size=1 makes every event its own flush, paying per-batch "
        "overhead per event while denying the inference engine any "
        "batch to vectorize.",
        "raise stream.batch_size (16-64 is the serving sweet spot)",
        _degenerate_batching,
        ("stream.batch_size",),
    ),
    Rule(
        "D017", ERROR, "fleet-unreachable-store",
        "A fleet crosses process boundaries, but a memory:// store "
        "lives inside exactly one process: workers cold-start against a "
        "store that is empty or a diverging snapshot where they run.",
        "use a file://, bucket:// or http(s):// store for fleet "
        "topologies (store-serve publishes a local store over HTTP)",
        _fleet_unreachable_store,
        ("store.url", "fleet.workers"),
    ),
    Rule(
        "D019", ERROR, "fleet-shed-alert-loss",
        "fleet.overflow='shed' drops whole batches under load while "
        "stream.policy='block' plus durable sinks promise a lossless "
        "pipeline; the shed batches' alerts are silently lost.",
        "use fleet.overflow='block' for lossless topologies, or "
        "declare the lossy posture with a drop stream.policy",
        _fleet_shed_alert_loss,
        ("fleet.overflow", "stream.policy", "sinks"),
    ),
    Rule(
        "D021", ERROR, "respawn-cold-store",
        "Supervised respawn with a remote store and no local cache "
        "re-pulls the artifact over the network on every respawn; a "
        "respawn caused by a store outage deadlocks against the very "
        "outage it is recovering from.",
        "set store.cache_dir so respawned workers warm-reload from the "
        "local spool",
        _respawn_cold_store,
        ("fault_tolerance.respawn", "store.url", "store.cache_dir"),
    ),
    Rule(
        "D022", ERROR, "dead-letter-in-store",
        "A dead-letter spool inside the model store root writes alert "
        "JSONL into an immutable artifact surface — commonly a "
        "read-only mount or store-serve mirror that refuses writes "
        "exactly when the spool is needed.",
        "point fault_tolerance.dead_letter_path at a writable path "
        "outside the store root",
        _dead_letter_in_store,
        ("fault_tolerance.dead_letter_path", "store.url"),
    ),
    Rule(
        "D023", ERROR, "lagging-heartbeat",
        "A heartbeat interval at or above the fleet request timeout "
        "discovers every crash only after a client-visible timeout has "
        "already fired: the liveness probe guards nothing.",
        "set fault_tolerance.heartbeat_seconds well below "
        "fleet.request_timeout (a quarter or less)",
        _lagging_heartbeat,
        ("fault_tolerance.heartbeat_seconds", "fleet.request_timeout"),
    ),
    Rule(
        "D024", WARN, "circuit-open-alert-loss",
        "Webhook sinks in a fault-tolerant topology with no dead-letter "
        "path drop alerts whenever the delivery circuit opens — during "
        "exactly the outage window this config exists to survive.",
        "set fault_tolerance.dead_letter_path to spool failed "
        "deliveries for replay",
        _circuit_open_alert_loss,
        ("fault_tolerance.dead_letter_path", "sinks"),
    ),
    Rule(
        "D026", ERROR, "loop-without-sink",
        "A continuous-learning loop retrains and repoints production "
        "autonomously; with no durable sink, the model changes under "
        "every downstream consumer and nobody is told.",
        "add a jsonl or webhook [[sinks]] entry so loop promotions are "
        "observable, or drop the [loop] section",
        _loop_without_sink,
        ("loop", "sinks"),
    ),
    Rule(
        "D027", ERROR, "loop-window-below-evidence-floor",
        "A drift window smaller than the rollout's min_events floor "
        "triggers retrains whose shadow can never gather the evidence "
        "the promotion gate demands; the loop stalls in SHADOWING.",
        "raise loop.window to >= rollout.min_events, or lower the "
        "evidence floor",
        _loop_window_below_evidence,
        ("loop.window", "rollout.min_events"),
    ),
    Rule(
        "D028", ERROR, "warm-start-on-unsupported-model",
        "Declaring a production model family without fit_more support "
        "plans an incremental retrain that must fail on every drift "
        "trigger: the loop detects but can never adapt.",
        "serve a warm-startable ensemble (Random Forest, XGBoost, "
        "LightGBM, CatBoost), or clear loop.model_family",
        _loop_unsupported_family,
        ("loop.model_family", "model.tag"),
    ),
)


@dataclass(frozen=True)
class CheckReport:
    """Every violation one config triggered, ready to render."""

    config: DeployConfig
    violations: tuple[Violation, ...]

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == ERROR)

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == WARN)

    @property
    def ok(self) -> bool:
        """No ERROR-severity violations (warnings allowed)."""
        return not self.errors

    def as_dict(self) -> dict:
        return {
            "config": self.config.origin,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "violations": [v.as_dict() for v in self.violations],
        }

    def render_text(self) -> str:
        lines = [f"check-config {self.config.origin}"]
        for violation in self.violations:
            lines.append(violation.render())
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
            + ("" if self.violations else " — topology is clean")
        )
        return "\n".join(lines)


def check_config(config: DeployConfig) -> CheckReport:
    """Run the whole rule catalog over one parsed config.

    Pure function of the config object: no filesystem writes, no store
    or network connections, nothing launched. ERRORs first, then WARNs,
    each group in rule-ID order.
    """
    violations = [
        violation
        for rule in RULES
        if (violation := rule.check(config)) is not None
    ]
    violations.sort(key=lambda v: (v.severity != ERROR, v.rule_id))
    return CheckReport(config=config, violations=tuple(violations))


def rule_catalog() -> list[dict]:
    """Machine-readable catalog (ID, severity, title, rationale, fix)."""
    return [
        {
            "rule_id": rule.rule_id,
            "severity": rule.severity,
            "title": rule.title,
            "rationale": rule.rationale,
            "fix": rule.fix,
            "fields": list(rule.fields),
        }
        for rule in RULES
    ]
