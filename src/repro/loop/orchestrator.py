"""The loop driver: watch → retrain → shadow → promote, automatically.

``LoopOrchestrator`` is a scanner observer (the same seam shadow
rollouts use), so it sees every scored micro-batch production serves.
It runs a small state machine:

* **watching** — production scores feed the
  :class:`~repro.loop.drift.DriftMonitor`; labeled events (the loop's
  ``label_of`` oracle) accumulate in a sliding retrain window. Every
  ``check_every`` events the monitor runs one blockwise test.
* **retraining** — on *confirmed* drift the drift evidence is appended
  to the history log and :func:`~repro.loop.retrain.fork_retrain` grows
  the production model on the window in a forked child. The flush that
  confirmed the drift waits for it (up to
  :data:`~repro.loop.retrain.RETRAIN_TIMEOUT`); the child only isolates
  a crash, OOM kill or hang from the serving process. The orchestrator
  then registers the candidate — the child never writes the store.
* **shadowing** — the registered candidate auto-starts a
  :class:`~repro.rollout.shadow.ShadowRollout` against live traffic;
  the rollout policy promotes or aborts, and either verdict lands in
  the history via the rollout's ``on_decision`` hook. A promotion also
  fires ``on_invalidate(outgoing_namespace)`` so a fleet can evict the
  old model's prediction rows host-wide, then the monitor re-baselines
  on the *new* model's scores and the loop returns to watching.

Every decision appends one canonical line to the store's durable
``loop-history.jsonl`` (:mod:`repro.loop.history`); timestamps are event
time from the replayed chain, so the log is bit-reproducible under a
fixed seed. Retrain failures append an ``abort`` entry and leave
production serving exactly what it served before — the loop degrades to
a monitor, never to an outage.
"""

from __future__ import annotations

import json
import time

from repro.loop.drift import DriftMonitor
from repro.loop.history import append_history
from repro.loop.retrain import RetrainError, fork_retrain

__all__ = [
    "LOOP_KEY",
    "LoopOrchestrator",
    "WATCHING",
    "RETRAINING",
    "SHADOWING",
    "clear_loop_state",
    "load_loop_state",
    "save_loop_state",
]

#: Lifecycle states of the loop.
WATCHING = "watching"
RETRAINING = "retraining"
SHADOWING = "shadowing"

#: Store key holding the persisted loop status (operator surface for
#: ``phishinghook loop status`` across processes; the durable decision
#: record is the history log, not this snapshot).
LOOP_KEY = "loop.json"


def save_loop_state(store, record: dict) -> None:
    """Persist a loop status snapshot (stamps wall-clock ``updated_at``)."""
    record = dict(record)
    record["updated_at"] = time.time()
    store.backend.put(
        LOOP_KEY,
        json.dumps(record, indent=2, sort_keys=True).encode("utf-8"),
    )


def load_loop_state(store) -> dict | None:
    try:
        raw = store.backend.get(LOOP_KEY)
    except KeyError:
        return None
    return json.loads(raw.decode("utf-8"))


def clear_loop_state(store) -> None:
    store.backend.delete(LOOP_KEY)


class LoopOrchestrator:
    """Close the learning loop over one live scanner; see module docs.

    Args:
        scanner: The production :class:`~repro.stream.scanner.StreamScanner`.
        store: The :class:`~repro.artifacts.store.ModelStore` holding the
            production tag, the candidate registrations and the history.
        label_of: Ground-truth oracle ``address -> 0 | 1 | None`` for the
            retrain window (``None`` = unlabeled, skipped). In replay
            deployments this is the corpus's own phishing set; live
            deployments plug in whatever labeling pipeline they trust.
        monitor: A configured :class:`~repro.loop.drift.DriftMonitor`
            (defaults to one built from the standard knobs).
        check_every: Events between drift checks.
        grow: Trees to grow per warm-start retrain.
        holdout: Held-out fraction of the retrain window.
        seed: Seed for the holdout split (fit randomness continues from
            the model's own fitted state).
        policy: Rollout policy for the auto-started shadow (default:
            the shadow's :class:`~repro.rollout.policy.MetricParityPolicy`).
        candidate_tag / production_tag: Store tag names.
        on_invalidate: Called with the outgoing prediction namespace
            after a promotion (fleet-wide cache eviction hook).
    """

    def __init__(
        self,
        scanner,
        store,
        *,
        label_of,
        monitor: DriftMonitor | None = None,
        check_every: int = 64,
        grow: int = 40,
        holdout: float = 0.25,
        seed: int = 0,
        policy=None,
        candidate_tag: str = "candidate",
        production_tag: str = "production",
        on_invalidate=None,
    ):
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.scanner = scanner
        self.store = store
        self.label_of = label_of
        self.monitor = monitor or DriftMonitor()
        self.check_every = check_every
        self.grow = grow
        self.holdout = holdout
        self.seed = seed
        self.policy = policy
        self.candidate_tag = candidate_tag
        self.production_tag = production_tag
        self.on_invalidate = on_invalidate

        self.state = WATCHING
        self.clock = 0  # event time: max chain timestamp observed
        self.events_seen = 0
        self.drifts = 0
        self.promotions = 0
        self.aborts = 0
        self.last_report = None
        self.last_retrain: dict | None = None
        self.last_error: str | None = None
        self.rollout = None
        self._window: list[tuple[bytes, int]] = []
        self._last_check = 0
        self._outgoing_namespace: str | None = None
        scanner.add_observer(self)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def observe(self, *, shard, events, results, elapsed_seconds) -> None:
        """Scanner callback: advance the loop by one scored micro-batch."""
        for event in events:
            stamp = int(getattr(event, "timestamp", 0) or 0)
            if stamp > self.clock:
                self.clock = stamp
            label = self.label_of(event.address)
            if label is not None:
                self._window.append((bytes(event.code), int(label)))
        window = self.monitor.window
        if len(self._window) > window:
            del self._window[: len(self._window) - window]
        self.events_seen += len(events)

        if self.state != WATCHING:
            return
        self.monitor.observe(result.probability for result in results)
        if self.events_seen - self._last_check >= self.check_every:
            self._last_check = self.events_seen
            report = self.monitor.check()
            if report.checked:
                self.last_report = report
            if report.confirmed:
                self._trigger(report)

    # ------------------------------------------------------------------ #
    # Drift → retrain
    # ------------------------------------------------------------------ #

    def _production_version(self) -> str | None:
        return getattr(self.scanner.service, "artifact_digest", None)

    def _trigger(self, report) -> None:
        self.drifts += 1
        self.state = RETRAINING
        append_history(self.store, {
            "event": "drift",
            "timestamp": self.clock,
            "production": self._production_version(),
            "p_value": report.p_value,
            "effect": report.effect,
            "consecutive": report.consecutive,
            "checks": report.checks,
            "window_events": len(self._window),
        })
        self._retrain()

    def _retrain(self) -> None:
        try:
            candidate = fork_retrain(
                store=self.store,
                bytecodes=[code for code, __ in self._window],
                labels=[label for __, label in self._window],
                grow=self.grow,
                holdout=self.holdout,
                seed=self.seed,
                production_tag=self.production_tag,
            )
            result = candidate.register(self.store, tag=self.candidate_tag)
        except RetrainError as error:
            self._fail_retrain(str(error))
            return
        self.last_retrain = result
        append_history(self.store, {
            "event": "retrain",
            "timestamp": self.clock,
            "candidate": result["candidate"],
            "base": result["base"],
            "model_name": result.get("model_name"),
            "metrics": result["metrics"],
        })
        self._start_shadow(result["candidate"])

    def _fail_retrain(self, message: str) -> None:
        self.last_error = message
        self.aborts += 1
        append_history(self.store, {
            "event": "abort",
            "stage": "retrain",
            "timestamp": self.clock,
            "production": self._production_version(),
            "error": message,
        })
        # Production is untouched; re-baseline and keep watching.
        self.monitor.reset()
        self._last_check = self.events_seen
        self.state = WATCHING

    # ------------------------------------------------------------------ #
    # Shadow → verdict
    # ------------------------------------------------------------------ #

    def _start_shadow(self, candidate_ref: str) -> None:
        from repro.rollout.shadow import ShadowRollout

        serving = getattr(self.scanner.service, "_serving", None)
        self._outgoing_namespace = serving[1] if serving else None
        self.rollout = ShadowRollout(
            self.scanner,
            candidate_ref,
            store=self.store,
            policy=self.policy,
            production_tag=self.production_tag,
            on_decision=self._on_decision,
        )
        self.state = SHADOWING

    def _on_decision(self, rollout) -> None:
        from repro.rollout.shadow import PROMOTED

        status = rollout.status()
        comparison = status["comparison"]
        promoted = rollout.state == PROMOTED
        append_history(self.store, {
            "event": "promote" if promoted else "abort",
            "stage": "shadow",
            "timestamp": self.clock,
            "reason": status["reason"],
            "candidate": status["candidate_version"],
            "production_before": status["production_version"],
            # Only the deterministic evidence enters the durable log —
            # the comparison's latency fields are wall clock.
            "agreement_rate": comparison["agreement_rate"],
            "mean_divergence": comparison["mean_divergence"],
            "shadow_events": comparison["events"],
        })
        if promoted:
            self.promotions += 1
            if self.on_invalidate is not None and self._outgoing_namespace:
                self.on_invalidate(self._outgoing_namespace)
        else:
            self.aborts += 1
        self._outgoing_namespace = None
        # Re-baseline on whatever is serving now (the candidate after a
        # promotion, the untouched production after an abort) so the
        # loop does not instantly re-fire on the drift it just handled.
        self.monitor.reset()
        self._last_check = self.events_seen
        self.state = WATCHING

    # ------------------------------------------------------------------ #
    # Operator surface
    # ------------------------------------------------------------------ #

    def detach(self) -> None:
        """Stop observing (idempotent); an active shadow detaches too."""
        self.scanner.remove_observer(self)
        if self.rollout is not None:
            self.rollout.detach()

    def status(self) -> dict:
        """JSON-ready loop snapshot (state, counters, evidence)."""
        record = {
            "state": self.state,
            "clock": self.clock,
            "events_seen": self.events_seen,
            "window_events": len(self._window),
            "drifts": self.drifts,
            "promotions": self.promotions,
            "aborts": self.aborts,
            "production": self._production_version(),
            "production_tag": self.production_tag,
            "candidate_tag": self.candidate_tag,
            "monitor": self.monitor.status(),
            "last_check": self.last_report.as_dict()
            if self.last_report is not None else None,
            "last_retrain": self.last_retrain,
            "last_error": self.last_error,
            "rollout": self.rollout.status()
            if self.rollout is not None else None,
        }
        return record
