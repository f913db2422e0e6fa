"""Closed-loop continuous learning: drift → retrain → shadow → promote.

The serving stack's missing feedback edge. :mod:`repro.analysis` can
*measure* concept drift, :mod:`repro.artifacts` can *persist* models and
:mod:`repro.rollout` can *promote* them — but nothing connected them, so
a drifting stream silently degraded production. This package closes the
loop:

* :class:`~repro.loop.drift.DriftMonitor` — a sliding two-window drift
  detector over live score distributions, wrapping the paper's
  critical-difference machinery (:mod:`repro.analysis.cdd`): blockwise
  Wilcoxon significance gated by a Cliff's-delta effect floor, confirmed
  over consecutive checks before anything fires.
* :func:`~repro.loop.retrain.retrain_candidate` — the *incremental*
  retrain step: warm-start the production model from its fitted state
  (``fit_more`` grows trees; the Incremental-QBF pattern of keeping
  learned state across related instances) on the sliding event window
  and score a held-out slice; the caller registers the result as
  ``candidate``.
* :class:`~repro.loop.orchestrator.LoopOrchestrator` — the long-running
  driver: watches the stream as a scanner observer, runs the retrain in
  a forked child (a crashed or hung fit aborts the retrain, not the
  serving process; the triggering flush waits for it), registers the
  candidate, auto-starts a :class:`~repro.rollout.shadow.ShadowRollout`
  on it, and lets the rollout policy promote or abort.
* :mod:`~repro.loop.history` — the durable promotion-history log
  (``loop-history.jsonl`` in the store): every decision — drift
  evidence, retrain metrics, shadow comparison, the verdict — appends
  one canonical JSON line. Entries carry *event time* (replayed chain
  timestamps), never wall clock, so a seeded replay reproduces the log
  byte for byte.
"""

from repro.loop.drift import DriftMonitor, DriftReport
from repro.loop.history import HISTORY_KEY, append_history, read_history
from repro.loop.orchestrator import (
    LOOP_KEY,
    LoopOrchestrator,
    clear_loop_state,
    load_loop_state,
    save_loop_state,
)
from repro.loop.retrain import (
    Candidate,
    RetrainError,
    fork_retrain,
    retrain_candidate,
)

__all__ = [
    "Candidate",
    "DriftMonitor",
    "DriftReport",
    "HISTORY_KEY",
    "LOOP_KEY",
    "LoopOrchestrator",
    "RetrainError",
    "append_history",
    "clear_loop_state",
    "fork_retrain",
    "load_loop_state",
    "read_history",
    "retrain_candidate",
    "save_loop_state",
]
