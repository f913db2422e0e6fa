"""Shadow rollout: validate a candidate on live traffic, promote safely.

PR 4 made model versions portable bytes and tags the serving contract;
this package closes the loop the ROADMAP names — "shadow-score a
``candidate`` tag against ``production`` on live stream traffic and
promote on metric parity". Promotion stops being a human running
``phishinghook models tag production <version>`` on faith and becomes a
measured, reversible, written-down rule:

* :mod:`repro.rollout.shadow` — :class:`ShadowRollout`: one candidate
  scan service shadow-scoring the scanner's live micro-batches, sharing the
  :class:`~repro.serve.cache.FeatureCache` so features are extracted
  once for both models; promotion atomically retags the store and
  hot-swaps the scanner's service with zero dropped batches.
* :mod:`repro.rollout.compare` — :class:`ShadowComparison`: online
  agreement rate, score divergence, per-class disagreement and latency
  overhead.
* :mod:`repro.rollout.policy` — :class:`RolloutPolicy` implementations:
  :class:`MetricParityPolicy` (promote on parity, abort on regression,
  hold in the gray band), :class:`AdaptivePromotionPolicy` (the
  learning-loop gate: loss-averse, tolerant of new flags on drifted
  traffic) and :class:`ManualHoldPolicy` (operator decides).
* :mod:`repro.rollout.state` — the ``rollout.json`` record persisted in
  the store so the CLI workflow spans processes.

Entry points: ``phishinghook rollout start|status|promote|abort``,
``examples/shadow_rollout.py``, and
``benchmarks/bench_shadow_rollout.py`` (shadow overhead ≤ 2×, zero-drop
promotion). The end-to-end walkthrough lives in ``docs/operations.md``.
"""

from repro.rollout.compare import ShadowComparison
from repro.rollout.policy import (
    ABORT,
    HOLD,
    PROMOTE,
    AdaptivePromotionPolicy,
    Decision,
    ManualHoldPolicy,
    MetricParityPolicy,
    RolloutPolicy,
)
from repro.rollout.shadow import ShadowRollout
from repro.rollout.state import (
    ROLLOUT_KEY,
    clear_rollout_state,
    load_rollout_state,
    save_rollout_state,
)

__all__ = [
    "ShadowComparison",
    "HOLD",
    "PROMOTE",
    "ABORT",
    "Decision",
    "RolloutPolicy",
    "MetricParityPolicy",
    "AdaptivePromotionPolicy",
    "ManualHoldPolicy",
    "ShadowRollout",
    "ROLLOUT_KEY",
    "save_rollout_state",
    "load_rollout_state",
    "clear_rollout_state",
]
