"""Online production-vs-candidate comparison accounting.

A shadow rollout's evidence is a stream of paired score vectors: for
every micro-batch the production model scored, the candidate
scored the identical bytecodes (through the same shared
:class:`~repro.serve.cache.FeatureCache`, so features were extracted
once). :class:`ShadowComparison` folds those pairs into the running
aggregates a :class:`~repro.rollout.policy.RolloutPolicy` decides on:

* **agreement rate** — fraction of events where both models give the
  same verdict at the serving threshold,
* **score divergence** — mean / max ``|p_prod − p_cand|`` (verdicts can
  agree while probabilities drift toward the threshold; divergence is
  the early-warning number),
* **per-class disagreement** — ``production_only`` (production flags,
  candidate passes: a promotion would *lose* those alerts) vs
  ``candidate_only`` (candidate flags, production passes: a promotion
  would *add* them — new coverage or new false positives),
* **latency overhead** — shadow scoring seconds over primary scoring
  seconds, the cost of running the comparison at all.

Everything is a plain counter or sum, so the comparison serializes
(:meth:`as_dict` / :meth:`from_dict`) and survives a CLI process
boundary in the store's rollout record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ShadowComparison"]


@dataclass
class ShadowComparison:
    """Running aggregates over paired production/candidate scores."""

    events: int = 0
    batches: int = 0
    agreements: int = 0
    production_only: int = 0
    candidate_only: int = 0
    divergence_total: float = 0.0
    max_divergence: float = 0.0
    primary_seconds: float = 0.0
    shadow_seconds: float = 0.0

    def record_batch(
        self,
        production_probs,
        candidate_probs,
        threshold: float,
        *,
        primary_seconds: float = 0.0,
        shadow_seconds: float = 0.0,
    ) -> None:
        """Fold one micro-batch of paired scores into the totals."""
        prod = np.asarray(production_probs, dtype=float)
        cand = np.asarray(candidate_probs, dtype=float)
        if prod.shape != cand.shape:
            raise ValueError(
                f"paired score shapes differ: {prod.shape} vs {cand.shape}"
            )
        if prod.size:
            prod_flag = prod >= threshold
            cand_flag = cand >= threshold
            divergence = np.abs(prod - cand)
            self.events += int(prod.size)
            self.agreements += int(np.sum(prod_flag == cand_flag))
            self.production_only += int(np.sum(prod_flag & ~cand_flag))
            self.candidate_only += int(np.sum(~prod_flag & cand_flag))
            self.divergence_total += float(divergence.sum())
            self.max_divergence = max(
                self.max_divergence, float(divergence.max())
            )
        self.batches += 1
        self.primary_seconds += primary_seconds
        self.shadow_seconds += shadow_seconds

    # ------------------------------------------------------------------ #

    @property
    def agreement_rate(self) -> float:
        """Verdict agreement over every compared event (1.0 when idle)."""
        return self.agreements / self.events if self.events else 1.0

    @property
    def disagreements(self) -> int:
        return self.events - self.agreements

    @property
    def mean_divergence(self) -> float:
        return self.divergence_total / self.events if self.events else 0.0

    @property
    def latency_overhead(self) -> float:
        """Shadow scoring time as a fraction of primary scoring time.

        0.35 means the candidate added 35% on top of production scoring
        — the number the ≤ 2× shadow-mode budget is written against.
        """
        if self.primary_seconds <= 0.0:
            return 0.0
        return self.shadow_seconds / self.primary_seconds

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "batches": self.batches,
            "agreements": self.agreements,
            "agreement_rate": self.agreement_rate,
            "production_only": self.production_only,
            "candidate_only": self.candidate_only,
            "mean_divergence": self.mean_divergence,
            "max_divergence": self.max_divergence,
            "primary_seconds": self.primary_seconds,
            "shadow_seconds": self.shadow_seconds,
            "latency_overhead": self.latency_overhead,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShadowComparison":
        """Rebuild the accumulator from :meth:`as_dict` output (derived
        rates are recomputed, never trusted)."""
        comparison = cls()
        for name in (
            "events", "batches", "agreements",
            "production_only", "candidate_only",
        ):
            setattr(comparison, name, int(data.get(name, 0)))
        comparison.divergence_total = (
            float(data.get("mean_divergence", 0.0)) * comparison.events
        )
        for name in ("max_divergence", "primary_seconds", "shadow_seconds"):
            setattr(comparison, name, float(data.get(name, 0.0)))
        return comparison
