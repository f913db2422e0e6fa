"""Shadow deployment: score a candidate on live traffic, promote safely.

``ShadowRollout`` attaches to a running
:class:`~repro.stream.scanner.StreamScanner` as a scored-batch observer.
For every micro-batch the production model scores, one candidate
:class:`~repro.serve.service.ScanService`, sharing the scanner's
:class:`~repro.serve.cache.FeatureCache`, scores the *identical*
bytecodes. Until :meth:`ShadowRollout.detach` (promote, abort) both
models decode through that cache (:meth:`FeatureCache.attach`), so each
bytecode is decoded once for both; the candidate pays only its own
``predict_proba`` (plus prediction-cache hits under its own
digest-derived namespace), which is what keeps shadow mode inside the
≤ 2× overhead budget ``benchmarks/bench_shadow_rollout.py`` gates.

The paired scores accumulate in a
:class:`~repro.rollout.compare.ShadowComparison`; after each observed
batch the :class:`~repro.rollout.policy.RolloutPolicy` is consulted
(``auto=True``), and its decision is *acted on*:

* **promote** — the ``production`` tag is atomically repointed at the
  candidate version in the :class:`~repro.artifacts.store.ModelStore`
  (when one is attached) and the scanner's service is hot-swapped
  through :meth:`StreamScanner.rollout` using the candidate model this
  rollout already loaded — one artifact read total, zero dropped or
  mis-scored batches (the micro-batch that produced the deciding
  evidence was fully scored and delivered before the observer ran).
* **abort** — the shadow scorer detaches and the production model keeps
  serving untouched; the comparison and reason are retained for the
  post-mortem.
* **hold** — keep shadowing.

Shadow scoring is failure-isolated like alert sinks: an exception inside
the candidate's scoring path is counted (``shadow_errors``) and skipped,
never allowed to take down production detection.
"""

from __future__ import annotations

import time

from repro.rollout.compare import ShadowComparison
from repro.rollout.policy import (
    ABORT,
    HOLD,
    PROMOTE,
    Decision,
    MetricParityPolicy,
    RolloutPolicy,
)
from repro.serve.service import ScanService

__all__ = ["ShadowRollout"]

#: Lifecycle states of one shadow rollout.
SHADOWING = "shadowing"
PROMOTED = "promoted"
ABORTED = "aborted"


class ShadowRollout:
    """Drive one candidate artifact through shadow scoring to a verdict.

    Args:
        scanner: The live :class:`~repro.stream.scanner.StreamScanner`
            serving production traffic. The rollout registers itself as
            an observer on construction.
        source: Candidate artifact — a file path, or (with ``store``) a
            tag / version / prefix; mutually exclusive with ``model``.
        model: A fitted candidate model passed directly (tests, in-process
            experiments). Promotion then cannot retag a store version.
        store: :class:`~repro.artifacts.store.ModelStore` to resolve
            ``source`` against — and the store whose ``production`` tag a
            promotion repoints.
        policy: A :class:`~repro.rollout.policy.RolloutPolicy`; defaults
            to :class:`MetricParityPolicy` with its standard band.
        auto: Evaluate the policy after every observed batch and act on
            its decision. ``False`` accumulates evidence only; call
            :meth:`evaluate` / :meth:`promote` / :meth:`abort` yourself.
        production_tag: Store tag a promotion repoints (default
            ``production``).
        expected_fingerprint: Refuse candidates trained on a different
            dataset (see :func:`repro.artifacts.load_artifact`).
        comparison: Resume from previously accumulated evidence (a
            :class:`ShadowComparison`, e.g. rebuilt from a persisted
            rollout record via ``ShadowComparison.from_dict``) instead
            of starting at zero — how ``phishinghook rollout start``
            accumulates across process boundaries.
        on_decision: Callback invoked with this rollout right after a
            promote or abort completes (state already final, production
            already swapped/untouched). The continuous-learning loop
            uses it to append the verdict to the promotion history and
            re-arm drift detection; exceptions propagate to the caller
            that triggered the decision.

    Thread-safety: observers run synchronously inside the scanner's
    flush, so a rollout shares whatever threading discipline the scanner
    itself has (one flusher at a time); the shared ``FeatureCache`` is
    internally locked.
    """

    def __init__(
        self,
        scanner,
        source=None,
        *,
        model=None,
        store=None,
        policy: RolloutPolicy | None = None,
        auto: bool = True,
        production_tag: str = "production",
        expected_fingerprint: str | None = None,
        comparison: ShadowComparison | None = None,
        on_decision=None,
    ):
        if (source is None) == (model is None):
            raise ValueError(
                "ShadowRollout needs an artifact source or a model"
            )
        self.scanner = scanner
        self.store = store
        self.policy = policy or MetricParityPolicy()
        self.auto = auto
        self.production_tag = production_tag
        self.comparison = comparison if comparison is not None \
            else ShadowComparison()
        self.on_decision = on_decision
        self.state = SHADOWING
        self.last_decision = Decision(HOLD, "no traffic observed yet")
        self.shadow_errors = 0
        self.production_version = getattr(
            scanner.service, "artifact_digest", None
        )

        if source is not None:
            from repro.serve.service import (
                _artifact_namespace,
                _load_artifact_source,
            )

            model, manifest = _load_artifact_source(
                source, store=store, expected_fingerprint=expected_fingerprint
            )
            self.candidate_version = manifest["digest"]
            self.candidate_name = manifest.get("model_name")
            namespace = _artifact_namespace(manifest)
        else:
            self.candidate_version = None
            self.candidate_name = getattr(model, "name", type(model).__name__)
            namespace = None
        # One candidate service scores every micro-batch; prediction rows
        # stay separated by namespace in the scanner's cache.
        self._candidate_service = ScanService(
            self.candidate_name or "candidate",
            model=model,
            cache=scanner.service.cache,
            threshold=scanner.threshold,
            namespace=namespace,
        )
        self._candidate_service.artifact_digest = self.candidate_version
        # Each entry puts one model's previous decoder back on detach.
        cache = scanner.service.cache
        self._restore = [cache.attach(scanner.service.model),
                         cache.attach(model)]
        scanner.add_observer(self)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def observe(self, *, shard, events, results, elapsed_seconds) -> None:
        """Scanner callback: shadow-score one micro-batch."""
        if self.state != SHADOWING:
            return
        started = time.perf_counter()
        try:
            shadow = self._candidate_service.scan_bytecodes(
                [e.code for e in events],
                addresses=[e.address for e in events],
            )
        except Exception:
            # Production detection must survive a broken candidate.
            self.shadow_errors += 1
            return
        self.comparison.record_batch(
            [r.probability for r in results],
            [r.probability for r in shadow],
            self.scanner.threshold,
            primary_seconds=elapsed_seconds,
            shadow_seconds=time.perf_counter() - started,
        )
        if self.auto:
            self.evaluate()

    def evaluate(self) -> Decision:
        """Consult the policy; act on promote/abort when still shadowing."""
        if self.state != SHADOWING:
            return self.last_decision
        decision = self.policy.decide(self.comparison)
        self.last_decision = decision
        if decision.action == PROMOTE:
            self.promote(reason=decision.reason)
        elif decision.action == ABORT:
            self.abort(reason=decision.reason)
        return decision

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #

    def promote(self, reason: str = "operator promotion") -> None:
        """Retag ``production`` at the candidate and swap the scanner.

        The store retag happens first (new processes resolving the tag
        already get the candidate), then the live scanner rolls over via
        :meth:`StreamScanner.rollout` with the model this rollout already
        holds — no second artifact read, one atomic swap, and the
        outgoing prediction namespace invalidated exactly once.
        """
        self._require_shadowing("promote")
        if self.store is not None and self.candidate_version is not None:
            self.store.tag(self.production_tag, self.candidate_version)
        model, namespace = self._candidate_service._serving
        self.scanner.rollout(
            model=model,
            namespace=namespace,
            model_name=self.candidate_name,
            artifact_digest=self.candidate_version,
        )
        self.state = PROMOTED
        self.last_decision = Decision(PROMOTE, reason)
        self.detach()
        if self.on_decision is not None:
            self.on_decision(self)

    def abort(self, reason: str = "operator abort") -> None:
        """Stop shadowing; production serving is untouched."""
        self._require_shadowing("abort")
        self.state = ABORTED
        self.last_decision = Decision(ABORT, reason)
        self.detach()
        if self.on_decision is not None:
            self.on_decision(self)

    def detach(self) -> None:
        """Unregister from the scanner and put each model's previous
        decoder back (idempotent)."""
        self.scanner.remove_observer(self)
        while self._restore:
            restore = self._restore.pop()
            if restore is not None:
                restore()

    def _require_shadowing(self, action: str) -> None:
        if self.state != SHADOWING:
            raise RuntimeError(
                f"cannot {action}: rollout already {self.state}"
            )

    # ------------------------------------------------------------------ #

    def status(self) -> dict:
        """JSON-ready rollout record (state, versions, evidence, policy)."""
        return {
            "state": self.state,
            "production_tag": self.production_tag,
            "production_version": self.production_version,
            "candidate_version": self.candidate_version,
            "candidate_name": self.candidate_name,
            "decision": self.last_decision.action,
            "reason": self.last_decision.reason,
            "shadow_errors": self.shadow_errors,
            "policy": self.policy.describe(),
            "comparison": self.comparison.as_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"ShadowRollout(state={self.state!r}, "
            f"candidate={str(self.candidate_version)[:16]!r}, "
            f"events={self.comparison.events})"
        )
