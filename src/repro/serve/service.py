"""Batched scan service: fit once, serve many scans.

The seed facade (`PhishingHook.classify_address`) retrained a model from
scratch on every call — fine for a demo, fatal for a service. ``ScanService``
holds one fitted model and answers ``scan_bytecodes`` / ``scan_many``
against it, with three layers of work-sharing:

1. **in-batch dedup** — each distinct bytecode in a request is classified
   once (the §III dedup step applied at serve time),
2. **prediction cache** — per-model probability rows are content-addressed
   in the :class:`~repro.serve.cache.FeatureCache`, so a bytecode seen in
   any earlier request costs one SHA-256 and a dict hit,
3. **feature cache** — on a prediction miss, the model's extractors decode
   through the same cache, so even novel bytecodes reuse decoded
   mnemonic-ID / token-code arrays across models sharing the cache.

Below all three sits the flat inference engine (:mod:`repro.ml.flat`):
ensemble models are compiled to stacked node arrays at fit/attach time
(``stats()["flat_compiled"]``), so the cold path — a genuinely novel
batch missing every cache — is vectorized level-synchronous descent, not
a per-row Python traversal.

Since the artifact layer (:mod:`repro.artifacts`) landed, in-process
training is the *fallback*, not the norm: :meth:`ScanService.from_artifact`
cold-starts a service from persisted bytes in milliseconds, and
:meth:`ScanService.swap_model` hot-swaps a new version under live
traffic. The service keeps its entire serving identity in one
``(model, namespace)`` tuple read atomically per batch, so an in-flight
batch always scores and caches under a *consistent* pair — a swap never
drops or mis-scores it — and the swap invalidates only the outgoing
model's prediction namespace in the shared :class:`FeatureCache`,
leaving decoded-feature namespaces warm for the incoming version.

Thread-safety: ``scan_bytecodes`` may run concurrently with
``swap_model`` / ``swap_from_artifact`` (the single-tuple snapshot is
the synchronization point, and the shared :class:`FeatureCache` locks
internally); per-service counters (``scanned``, ``swaps``) are
best-effort under concurrency — use :meth:`sharded` views for per-worker
accounting. The shadow-rollout subsystem (:mod:`repro.rollout`) builds
directly on these semantics: candidate services share the cache, and a
promotion is one more atomic swap per shard.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.chain.rpc import NoCodeError
from repro.evm.disassembler import normalize_bytecode
from repro.ml.flat import precompile
from repro.serve.cache import FeatureCache, bytecode_digest

__all__ = ["ScanResult", "ScanService"]

_PREFIT_TOKENS = itertools.count()


def _artifact_namespace(manifest: dict) -> str:
    """Prediction namespace derived from an artifact's content digest.

    Stable across processes and machines: every service serving the same
    artifact version shares prediction-cache hits, and two versions never
    collide.
    """
    return f"pred:artifact:{manifest['digest']}"


def _load_artifact_source(
    source, store=None, expected_fingerprint=None, mmap_mode=None
):
    """Resolve (model, manifest) from a path or a store tag/version."""
    if store is not None:
        return store.load(
            source,
            expected_fingerprint=expected_fingerprint,
            mmap_mode=mmap_mode,
        )
    from repro.artifacts import load_artifact

    return load_artifact(
        source,
        expected_fingerprint=expected_fingerprint,
        mmap_mode=mmap_mode,
    )


@dataclass(frozen=True)
class ScanResult:
    """Verdict for one scanned contract."""

    address: str
    is_phishing: bool
    probability: float
    from_cache: bool = False


class ScanService:
    """One fitted model serving batched phishing scans.

    Args:
        model_name: Registry name used when ``model`` is not given.
        model: A pre-fitted detector; skips training entirely.
        train_dataset: Training data for the lazily-fitted model
            (required unless ``model`` is given).
        rpc: ``eth_getCode``-capable client; required for
            :meth:`scan_many` over addresses.
        cache: Shared :class:`FeatureCache`; a private one is created when
            omitted.
        seed: Seed for the lazily-created model.
        threshold: Probability cut-off for the phishing verdict.
        namespace: Prediction-cache namespace for a pre-fitted ``model``.
            Services sharing a cache reuse each other's predictions iff
            they share a namespace, so pass a stable one (see
            :meth:`prediction_namespace`) when the same fitted model is
            wrapped repeatedly; omitted, each pre-fitted service gets a
            private namespace. Ignored when the model is fitted lazily
            (the namespace then derives from the training data).
        attach_cache: Point a pre-fitted ``model``'s feature extractors
            at this service's cache (the default). Pass ``False`` when
            wrapping a *borrowed* model whose existing cache wiring must
            not be silently re-pointed; the prediction cache still works
            either way. Lazily-fitted models (owned by the service) are
            always attached.
    """

    def __init__(
        self,
        model_name: str = "Random Forest",
        *,
        model=None,
        train_dataset=None,
        rpc=None,
        cache: FeatureCache | None = None,
        seed: int = 0,
        threshold: float = 0.5,
        namespace: str | None = None,
        attach_cache: bool = True,
    ):
        if model is None and train_dataset is None:
            raise ValueError("need either a pre-fitted model or train_dataset")
        self.model_name = model_name
        self.train_dataset = train_dataset
        self.rpc = rpc
        self.cache = cache if cache is not None else FeatureCache()
        self.seed = seed
        self.threshold = threshold
        self.scanned = 0
        # The serving identity is ONE tuple: (model, prediction namespace).
        # Batches snapshot it in a single attribute read, so a concurrent
        # swap_model() can never pair an old model with a new namespace
        # (or vice versa) inside a batch.
        self._serving: tuple[object, str] | None = None
        self._attach_cache = attach_cache
        self.flat_compiled = 0
        self.swaps = 0
        self.artifact_digest: str | None = None
        if model is not None:
            resolved = namespace or (
                f"pred:{model_name}:prefit{next(_PREFIT_TOKENS)}"
            )
            if attach_cache:
                self.cache.attach(model)
            # Pay the (cheap) flat-array compilation now, not inside the
            # first scanned batch — cold-path scans hit the vectorized
            # inference engine immediately.
            self.flat_compiled = precompile(model)
            self._serving = (model, resolved)
        self.fit_seconds = 0.0

    @staticmethod
    def prediction_namespace(
        model_name: str, seed: int, fingerprint: str
    ) -> str:
        """The stable prediction-cache namespace for one trained model."""
        return f"pred:{model_name}:s{seed}:{fingerprint}"

    @classmethod
    def from_artifact(
        cls,
        source,
        *,
        store=None,
        rpc=None,
        cache: FeatureCache | None = None,
        threshold: float = 0.5,
        attach_cache: bool = True,
        expected_fingerprint: str | None = None,
        mmap_mode: str | None = None,
    ) -> "ScanService":
        """Cold-start a service from a persisted model artifact.

        Args:
            source: Artifact file path — or, with ``store``, a tag /
                version / version prefix resolved against it.
            store: Optional :class:`~repro.artifacts.ModelStore`.
            expected_fingerprint: Refuse artifacts trained on a different
                dataset (raises
                :class:`~repro.artifacts.FingerprintMismatchError`).
            mmap_mode: ``"r"`` serves the model's node arrays as
                read-only memory maps of the artifact (or of the
                store's stored-layout spool) instead of heap copies —
                the zero-copy cold start. Every worker process mapping
                the same version shares one set of physical pages.

        The prediction namespace derives from the artifact's content
        digest, so every process serving this version — across restarts
        and machines — shares prediction-cache semantics, and loading is
        the whole cost: no training, no flat recompilation (ensembles
        persist pre-compiled).
        """
        model, manifest = _load_artifact_source(
            source,
            store=store,
            expected_fingerprint=expected_fingerprint,
            mmap_mode=mmap_mode,
        )
        service = cls(
            manifest.get("model_name") or "artifact",
            model=model,
            rpc=rpc,
            cache=cache,
            threshold=threshold,
            namespace=_artifact_namespace(manifest),
            attach_cache=attach_cache,
        )
        service.artifact_digest = manifest["digest"]
        return service

    # ------------------------------------------------------------------ #

    @property
    def model(self):
        """The fitted detector (training it on first use)."""
        self.ensure_fitted()
        return self._serving[0]

    @property
    def _model(self):
        """The currently served model or ``None`` (no side effects) —
        also the hook :func:`repro.ml.flat.precompile` walks."""
        return self._serving[0] if self._serving is not None else None

    def ensure_fitted(self) -> "ScanService":
        """Train the model once; every scan after this reuses it."""
        if self._serving is not None:
            return self
        from repro.core.registry import create_model

        model = create_model(self.model_name, seed=self.seed)
        self.cache.attach(model)
        started = time.perf_counter()
        model.fit(self.train_dataset.bytecodes, self.train_dataset.labels)
        # Flat compilation is part of making the model servable: compile
        # inside the fit accounting so scans never pay it.
        self.flat_compiled = precompile(model)
        self.fit_seconds = time.perf_counter() - started
        self._serving = (
            model,
            self.prediction_namespace(
                self.model_name, self.seed, self.train_dataset.fingerprint()
            ),
        )
        return self

    # ------------------------------------------------------------------ #
    # Hot swap
    # ------------------------------------------------------------------ #

    def swap_model(
        self,
        model,
        *,
        namespace: str | None = None,
        model_name: str | None = None,
        artifact_digest: str | None = None,
        invalidate: bool = True,
    ) -> "ScanService":
        """Atomically replace the served model under live traffic.

        The new ``(model, namespace)`` pair becomes visible in one
        assignment; batches already in flight finish on the snapshot they
        took — scored by the old model, cached under the old namespace —
        so nothing is dropped or mis-scored. Afterwards the *old* model's
        prediction namespace is invalidated in the shared cache
        (``invalidate=False`` for callers coordinating several shard
        views that share one namespace, who invalidate once themselves).
        Feature namespaces (decoded IDs, token codes) survive: the new
        version reuses them immediately.
        """
        if model is None:
            raise ValueError("swap_model needs a fitted model")
        resolved = namespace or (
            f"pred:{model_name or self.model_name}:"
            f"prefit{next(_PREFIT_TOKENS)}"
        )
        if self._attach_cache:
            self.cache.attach(model)
        self.flat_compiled = precompile(model)
        previous = self._serving
        self._serving = (model, resolved)  # the atomic handover
        # The digest describes the *served* version: set for artifact
        # swaps, cleared for direct-model swaps (stats must never report
        # an artifact that is no longer live).
        self.artifact_digest = artifact_digest
        if model_name is not None:
            self.model_name = model_name
        self.swaps += 1
        if (
            invalidate
            and previous is not None
            and previous[1] != resolved
        ):
            self.cache.invalidate_namespace(previous[1])
        return self

    def swap_from_artifact(
        self,
        source,
        *,
        store=None,
        expected_fingerprint: str | None = None,
        invalidate: bool = True,
    ) -> "ScanService":
        """Hot-swap to a persisted version (path or store tag/version)."""
        model, manifest = _load_artifact_source(
            source, store=store, expected_fingerprint=expected_fingerprint
        )
        return self.swap_model(
            model,
            namespace=_artifact_namespace(manifest),
            model_name=manifest.get("model_name"),
            artifact_digest=manifest["digest"],
            invalidate=invalidate,
        )

    def sharded(self, n: int) -> list["ScanService"]:
        """``n`` shard views of this service for partitioned workers.

        Each view wraps the *same* fitted model, feature cache and
        prediction-cache namespace — predictions stay bit-identical and
        any shard's cache fill serves every other shard — but keeps its
        own ``scanned`` counter, so per-worker load is observable. Fitting
        happens here (once) if it hasn't already.

        ``sharded(1)`` still returns a fresh view, so a caller embedding
        the shards (e.g. ``repro.stream.StreamScanner``) gets counters
        isolated from direct use of the parent service.
        """
        if n < 1:
            raise ValueError("shard count must be positive")
        self.ensure_fitted()
        model, namespace = self._serving
        return [
            ScanService(
                self.model_name,
                model=model,
                rpc=self.rpc,
                cache=self.cache,
                seed=self.seed,
                threshold=self.threshold,
                namespace=namespace,
                attach_cache=self._attach_cache,
            )
            for _ in range(n)
        ]

    # ------------------------------------------------------------------ #

    def scan_bytecodes(
        self, bytecodes: list[bytes], addresses: list[str] | None = None
    ) -> list[ScanResult]:
        """Classify a batch of bytecodes, deduped and served via the cache.

        Distinct bytecodes not in the prediction cache are classified in a
        single ``predict_proba`` call; everything else is a cache hit.
        """
        self.ensure_fitted()
        # One snapshot for the whole batch: a concurrent swap_model()
        # cannot split this batch across versions or cache namespaces.
        model, namespace = self._serving
        if addresses is None:
            addresses = [""] * len(bytecodes)
        if len(addresses) != len(bytecodes):
            raise ValueError("addresses/bytecodes length mismatch")
        bytecodes = [normalize_bytecode(code) for code in bytecodes]
        digests = [bytecode_digest(code) for code in bytecodes]

        probability: dict[bytes, float] = {}
        miss_codes: list[bytes] = []
        miss_digests: list[bytes] = []
        for digest, code in zip(digests, bytecodes):
            if digest in probability:
                continue
            hit, value = self.cache.lookup(namespace, digest)
            if hit:
                probability[digest] = value
            else:
                probability[digest] = np.nan  # placeholder until predicted
                miss_codes.append(code)
                miss_digests.append(digest)
        if miss_codes:
            fresh = model.predict_proba(miss_codes)[:, 1]
            for digest, p in zip(miss_digests, fresh):
                probability[digest] = float(p)
                self.cache.put(namespace, digest, float(p))

        self.scanned += len(bytecodes)
        # Only the first occurrence of a predicted-this-call bytecode is
        # "fresh"; repeats in the same batch were served by dedup.
        fresh = set(miss_digests)
        results = []
        for address, digest in zip(addresses, digests):
            first_fresh = digest in fresh
            fresh.discard(digest)
            results.append(
                ScanResult(
                    address=address,
                    is_phishing=probability[digest] >= self.threshold,
                    probability=probability[digest],
                    from_cache=not first_fresh,
                )
            )
        return results

    def scan_many(self, addresses: list[str]) -> list[ScanResult]:
        """Resolve each address over RPC and classify the batch.

        Raises:
            RuntimeError: If the service has no RPC client.
            NoCodeError: If an address has no deployed code.
        """
        if self.rpc is None:
            raise RuntimeError("ScanService was built without an rpc client")
        bytecodes = []
        for address in addresses:
            code = self.rpc.get_code(address)
            if not code:
                raise NoCodeError(address)
            bytecodes.append(code)
        return self.scan_bytecodes(bytecodes, addresses=addresses)

    def scan(self, address: str) -> ScanResult:
        """Single-address convenience wrapper over :meth:`scan_many`."""
        return self.scan_many([address])[0]

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Service + cache counters, JSON-ready."""
        return {
            "model": self.model_name,
            "fitted": self._serving is not None,
            "fit_seconds": self.fit_seconds,
            "flat_compiled": self.flat_compiled,
            "scanned": self.scanned,
            "swaps": self.swaps,
            "artifact_digest": self.artifact_digest,
            "cache_entries": len(self.cache),
            **self.cache.stats.as_dict(),
        }
