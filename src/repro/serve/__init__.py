"""Serve layer: batched scanning over a content-addressed feature cache.

The paper's pipeline is campaign-shaped — crawl, train, evaluate, discard.
This subpackage is the complementary *service* shape the ROADMAP's north
star asks for: fit once, then answer a stream of "is this contract
phishing?" queries as fast as the hardware allows.

Components
----------

* :class:`~repro.serve.cache.Code` — one contract's normalized bytecode
  (a ``bytes`` subclass) carrying its SHA-256 as ``code.digest``. Built
  once where bytecode enters serving; the prediction lookup and the
  disassembler read it without normalizing or hashing again, and any
  detector taking ``bytes`` takes it.
* :class:`~repro.serve.cache.FeatureCache` — bounded LRU keyed by SHA-256
  of the normalized bytecode. Serving stores one probability per
  contract and model; while a shadow rollout is attached it also stores
  the disassembler's ``uint8`` mnemonic-ID arrays, which the candidate
  reads back. Exposes hit/miss/eviction counters (``cache.stats``);
  residency (entries and estimated bytes per namespace) is counted from
  the store when read, not kept up per entry.
* :class:`~repro.serve.service.ScanService` — one fitted model +
  ``scan_bytecodes`` / ``scan_many`` batch entry points with in-batch
  dedup and cache-served repeat queries.

Design notes
------------

Deployed bytecode is heavily duplicated (§III: the study corpus shrinks
~57% under dedup), so keying work by *content* rather than by address or
request makes the steady-state cost of a scan one hash plus one dict
probe, and the hash is taken once per contract, into its ``Code``.

Cache knobs
-----------

* ``FeatureCache(max_entries=...)`` — LRU bound across all namespaces
  (default 8192 entries; one entry is one probability, or one decoded
  array while a shadow is attached).
* ``ScanService(cache=...)`` — pass a shared cache to pool work across
  services/models; omit for a private one.
* ``ScanService(threshold=...)`` — phishing verdict cut-off (default 0.5).
* CLI: ``phishinghook scan addr1 addr2 ...`` answers with one
  ``scan_many`` call and prints the cache statistics after the batch.

Artifacts and hot swap
----------------------

With the artifact layer (:mod:`repro.artifacts`) the normal production
entry point is a persisted model, not an in-process fit:

* ``ScanService.from_artifact(path_or_ref, store=...)`` — millisecond
  cold start; the prediction-cache namespace derives from the artifact's
  content digest, so every process serving one version shares semantics.
* ``service.swap_model(model)`` / ``swap_from_artifact(ref)`` — replace
  the served version under live traffic. The serving identity is one
  ``(model, namespace)`` tuple read atomically per batch, so in-flight
  batches finish consistently; only the outgoing prediction namespace is
  invalidated (``FeatureCache.invalidate_namespace``).
* ``FeatureCache.resize(n)`` — live LRU-bound reconfiguration; ``put``
  re-establishes the bound even when it shrank between inserts.

Entry points
------------

>>> from repro.serve import FeatureCache, ScanService   # doctest: +SKIP
>>> service = ScanService.from_artifact("production", store=store)
>>> results = service.scan_many(addresses)              # doctest: +SKIP

``phishinghook scan`` builds its service this way, from the same
checked deployment config ``monitor`` launches from.
"""

from repro.serve.cache import CacheStats, Code, FeatureCache, bytecode_digest
from repro.serve.service import ScanResult, ScanService

__all__ = [
    "CacheStats",
    "Code",
    "FeatureCache",
    "bytecode_digest",
    "ScanResult",
    "ScanService",
]
