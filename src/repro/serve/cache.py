"""Content-addressed cache for the scan/serve hot path.

PhishingHook scores a contract from its opcode histogram alone (§III),
and deployed bytecode is heavily duplicated (~57% of the study corpus),
so a served contract needs one cache entry: its probability, keyed by
the *content* (SHA-256 of the normalized bytecode), so hits are
independent of address, batch or request. The cache follows the rule of
incremental QBF solvers: keep state only across queries that reuse it.

A contract's bytecode is normalized and hashed once, where it enters the
serving path: :class:`Code` is a ``bytes`` subclass holding the normalized
bytes and carrying their SHA-256 as ``code.digest``.
:meth:`~repro.serve.service.ScanService.scan_bytecodes` builds one per
contract (a stream scanner builds it at admission) and keys its
prediction lookups by the carried digest. ``bytes`` input is taken as
already normalized everywhere below, so nothing re-normalizes or
re-hashes a ``Code``; any detector that takes ``bytes`` takes one.

Cached values per bytecode:

* one probability per serving model, under its prediction namespace;
* ``"ids"`` — the ``uint8`` mnemonic-ID array of the single-pass decode
  (:meth:`FeatureCache.mnemonic_ids`), only for an attached model
  (:meth:`FeatureCache.attach`). Only a shadow rollout attaches, so its
  candidate reuses the primary's decode of the same micro-batch.

The store is a bounded LRU (``max_entries`` across all namespaces) with
hit/miss/eviction counters. Cached numpy arrays are marked read-only so
a hit can be returned without a defensive copy. The hot path keeps no
per-entry books: a lookup is one store probe, and a put evicts only when
the store is over its bound. Residency (``stats.resident_bytes`` and
``stats.resident_by_namespace``) is counted when it is read, in one pass
over the store under the lock. On a full 8192-entry cache one
``ScanService.stats()`` read costs a few milliseconds on a 2-vCPU VM,
and concurrent lookups and puts wait for it: read stats on demand, not
per batch.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.evm.disassembler import decode_mnemonic_ids, normalize_bytecode

__all__ = ["CacheStats", "Code", "FeatureCache", "bytecode_digest"]

#: Namespace under which decoded mnemonic-ID arrays are stored.
IDS_NAMESPACE = "ids"

_ABSENT = object()


def bytecode_digest(bytecode: bytes | bytearray | str) -> bytes:
    """SHA-256 digest of the normalized bytecode — the cache address.

    ``bytes`` input is hashed as it is; hex strings and ``bytearray`` are
    normalized first.
    """
    if not isinstance(bytecode, bytes):
        bytecode = normalize_bytecode(bytecode)
    return hashlib.sha256(bytecode).digest()


class Code(bytes):
    """Normalized bytecode that carries its SHA-256 digest (``.digest``).

    ``Code(bytecode)`` normalizes and hashes once; a ``Code`` passed in
    is returned unchanged. Being ``bytes``, it goes wherever raw bytecode
    does.

    Raises:
        DisassemblyError: If a string input is not valid hex.
    """

    digest: bytes

    def __new__(cls, bytecode: bytes | bytearray | str) -> "Code":
        if isinstance(bytecode, Code):
            return bytecode
        raw = normalize_bytecode(bytecode)
        code = bytes.__new__(cls, raw)
        code.digest = bytecode_digest(raw)
        return code


def _value_bytes(value) -> int:
    """Estimated payload size of one cached value.

    ``nbytes`` for arrays, ``len`` for byte strings, and a small flat
    charge for anything opaque — an *estimate* for capacity planning
    (fleet status, eviction tuning), not an allocator audit.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return 64


def _residency(store, lock) -> dict[str, tuple[int, int]]:
    """``{namespace: (entries, estimated bytes)}`` over ``store``.

    Only the copy of the items holds the lock; sizing them runs outside
    it, so lookups and puts wait for the copy, not for the count.
    """
    with lock:
        items = list(store.items())
    rows: dict[str, list[int]] = {}
    for (namespace, _digest), value in items:
        row = rows.get(namespace)
        if row is None:
            row = rows[namespace] = [0, 0]
        row[0] += 1
        row[1] += _value_bytes(value)
    return {namespace: (n, total) for namespace, (n, total) in rows.items()}


@dataclass
class CacheStats:
    """Hit/miss/eviction counters plus resident-size estimates.

    ``by_namespace`` keeps its historical ``(hits, misses)`` tuple
    shape. Residency — ``resident_bytes`` and ``resident_by_namespace``
    as ``(entries, bytes)`` — is counted from the owning
    :class:`FeatureCache`'s store on each read (``residency``), not
    kept up on every insert and eviction.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    by_namespace: dict[str, tuple[int, int]] = field(default_factory=dict)
    residency: Callable[[], dict[str, tuple[int, int]]] = field(
        default=dict, repr=False, compare=False
    )

    @property
    def resident_by_namespace(self) -> dict[str, tuple[int, int]]:
        return self.residency()

    @property
    def resident_bytes(self) -> int:
        return sum(total for _n, total in self.residency().values())

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        resident = self.residency()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "resident_bytes": sum(total for _n, total in resident.values()),
            "by_namespace": {
                ns: {
                    "hits": h,
                    "misses": m,
                    "entries": resident.get(ns, (0, 0))[0],
                    "resident_bytes": resident.get(ns, (0, 0))[1],
                }
                for ns, (h, m) in sorted(self.by_namespace.items())
            },
        }


class FeatureCache:
    """Bounded content-addressed LRU over per-bytecode computed values.

    Args:
        max_entries: LRU bound across all namespaces (each cached value —
            a probability or an ID array — is one entry).
    """

    def __init__(self, max_entries: int = 8192):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: "OrderedDict[tuple[str, bytes], object]" = OrderedDict()
        # Serving is concurrent (fleet handler threads, hot swaps); every
        # store mutation and probe holds this lock. Feature computation
        # itself stays outside the lock.
        self._lock = threading.RLock()
        self.stats = CacheStats(
            residency=partial(_residency, self._store, self._lock)
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        """Drop every entry (hit/miss/eviction counters are kept)."""
        with self._lock:
            self._store.clear()

    def resize(self, max_entries: int) -> int:
        """Change the LRU bound at runtime; evicts down to it immediately.

        Returns the number of entries evicted. Lowering the bound on a
        live service (hot-swap reconfiguration) takes effect here and is
        *maintained* by :meth:`put`, whose eviction loop re-establishes
        the bound even when it shrank between inserts.
        """
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        with self._lock:
            self.max_entries = max_entries
            return self._evict_over_bound()

    def invalidate_namespace(self, namespace: str) -> int:
        """Drop every entry of one namespace; returns how many.

        Hot-swapping a model must invalidate *its* prediction rows while
        leaving every other namespace untouched — this is the surgical
        tool :meth:`ScanService.swap_model` uses.
        """
        with self._lock:
            doomed = [key for key in self._store if key[0] == namespace]
            for key in doomed:
                del self._store[key]
            # Counted separately from capacity evictions: an invalidation
            # is a correctness event (stale rows dropped on promotion),
            # not an LRU pressure signal.
            self.stats.invalidations += len(doomed)
            return len(doomed)

    # ------------------------------------------------------------------ #

    def get(
        self,
        namespace: str,
        bytecode: bytes | bytearray | str,
        compute: Callable[[bytes], object],
    ):
        """Return the cached value for (namespace, bytecode), computing on miss.

        ``compute`` receives the normalized bytecode. Numpy results are
        stored read-only; callers must not mutate returned arrays. A
        :class:`Code` is looked up by the digest it carries; any other
        input is made a ``Code`` here, normalized and hashed once.
        """
        code = Code(bytecode)
        hit, value = self.lookup(namespace, code.digest)
        if hit:
            return value
        value = compute(code)
        self.put(namespace, code.digest, value)
        return value

    def lookup(self, namespace: str, digest: bytes) -> tuple[bool, object]:
        """Stats-recording probe by precomputed digest: ``(hit, value)``.

        The building block for batch flows that want to compute all misses
        in one call (see :meth:`ScanService.scan_bytecodes`) instead of the
        one-at-a-time :meth:`get` protocol.
        """
        key = (namespace, digest)
        stats = self.stats
        with self._lock:
            value = self._store.get(key, _ABSENT)
            hits, misses = stats.by_namespace.get(namespace, (0, 0))
            if value is _ABSENT:
                stats.misses += 1
                stats.by_namespace[namespace] = (hits, misses + 1)
                return False, None
            self._store.move_to_end(key)
            stats.hits += 1
            stats.by_namespace[namespace] = (hits + 1, misses)
            return True, value

    def put(self, namespace: str, digest: bytes, value) -> None:
        """Insert a computed value at (namespace, digest), evicting LRU.

        Eviction loops until the bound holds: ``max_entries`` may have
        been *lowered* since the last insert (live reconfiguration via
        :meth:`resize` or direct assignment), so a single pop is not
        enough to re-establish the invariant.
        """
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        key = (namespace, digest)
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            if len(self._store) > self.max_entries:
                self._evict_over_bound()

    def _evict_over_bound(self) -> int:
        """Pop LRU entries until ``len <= max_entries`` (lock held)."""
        evicted = 0
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def mnemonic_ids(self, bytecode: bytes | bytearray | str) -> np.ndarray:
        """Cached single-pass decode to the ``uint8`` mnemonic-ID array.

        The decoder :meth:`attach` installs; a :class:`Code` is looked up
        by the digest it carries.
        """
        return self.get(IDS_NAMESPACE, bytecode, decode_mnemonic_ids)

    # ------------------------------------------------------------------ #

    def attach(self, model):
        """Decode a model's bytecode through :meth:`mnemonic_ids`.

        Any model exposing ``use_feature_cache`` (the HSC detectors do)
        is attached. Returns a callable that puts the model's previous
        decoder back, or ``None`` for a model without the hook.
        """
        hook = getattr(model, "use_feature_cache", None)
        return None if hook is None else hook(self)
