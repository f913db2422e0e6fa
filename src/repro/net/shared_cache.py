"""Host-wide shared feature cache: decode once, serve every worker.

PhishingHook scores a contract from its bytecode alone, so the only
per-contract payload a fleet worker needs is the bytecode plus,
optionally, its decoded ``uint8`` mnemonic ids. :class:`ShmFeatureCache`
keeps both in a digest-keyed table in one ``multiprocessing.shared_memory``
segment where each unique bytecode lands **once per host**. Requests then
carry only ``(slot, code_len, ids_len)`` references; any worker —
including one that has never seen the contract — reads the bytes
straight off the mapped pages.

The geometry is fixed: :data:`SLOTS` entries of :data:`SLOT_BYTES`
each, which holds one EIP-170-capped contract plus its ids (at most one
id byte per code byte).

Concurrency model:

* **Single writer.** Only the creating (coordinator) process stores or
  evicts entries; attached workers are strictly readers. All index
  state — digest map, LRU order, pin counts — lives coordinator-side,
  so there is no cross-process locking at all.
* **Pin leases, response-fenced.** A request that references an entry
  pins its slot; the coordinator unpins after the worker's HTTP
  exchange (success or not). Eviction skips pinned slots, so a reader
  can never observe a slot being rewritten under it. A pin left behind
  is a leak — :meth:`audit` reports outstanding pins so tests can
  assert the fleet returned every lease.
* **LRU eviction, graceful fallback.** A full table (or an entry larger
  than one slot) is never fatal: :meth:`store` returns ``None`` and the
  coordinator ships that bytecode inline instead, counted.
* **Creator-only unlink.** Attaching under ``spawn`` unregisters the
  segment from the worker's private ``resource_tracker`` and
  :meth:`unlink` is pid-guarded, so a worker exit cannot tear down the
  live segment. The creator registers an ``atexit`` unlink, covering
  abnormal-exit cleanup.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "EIP170_MAX_CODE_BYTES",
    "SLOTS",
    "SLOT_BYTES",
    "ShmFeatureCache",
    "SharedEntry",
]

#: EIP-170 contract-code size cap: the largest bytecode one scan row
#: can carry.
EIP170_MAX_CODE_BYTES = 24_576

#: Entry slots in the host-wide table.
SLOTS = 256

#: Bytes per slot: a worst-case ``[code][ids]`` entry (decoded ids are
#: at most one byte per code byte).
SLOT_BYTES = 2 * EIP170_MAX_CODE_BYTES


class SharedEntry(tuple):
    """``(slot, code_len, ids_len)`` reference into the shared table."""

    __slots__ = ()

    def __new__(cls, slot: int, code_len: int, ids_len: int):
        return super().__new__(cls, (slot, code_len, ids_len))

    @property
    def slot(self) -> int:
        return self[0]

    @property
    def code_len(self) -> int:
        return self[1]

    @property
    def ids_len(self) -> int:
        return self[2]


class ShmFeatureCache:
    """Digest-keyed ``[code][ids]`` slots in shared memory; see module docs.

    Construct through :meth:`create` (coordinator) or :meth:`attach`
    (workers); only the segment name travels in the
    :class:`~repro.net.worker.WorkerSpec`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 slot_bytes: int, *, owner: bool):
        if slots < 1 or slot_bytes < 1:
            raise ValueError(
                "shared cache needs positive slots and slot_bytes"
            )
        self._shm = shm
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.owner = owner
        self._owner_pid = os.getpid() if owner else None
        self._lock = threading.Lock()
        self._closed = False
        self._unlinked = False
        # Owner-side index. _entries maps digest -> SharedEntry in LRU
        # order (oldest first); _pins counts outstanding leases per slot.
        self._entries: "OrderedDict[bytes, SharedEntry]" = OrderedDict()
        self._free: list[int] = list(range(slots)) if owner else []
        self._pins: dict[int, int] = {}
        self._counters = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "too_large": 0,
            "full": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, slots: int = SLOTS,
               slot_bytes: int = SLOT_BYTES) -> "ShmFeatureCache":
        """Allocate a fresh table; the caller owns (and unlinks) it."""
        shm = shared_memory.SharedMemory(
            create=True, size=slots * slot_bytes
        )
        cache = cls(shm, slots, slot_bytes, owner=True)
        atexit.register(cache.unlink)
        return cache

    @classmethod
    def attach(cls, name: str, slots: int = SLOTS,
               slot_bytes: int = SLOT_BYTES) -> "ShmFeatureCache":
        """Map an existing table read-only (worker side)."""
        shm = shared_memory.SharedMemory(name=name)
        # Python 3.11 registers attached segments with the resource
        # tracker exactly like created ones. Under fork every process
        # shares the creator's tracker and the registration is
        # idempotent — leave it alone, so the tracker still cleans up
        # after a SIGKILLed coordinator. Under spawn the attaching
        # process has a private tracker that would unlink the
        # coordinator's live segment on worker exit; unregister there.
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals
                pass
        return cls(shm, slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        """OS name of the segment (what :meth:`attach` needs)."""
        return self._shm.name

    def close(self) -> None:
        """Unmap this process's view; idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a live view pins the map
            self._closed = False

    def unlink(self) -> None:
        """Destroy the segment (creator process only; idempotent)."""
        if not self.owner or os.getpid() != self._owner_pid:
            return
        self.close()
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ #
    # Owner side: lookup, store, leases, eviction
    # ------------------------------------------------------------------ #

    def _require_owner(self) -> None:
        if not self.owner:
            raise RuntimeError(
                "only the creating process mutates the shared cache"
            )

    def pin(self, digest: bytes) -> SharedEntry | None:
        """Look up ``digest``; on a hit, lease its slot and return the
        entry (bumping LRU recency). ``None`` on miss — the caller
        decodes and calls :meth:`store`."""
        self._require_owner()
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self._counters["misses"] += 1
                return None
            self._entries.move_to_end(digest)
            self._pins[entry.slot] = self._pins.get(entry.slot, 0) + 1
            self._counters["hits"] += 1
            return entry

    def store(self, digest: bytes, code: bytes,
              ids: np.ndarray | bytes) -> SharedEntry | None:
        """Write ``[code][ids]`` into a slot and return a pinned entry.

        Returns ``None`` (counted, never fatal) when the payload exceeds
        one slot or every slot is pinned by in-flight requests — the
        caller ships the bytecode inline instead. Storing a digest
        that raced in through another thread pins the existing entry.
        """
        self._require_owner()
        code = bytes(code)
        ids_view = memoryview(ids).cast("B")
        total = len(code) + len(ids_view)
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                self._pins[entry.slot] = self._pins.get(entry.slot, 0) + 1
                self._counters["hits"] += 1
                return entry
            if total > self.slot_bytes:
                self._counters["too_large"] += 1
                return None
            slot = self._claim_slot_locked()
            if slot is None:
                self._counters["full"] += 1
                return None
            base = slot * self.slot_bytes
            view = self._shm.buf
            view[base:base + len(code)] = code
            view[base + len(code):base + total] = ids_view
            entry = SharedEntry(slot, len(code), len(ids_view))
            self._entries[digest] = entry
            self._pins[slot] = self._pins.get(slot, 0) + 1
            self._counters["stores"] += 1
            return entry

    def _claim_slot_locked(self) -> int | None:
        """A free slot, evicting the LRU unpinned entry if needed."""
        if self._free:
            return self._free.pop()
        for digest, entry in self._entries.items():
            if self._pins.get(entry.slot, 0) == 0:
                del self._entries[digest]
                self._counters["evictions"] += 1
                return entry.slot
        return None

    def unpin(self, slot: int) -> None:
        """Release one lease on ``slot`` (after the HTTP exchange)."""
        self._require_owner()
        with self._lock:
            count = self._pins.get(slot, 0)
            if count <= 0:
                raise ValueError(f"slot {slot} is not pinned")
            if count == 1:
                del self._pins[slot]
            else:
                self._pins[slot] = count - 1

    def audit(self) -> dict:
        """Lease-leak report: outstanding pins per slot (empty when every
        request released its leases — the invariant tests assert)."""
        self._require_owner()
        with self._lock:
            return {slot: count for slot, count in self._pins.items()
                    if count > 0}

    def stats(self) -> dict:
        """Counters + occupancy, JSON-ready (surfaced by fleet status)."""
        with self._lock:
            resident = sum(
                e.code_len + e.ids_len for e in self._entries.values()
            )
            return {
                **self._counters,
                "entries": len(self._entries),
                "pinned_slots": sum(
                    1 for c in self._pins.values() if c > 0
                ),
                "resident_bytes": resident,
                "slots": self.slots,
                "slot_bytes": self.slot_bytes,
            }

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #

    def read(self, slot: int, code_len: int,
             ids_len: int) -> tuple[bytes, np.ndarray]:
        """``(code, ids_view)`` for one referenced entry.

        The code is copied out (it is small and outlives nothing); the
        ids block is a zero-copy read-only ``uint8`` view valid only
        until the coordinator's lease is released — anything that must
        outlive the request (a worker cache seed) copies first.
        """
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range")
        if code_len < 0 or ids_len < 0:
            raise ValueError("entry lengths must be non-negative")
        total = code_len + ids_len
        if total > self.slot_bytes:
            raise ValueError(
                f"entry length {total} exceeds slot capacity "
                f"{self.slot_bytes}"
            )
        base = slot * self.slot_bytes
        code = bytes(self._shm.buf[base:base + code_len])
        ids = np.frombuffer(
            self._shm.buf, dtype=np.uint8, count=ids_len,
            offset=base + code_len,
        )
        ids.flags.writeable = False
        return code, ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        return (f"ShmFeatureCache({self.name!r}, slots={self.slots}, "
                f"slot_bytes={self.slot_bytes}, {role})")
