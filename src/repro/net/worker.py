"""Fleet worker: one ``ScanService`` process behind a private HTTP port.

A worker is deliberately boring: it cold-starts a
:class:`~repro.serve.service.ScanService` from the ModelStore (exactly
the artifact path every other serving surface uses), splits it into
``shards`` in-process views partitioned by the same crc32 address hash
as the streaming scanner, and answers ``POST /scan`` on a loopback
port it binds itself (port 0 → the kernel picks; the bound port travels
back to the coordinator over a pipe). All fleet intelligence —
sharding, admission control, rerouting — lives in the coordinator; a
worker that dies takes nothing with it but its own in-flight batch,
which the coordinator re-sends elsewhere.

Feature handoff: requests reference entries of the host-wide
:class:`~repro.net.shared_cache.ShmFeatureCache` (``shared_refs``):
those bytecodes and ids blocks never travel at all — any worker,
including one scanning a contract for the first time, reads them
straight out of the shared table and seeds its
:class:`~repro.serve.cache.FeatureCache` ``"ids"`` namespace from them
(copying only on first sight — cache entries must outlive the pin
lease), so the model's extractors hit warm decoded features without the
worker ever disassembling anything the coordinator already decoded.
Every other bytecode arrives inline as hex (``inline_codes``).

Endpoints:

* ``GET /healthz`` — liveness (used by ``fleet start`` readiness polls),
* ``GET /status`` — per-worker counters + service/cache stats,
* ``POST /scan`` — scan one batch (see
  :meth:`_WorkerState.decode_scan_request`),
* ``POST /invalidate`` — drop one local-cache namespace (the learning
  loop evicts a demoted model's prediction rows fleet-wide on
  promotion),
* ``POST /shutdown`` — graceful stop (drains the HTTP server).

A body that is not valid JSON, lacks a key, carries a value of the
wrong type, or references a slot outside the shared table is answered
with HTTP 400; only a failure inside scoring is a 500.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import faults

__all__ = ["BadRequest", "WorkerSpec", "worker_main"]

#: Environment test hook: per-batch scoring delay in seconds. Lets the
#: overload tests create a sustained backlog on a fast machine without
#: patching anything inside a child process.
SCAN_DELAY_ENV = "PHOOK_FLEET_SCAN_DELAY"


class BadRequest(ValueError):
    """A malformed ``/scan`` or ``/invalidate`` body (HTTP 400)."""


def _list_of(request: dict, key: str, kind: type) -> list:
    """``request[key]``, checked to be a JSON list of ``kind``."""
    value = request[key]
    if not isinstance(value, list) or not all(
            isinstance(item, kind) for item in value):
        raise TypeError(f"{key!r} must be a list of {kind.__name__}")
    return value


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, picklable for any mp context."""

    index: int
    store_url: str = ""
    model_ref: str = ""
    model_path: str = ""
    cache_dir: str = ""
    threshold: float = 0.5
    shards: int = 1
    cache_entries: int = 8192
    shared_name: str = ""
    mmap: bool = False
    host: str = "127.0.0.1"


class _WorkerState:
    """Live state shared by the request handler threads."""

    def __init__(self, spec: WorkerSpec):
        from repro.serve.cache import FeatureCache
        from repro.serve.service import ScanService

        self.spec = spec
        self.pid = os.getpid()
        self.store = None
        self.cache = FeatureCache(max_entries=spec.cache_entries)
        mmap_mode = "r" if spec.mmap else None
        if spec.model_path:
            self.service = ScanService.from_artifact(
                spec.model_path, cache=self.cache,
                threshold=spec.threshold, mmap_mode=mmap_mode,
            )
        else:
            from repro.artifacts import ModelStore

            self.store = ModelStore.from_url(
                spec.store_url or None,
                cache_dir=spec.cache_dir or None,
            )
            self.service = ScanService.from_artifact(
                spec.model_ref, store=self.store, cache=self.cache,
                threshold=spec.threshold, mmap_mode=mmap_mode,
            )
        self.shards = self.service.sharded(spec.shards)
        self.shared = None
        if spec.shared_name:
            from repro.net.shared_cache import ShmFeatureCache

            self.shared = ShmFeatureCache.attach(spec.shared_name)
        self._lock = threading.Lock()
        self.batches = 0
        self.scanned = 0
        self.flagged = 0
        self.seeded_ids = 0
        self.inline_batches = 0
        self.shared_reads = 0
        self.scan_delay = float(os.environ.get(SCAN_DELAY_ENV, "0") or 0)

    # ------------------------------------------------------------------ #

    def _seed_ids(self, code: bytes, block) -> int:
        """Copy-on-first-sight seed of the local ids cache from a shared
        view: cache entries must outlive the pin (the coordinator may
        reuse the slot right after our response), and a cache hit skips
        even the copy."""
        from repro.serve.cache import IDS_NAMESPACE, bytecode_digest

        before = len(self.cache)
        self.cache.get(
            IDS_NAMESPACE, code, lambda _code, b=block: b.copy(),
            digest=bytecode_digest(code),
        )
        return int(len(self.cache) != before)

    def decode_scan_request(
            self, request) -> tuple[list[str], list[int], list[bytes], int]:
        """Validate one ``/scan`` body and resolve its unique bytecodes.

        Each unique code is either a host-wide shared-table reference
        (``shared_refs``, keyed by unique-code index; ``rest`` lists the
        indices that ride inline instead) or inline hex
        (``inline_codes``). Returns ``(addresses, code_of, codes,
        seeded)`` where ``seeded`` counts ids blocks copied into the
        local cache from the table. Raises :class:`BadRequest` for
        anything malformed — including a reference that fails
        :meth:`~repro.net.shared_cache.ShmFeatureCache.read`'s range
        check.
        """
        try:
            if not isinstance(request, dict):
                raise TypeError("request body must be a JSON object")
            addresses = _list_of(request, "addresses", str)
            code_of = _list_of(request, "code_of", int)
            inline = [bytes.fromhex(code)
                      for code in _list_of(request, "inline_codes", str)]
            shared_refs = request.get("shared_refs") or {}
            if not isinstance(shared_refs, dict):
                raise TypeError("'shared_refs' must be an object")
            if shared_refs and self.shared is None:
                raise ValueError("shared_refs sent to a worker without "
                                 "the shared table")
            rest = (_list_of(request, "rest", int) if shared_refs
                    else list(range(len(inline))))
            if len(rest) != len(inline):
                raise ValueError("'rest' and 'inline_codes' differ in "
                                 "length")
            by_index = dict(zip(rest, inline))
            n_unique = len(shared_refs) + len(by_index)
            if len(code_of) != len(addresses) or not all(
                    0 <= i < n_unique for i in code_of):
                raise ValueError("'code_of' does not index the batch's "
                                 "unique codes")
            codes: list[bytes] = []
            seeded = reads = 0
            for index in range(n_unique):
                ref = shared_refs.get(str(index))
                if ref is None:
                    codes.append(by_index[index])
                    continue
                if not (isinstance(ref, list) and len(ref) == 3 and all(
                        isinstance(value, int) for value in ref)):
                    raise TypeError(f"shared_refs[{index!r}] must be "
                                    f"[slot, code_len, ids_len]")
                slot, code_len, ids_len = ref
                code, ids_view = self.shared.read(slot, code_len, ids_len)
                if ids_len:
                    seeded += self._seed_ids(code, ids_view)
                codes.append(code)
                reads += 1
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest(f"{type(error).__name__}: {error}") from error
        with self._lock:
            self.seeded_ids += seeded
            self.shared_reads += reads
            self.inline_batches += int(bool(inline))
        return addresses, code_of, codes, seeded

    @property
    def degraded(self) -> bool:
        """Whether this worker cold-started from the spool with the
        store unreachable (see :meth:`repro.artifacts.ModelStore.tags`)."""
        return bool(self.store is not None
                    and getattr(self.store, "degraded", False))

    def scan(self, request: dict) -> dict:
        """Score one batch; the response preserves request order."""
        from repro.stream.scanner import shard_of

        # Fault point: a chaos plan can kill this worker on exactly its
        # Nth batch (SIGKILL-equivalent — no cleanup, no response; the
        # coordinator sees a TransportError mid-flight) or slow it down.
        fault = faults.fire("worker.scan", worker=self.spec.index)
        if fault is not None and fault.action == "kill":
            os._exit(1)

        addresses, code_of, codes, seeded = self.decode_scan_request(
            request
        )
        if self.scan_delay > 0:
            time.sleep(self.scan_delay)

        by_shard: dict[int, list[int]] = {}
        for position, address in enumerate(addresses):
            shard = shard_of(address, self.spec.shards)
            by_shard.setdefault(shard, []).append(position)
        results: list[dict | None] = [None] * len(addresses)
        flagged = 0
        for shard, positions in sorted(by_shard.items()):
            worker = self.shards[shard]
            scored = worker.scan_bytecodes(
                [codes[code_of[p]] for p in positions],
                addresses=[addresses[p] for p in positions],
            )
            for position, result in zip(positions, scored):
                flagged += int(result.is_phishing)
                results[position] = {
                    "address": result.address,
                    "probability": result.probability,
                    "is_phishing": result.is_phishing,
                    "from_cache": result.from_cache,
                    "shard": shard_of(result.address, self.spec.shards),
                }
        with self._lock:
            self.batches += 1
            self.scanned += len(addresses)
            self.flagged += flagged
        return {
            "worker": self.spec.index,
            "pid": self.pid,
            "results": results,
            "seeded_ids": seeded,
        }

    def status(self) -> dict:
        with self._lock:
            counters = {
                "batches": self.batches,
                "scanned": self.scanned,
                "flagged": self.flagged,
                "seeded_ids": self.seeded_ids,
                "inline_batches": self.inline_batches,
                "shared_reads": self.shared_reads,
            }
        return {
            "worker": self.spec.index,
            "pid": self.pid,
            "degraded": self.degraded,
            **counters,
            "shards": [
                {"shard": i, "scanned": view.scanned}
                for i, view in enumerate(self.shards)
            ],
            "service": self.service.stats(),
        }


def _make_handler(state: _WorkerState, server_box: dict):
    class Handler(BaseHTTPRequestHandler):
        # One worker serves one coordinator on loopback; access logs
        # would just interleave with test output.
        def log_message(self, *args):  # noqa: D102
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802
            if self.path == "/healthz":
                self._reply(200, {"ok": True, "worker": state.spec.index,
                                  "pid": state.pid,
                                  "degraded": state.degraded})
            elif self.path == "/status":
                self._reply(200, state.status())
            else:
                self._reply(404, {"error": f"no route {self.path}"})

        def do_POST(self):  # noqa: N802
            if self.path == "/shutdown":
                self._reply(200, {"ok": True})
                threading.Thread(
                    target=server_box["server"].shutdown, daemon=True
                ).start()
                return
            if self.path not in ("/invalidate", "/scan"):
                self._reply(404, {"error": f"no route {self.path}"})
                return
            try:
                request = self._read_json()
                if self.path == "/invalidate":
                    self._reply(200, self._invalidate(request))
                else:
                    self._reply(200, state.scan(request))
            except BadRequest as error:
                self._reply(400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001
                self._reply(500, {"error": f"{type(error).__name__}: "
                                           f"{error}"})

        def _read_json(self):
            try:
                length = int(self.headers.get("Content-Length", "0"))
                return json.loads(self.rfile.read(length))
            except ValueError as error:
                raise BadRequest(f"malformed JSON: {error}") from error

        @staticmethod
        def _invalidate(request) -> dict:
            namespace = (request.get("namespace")
                         if isinstance(request, dict) else None)
            if not isinstance(namespace, str):
                raise BadRequest("'namespace' must be a string")
            return {"worker": state.spec.index, "namespace": namespace,
                    "evicted": state.cache.invalidate_namespace(namespace)}

    return Handler


def worker_main(spec: WorkerSpec, ready) -> None:
    """Child-process entry point: load, bind, report the port, serve.

    ``ready`` is the write end of a pipe; the worker sends its bound
    port once the model is loaded and the server is listening (so the
    parent's readiness wait covers the cold start, not just the fork),
    or an ``{"error": ...}`` dict when startup fails.
    """
    try:
        # Fault point: a chaos plan can fail the cold start itself (the
        # persistent-crash case supervision must eventually quarantine).
        fault = faults.fire("worker.start", worker=spec.index)
        if fault is not None and fault.action == "error":
            raise RuntimeError("injected startup failure")
        state = _WorkerState(spec)
        server_box: dict = {}
        server = ThreadingHTTPServer(
            (spec.host, 0), _make_handler(state, server_box)
        )
        server_box["server"] = server
        server.daemon_threads = True
    except Exception as error:  # noqa: BLE001
        try:
            ready.send({"error": f"{type(error).__name__}: {error}"})
        finally:
            ready.close()
        return

    def _terminate(_signum, _frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _terminate)
    ready.send({"port": server.server_address[1], "pid": os.getpid(),
                "degraded": state.degraded})
    ready.close()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        if state.shared is not None:
            state.shared.close()
