"""Fleet worker: one ``ScanService`` process behind a private HTTP port.

A worker is deliberately boring: it cold-starts a
:class:`~repro.serve.service.ScanService` from the ModelStore (exactly
the artifact path every other serving surface uses), scores each batch
whole with one ``scan_bytecodes`` call, and answers ``POST /scan`` over
keep-alive HTTP/1.1 (:mod:`repro.net.server`) on a loopback port it
binds itself (port 0 → the kernel picks; the bound port travels back to
the coordinator over a pipe). All fleet intelligence —
routing, admission control, rerouting — lives in the coordinator; a
worker that dies takes nothing with it but its own in-flight batch,
which the coordinator re-sends elsewhere.

Bytecode arrives inline as hex (``inline_codes``, one entry per unique
code in the batch); the worker's own
:class:`~repro.serve.cache.FeatureCache` holds one probability per code
it has scored, so a bytecode this worker has seen before costs a digest
and a lookup.

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
wrong type, or indexes a code the batch does not carry is answered
with HTTP 400; only a failure inside scoring is a 500.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass

from repro import faults
from repro.net.server import JsonHandler, KeepAliveServer, list_of

__all__ = ["BadRequest", "WorkerSpec", "worker_main"]

#: Environment test hook: per-batch scoring delay in seconds. Lets the
#: overload tests create a sustained backlog on a fast machine without
#: patching anything inside a child process.
SCAN_DELAY_ENV = "PHOOK_FLEET_SCAN_DELAY"


class BadRequest(ValueError):
    """A malformed ``/scan`` or ``/invalidate`` body (HTTP 400)."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, picklable for any mp context."""

    index: int
    store_url: str = ""
    model_ref: str = ""
    model_path: str = ""
    cache_dir: str = ""
    threshold: float = 0.5
    cache_entries: int = 8192
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
        self._lock = threading.Lock()
        self.batches = 0
        self.scanned = 0
        self.flagged = 0
        self.scan_delay = float(os.environ.get(SCAN_DELAY_ENV, "0") or 0)

    # ------------------------------------------------------------------ #

    @staticmethod
    def decode_scan_request(request) -> tuple[list, list, list[bytes]]:
        """Validate one ``/scan`` body and resolve its unique bytecodes.

        Returns ``(addresses, code_of, codes)``: ``codes`` are the
        batch's unique bytecodes from ``inline_codes`` and ``code_of``
        maps each address to one of them. Raises :class:`BadRequest`
        for anything malformed.
        """
        try:
            if not isinstance(request, dict):
                raise TypeError("request body must be a JSON object")
            addresses = list_of(request, "addresses", str)
            code_of = list_of(request, "code_of", int)
            codes = [bytes.fromhex(code)
                     for code in list_of(request, "inline_codes", str)]
            if len(code_of) != len(addresses) or not all(
                    0 <= i < len(codes) for i in code_of):
                raise ValueError("'code_of' does not index the batch's "
                                 "unique codes")
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest(f"{type(error).__name__}: {error}") from error
        return addresses, code_of, codes

    @property
    def degraded(self) -> bool:
        """Whether this worker cold-started from the spool with the
        store unreachable (see :meth:`repro.artifacts.ModelStore.tags`)."""
        return bool(self.store is not None
                    and getattr(self.store, "degraded", False))

    def scan(self, request: dict) -> dict:
        """Score one batch; the response preserves request order."""
        # Fault point: a chaos plan can kill this worker on exactly its
        # Nth batch (SIGKILL-equivalent — no cleanup, no response; the
        # coordinator sees a TransportError mid-flight) or slow it down.
        fault = faults.fire("worker.scan", worker=self.spec.index)
        if fault is not None and fault.action == "kill":
            os._exit(1)

        addresses, code_of, codes = self.decode_scan_request(request)
        if self.scan_delay > 0:
            time.sleep(self.scan_delay)

        scored = self.service.scan_bytecodes(
            [codes[index] for index in code_of], addresses=addresses
        )
        results = [
            {
                "address": result.address,
                "probability": result.probability,
                "is_phishing": result.is_phishing,
                "from_cache": result.from_cache,
            }
            for result in scored
        ]
        flagged = sum(result.is_phishing for result in scored)
        with self._lock:
            self.batches += 1
            self.scanned += len(addresses)
            self.flagged += flagged
        return {
            "worker": self.spec.index,
            "pid": self.pid,
            "results": results,
        }

    def status(self) -> dict:
        with self._lock:
            counters = {
                "batches": self.batches,
                "scanned": self.scanned,
                "flagged": self.flagged,
            }
        return {
            "worker": self.spec.index,
            "pid": self.pid,
            "degraded": self.degraded,
            **counters,
            "service": self.service.stats(),
        }


def _make_handler(state: _WorkerState, server_box: dict):
    class Handler(JsonHandler):
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
            body = self._read_body()
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
                request = self._parse_json(body)
                if self.path == "/invalidate":
                    self._reply(200, self._invalidate(request))
                else:
                    self._reply(200, state.scan(request))
            except BadRequest as error:
                self._reply(400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001
                self._reply(500, {"error": f"{type(error).__name__}: "
                                           f"{error}"})

        @staticmethod
        def _parse_json(body: bytes):
            try:
                return json.loads(body)
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
        server = KeepAliveServer(
            (spec.host, 0), _make_handler(state, server_box)
        )
        server_box["server"] = server
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
