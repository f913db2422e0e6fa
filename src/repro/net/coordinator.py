"""Fleet coordinator: sharded dispatch, admission control, reroute.

The coordinator is the only public face of a fleet. It owns:

* **Address-sharded dispatch.** Each scan event routes to worker
  ``crc32(address) % workers`` — the same hash the in-process streaming
  scanner uses — so one address's history always lands on one worker's
  cache. When that worker is dead, the batch deterministically falls to
  the next alive index; nothing is dropped.
* **Admission control.** Per-worker in-flight batches are bounded by
  ``queue_depth``. On overflow the ``overflow`` policy either *sheds*
  (:class:`OverloadedError`, surfaced as HTTP 429 — callers retry) or
  *blocks* the submitting thread until capacity frees (lossless,
  latency-paying). Draining fleets refuse new work
  (:class:`ShuttingDownError` → 503) but finish everything admitted.
* **Crash rerouting.** A :class:`~repro.net.client.TransportError` from
  a worker marks it dead and re-sends the *whole batch* to the next
  alive worker; since a worker that died mid-request never delivered a
  response, re-sending cannot double-alert and not re-sending would
  lose events. The alert-set equality tests pin this down.
* **Zero-copy feature handoff.** With a
  :class:`~repro.net.shared_cache.ShmFeatureCache` attached, unique
  bytecodes are decoded once per host through the coordinator's
  :class:`~repro.serve.cache.FeatureCache` and stored with their
  ``uint8`` ids block in the host-wide table; the request references
  the entry (pinned for the exchange) instead of carrying it. A code
  that misses a full table or does not fit a slot rides inline as hex —
  counted, never fatal. Without the table every code rides inline.
* **The monitor plane.** Flagged results become real
  :class:`~repro.stream.scanner.StreamAlert` objects fanned out to the
  configured sinks, and :meth:`FleetCoordinator.status` reports
  per-worker counters plus client-observed p50/p95/p99 batch latency.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

__all__ = [
    "FleetCoordinator",
    "NoWorkersError",
    "OverloadedError",
    "ShuttingDownError",
    "WorkerHandle",
]

#: Bound on the client-side latency sample window (matches the spirit of
#: ``repro.stream``'s LATENCY_WINDOW, smaller because one sample here is
#: a whole batch).
LATENCY_WINDOW = 4096


class OverloadedError(RuntimeError):
    """Admission control shed this batch (HTTP 429; retry later)."""


class NoWorkersError(RuntimeError):
    """Every worker is dead (HTTP 503; the fleet needs an operator)."""


class ShuttingDownError(RuntimeError):
    """The fleet is draining and admits no new work (HTTP 503)."""


class WorkerHandle:
    """Coordinator-side view of one worker process.

    Health model: ``alive`` is the routing bit (only alive workers get
    batches); ``state`` is the operator-facing life-cycle —
    ``alive`` → ``dead`` (crash detected) → ``respawning`` (supervisor
    restarting it) → back to ``alive``, or ``quarantined`` after the
    supervisor gives up (``max_respawns`` consecutive failures).
    ``respawns`` counts successful restarts; ``degraded`` mirrors the
    worker's own report (serving from the local artifact cache because
    the store is unreachable).
    """

    def __init__(self, index: int, host: str, port: int, process=None):
        self.index = index
        self.host = host
        self.port = port
        self.process = process
        self.alive = True
        self.state = "alive"
        self.respawns = 0
        self.degraded = False
        self.inflight = 0
        self.capacity = threading.Condition()
        self.dispatched = 0
        self.completed = 0
        self.failed = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def revive(self, port: int, process=None, *,
               degraded: bool = False) -> None:
        """Point this handle at a freshly respawned process.

        The port/process swap and the ``alive`` flip happen under the
        capacity condition so threads blocked in admission wake up and
        route to the new process, never a half-updated handle.
        """
        with self.capacity:
            self.port = port
            if process is not None:
                self.process = process
            self.alive = True
            self.state = "alive"
            self.degraded = degraded
            self.respawns += 1
            self.capacity.notify_all()

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "url": self.url,
            "pid": self.process.pid if self.process is not None else None,
            "alive": self.alive,
            "state": self.state,
            "respawns": self.respawns,
            "degraded": self.degraded,
            "inflight": self.inflight,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failed": self.failed,
        }


class FleetCoordinator:
    """Dispatch scans across :class:`WorkerHandle`\\ s; see module docs.

    Args:
        workers: Worker handles; their list order defines the shard
            space (``crc32(address) % len(workers)``), which stays fixed
            even as workers die — only the *fallback* target moves.
        cache: Host-wide :class:`~repro.serve.cache.FeatureCache` used
            to decode each unique bytecode once; required with ``shared``.
        shared: :class:`~repro.net.shared_cache.ShmFeatureCache` holding
            each unique bytecode + decoded ids once per host across
            batches; requests reference entries by slot instead of
            re-shipping, and only codes missing from the table ride
            inline (``None`` → inline shipping only).
        queue_depth: Max in-flight batches per worker.
        overflow: ``"shed"`` (raise :class:`OverloadedError`) or
            ``"block"`` (wait for capacity).
        timeout: Per-request worker HTTP timeout (seconds).
        sinks: :class:`~repro.stream.sinks.AlertSink` list for flagged
            results.
    """

    def __init__(
        self,
        workers,
        *,
        cache=None,
        shared=None,
        queue_depth: int = 4,
        overflow: str = "shed",
        timeout: float = 10.0,
        sinks=(),
    ):
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if overflow not in ("shed", "block"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        if shared is not None and cache is None:
            raise ValueError("a shared feature cache needs a FeatureCache "
                             "to decode misses")
        self.workers = list(workers)
        self.cache = cache
        self.shared = shared
        self.queue_depth = queue_depth
        self.overflow = overflow
        self.timeout = timeout
        self.sinks = list(sinks)
        self._lock = threading.Lock()
        self._draining = False
        self._batch_counter = 0
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self.counters = {
            "batches": 0,
            "scanned": 0,
            "flagged": 0,
            "alerts": 0,
            "shed": 0,
            "rerouted": 0,
            "inline_batches": 0,
            "shared_cache_hits": 0,
            "shared_cache_stores": 0,
            "shared_cache_fallback": 0,
        }

    # ------------------------------------------------------------------ #
    # Routing + admission
    # ------------------------------------------------------------------ #

    def alive_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.alive]

    def _worker_for(self, shard: int, skip=()) -> WorkerHandle | None:
        """Preferred worker for a shard, falling to the next alive index.

        The fallback is deterministic (``shard + k`` mod worker count) so
        a rerouted address keeps landing on the *same* substitute until
        the fleet membership changes again.
        """
        n = len(self.workers)
        for k in range(n):
            worker = self.workers[(shard + k) % n]
            if worker.alive and worker.index not in skip:
                return worker
        return None

    def _admit(self, worker: WorkerHandle) -> bool:
        """Reserve one in-flight unit on ``worker``; see ``overflow``."""
        with worker.capacity:
            if self.overflow == "shed":
                if worker.inflight >= self.queue_depth:
                    with self._lock:
                        self.counters["shed"] += 1
                    raise OverloadedError(
                        f"worker {worker.index} at queue_depth="
                        f"{self.queue_depth}"
                    )
            else:
                while (worker.alive and not self._draining
                       and worker.inflight >= self.queue_depth):
                    worker.capacity.wait(timeout=0.1)
                if not worker.alive:
                    return False
                if self._draining:
                    raise ShuttingDownError("fleet is draining")
            worker.inflight += 1
            worker.dispatched += 1
            return True

    def _release(self, worker: WorkerHandle) -> None:
        with worker.capacity:
            worker.inflight = max(0, worker.inflight - 1)
            worker.capacity.notify_all()

    def mark_dead(self, worker: WorkerHandle) -> None:
        with worker.capacity:
            worker.alive = False
            if worker.state not in ("quarantined", "respawning"):
                worker.state = "dead"
            worker.capacity.notify_all()

    def degraded_workers(self) -> list[WorkerHandle]:
        """Alive workers serving from cache because the store is down."""
        return [w for w in self.workers if w.alive and w.degraded]

    def quarantined_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.state == "quarantined"]

    # ------------------------------------------------------------------ #
    # Feature plane
    # ------------------------------------------------------------------ #

    def _build_request(self, addresses, code_of, unique_codes,
                       pinned: list[int]) -> dict:
        """Wire payload: shared-table refs, then inline hex.

        Every shared-table slot the payload references is appended to
        ``pinned`` as soon as it is leased; the caller must unpin them
        all after the HTTP exchange (success or not — the response is
        the fence that makes slot reuse safe).
        """
        payload = {"addresses": list(addresses), "code_of": list(code_of)}
        inline = list(range(len(unique_codes)))
        if self.shared is not None:
            from repro.serve.cache import bytecode_digest

            shared_refs: dict[str, list[int]] = {}
            inline = []
            hits = stores = 0
            for index, code in enumerate(unique_codes):
                digest = bytecode_digest(code)
                entry = self.shared.pin(digest)
                if entry is None:
                    ids = np.ascontiguousarray(
                        self.cache.mnemonic_ids(code)
                    )
                    entry = self.shared.store(digest, code, ids)
                    stores += int(entry is not None)
                else:
                    hits += 1
                if entry is None:
                    inline.append(index)
                    continue
                pinned.append(entry.slot)
                shared_refs[str(index)] = list(entry)
            if shared_refs:
                payload["shared_refs"] = shared_refs
                payload["rest"] = inline
            with self._lock:
                self.counters["shared_cache_hits"] += hits
                self.counters["shared_cache_stores"] += stores
                self.counters["shared_cache_fallback"] += len(inline)
        payload["inline_codes"] = [
            bytes(unique_codes[index]).hex() for index in inline
        ]
        if inline:
            with self._lock:
                self.counters["inline_batches"] += 1
        return payload

    # ------------------------------------------------------------------ #
    # Scan path
    # ------------------------------------------------------------------ #

    def _send(self, worker: WorkerHandle, addresses, code_of,
              unique_codes) -> list[dict]:
        """One admission + HTTP exchange with one worker.

        Raises :class:`~repro.net.client.TransportError` when the worker
        is unreachable (the caller reroutes) and :class:`OverloadedError`
        on shed.
        """
        from repro.net.client import http_json

        if not self._admit(worker):
            from repro.net.client import TransportError

            raise TransportError(f"worker {worker.index} died in admission")
        pinned: list[int] = []
        try:
            payload = self._build_request(
                addresses, code_of, unique_codes, pinned
            )
            response = http_json(
                "POST", f"{worker.url}/scan", payload, timeout=self.timeout
            )
            if not response.ok:
                from repro.net.client import TransportError

                raise TransportError(
                    f"worker {worker.index} replied HTTP {response.status}: "
                    f"{response.body[:200]!r}"
                )
            worker.completed += 1
            results = response.json()["results"]
            for result in results:
                result["worker"] = worker.index
            return results
        finally:
            for shared_slot in pinned:
                self.shared.unpin(shared_slot)
            self._release(worker)

    def _dispatch(self, shard: int, addresses, code_of,
                  unique_codes) -> list[dict]:
        """Send one shard group, rerouting around dead workers."""
        from repro.net.client import TransportError

        last_error = None
        tried: set[int] = set()
        for _ in range(len(self.workers)):
            worker = self._worker_for(shard, skip=tried)
            if worker is None:
                break
            try:
                return self._send(worker, addresses, code_of, unique_codes)
            except TransportError as error:
                worker.failed += 1
                self.mark_dead(worker)
                tried.add(worker.index)
                with self._lock:
                    self.counters["rerouted"] += 1
                last_error = error
        raise NoWorkersError(
            f"no alive worker for shard {shard}"
        ) from last_error

    def scan(self, addresses, codes, *, block_number: int = 0,
             timestamp: int | None = None) -> list[dict]:
        """Scan a batch of ``(address, bytecode)`` pairs across the fleet.

        ``codes`` entries may be ``bytes`` or hex strings. Returns one
        result dict per input, in input order. Raises
        :class:`ShuttingDownError` / :class:`OverloadedError` /
        :class:`NoWorkersError` as described in the module docstring.
        """
        from repro.serve.cache import bytecode_digest
        from repro.stream.scanner import shard_of

        if self._draining:
            raise ShuttingDownError("fleet is draining")
        if not self.alive_workers():
            raise NoWorkersError("all workers are dead")
        if len(addresses) != len(codes):
            raise ValueError("addresses and codes must be parallel lists")
        started = time.perf_counter()
        with self._lock:
            self._batch_counter += 1
            batch_id = self._batch_counter

        raw_codes = [
            bytes.fromhex(c) if isinstance(c, str) else bytes(c)
            for c in codes
        ]
        # Host-level dedup: each unique bytecode is decoded (and shipped)
        # once per batch no matter how many addresses deploy it.
        unique_codes: list[bytes] = []
        index_of: dict[bytes, int] = {}
        code_of: list[int] = []
        for code in raw_codes:
            digest = bytecode_digest(code)
            if digest not in index_of:
                index_of[digest] = len(unique_codes)
                unique_codes.append(code)
            code_of.append(index_of[digest])

        n = len(self.workers)
        groups: dict[int, list[int]] = {}
        for position, address in enumerate(addresses):
            groups.setdefault(shard_of(address, n), []).append(position)

        results: list[dict | None] = [None] * len(addresses)
        for shard, positions in sorted(groups.items()):
            sub_unique: list[bytes] = []
            sub_index: dict[int, int] = {}
            sub_code_of: list[int] = []
            for position in positions:
                u = code_of[position]
                if u not in sub_index:
                    sub_index[u] = len(sub_unique)
                    sub_unique.append(unique_codes[u])
                sub_code_of.append(sub_index[u])
            scored = self._dispatch(
                shard, [addresses[p] for p in positions],
                sub_code_of, sub_unique,
            )
            for position, result in zip(positions, scored):
                results[position] = result

        elapsed = time.perf_counter() - started
        flagged = [r for r in results if r and r["is_phishing"]]
        with self._lock:
            self.counters["batches"] += 1
            self.counters["scanned"] += len(addresses)
            self.counters["flagged"] += len(flagged)
            self._latencies.append(elapsed)
        self._emit_alerts(flagged, batch_id=batch_id, elapsed=elapsed,
                          block_number=block_number, timestamp=timestamp)
        return [dict(r) for r in results]

    def _emit_alerts(self, flagged, *, batch_id: int, elapsed: float,
                     block_number: int, timestamp: int | None) -> None:
        if not flagged or not self.sinks:
            if flagged:
                with self._lock:
                    self.counters["alerts"] += len(flagged)
            return
        from repro.stream.scanner import StreamAlert, shard_of

        stamp = int(time.time()) if timestamp is None else int(timestamp)
        n = len(self.workers)
        for result in flagged:
            alert = StreamAlert(
                address=result["address"],
                probability=float(result["probability"]),
                block_number=int(block_number),
                timestamp=stamp,
                latency_seconds=elapsed,
                shard=shard_of(result["address"], n),
                batch_id=batch_id,
                from_cache=bool(result.get("from_cache", False)),
            )
            for sink in self.sinks:
                sink.emit(alert)
        with self._lock:
            self.counters["alerts"] += len(flagged)

    # ------------------------------------------------------------------ #
    # Cache plane
    # ------------------------------------------------------------------ #

    def invalidate_namespace(self, namespace: str) -> dict:
        """Evict one :class:`FeatureCache` namespace host-wide.

        Fans a ``POST /invalidate`` out to every alive worker (each owns
        a private local cache) after dropping the namespace from the
        coordinator's own decode cache. The host-wide
        :class:`~repro.net.shared_cache.ShmFeatureCache` is deliberately
        untouched: it holds bytecodes and decoded mnemonic ids keyed by
        content digest — model-independent features that stay valid
        across promotions. Only per-model *prediction* namespaces go
        stale when the serving model changes, and those live exclusively
        in the local caches this method reaches.

        A dead or unreachable worker reports ``None`` (its cache dies
        with the process anyway; a respawn cold-starts empty). Returns
        per-worker eviction counts so callers — the learning loop's
        promotion hook, the ``invalidate`` RPC — can assert the sweep
        actually landed.
        """
        from repro.net.client import TransportError, http_json

        evicted = 0
        if self.cache is not None:
            evicted = self.cache.invalidate_namespace(namespace)
        workers: dict[int, int | None] = {}
        for worker in self.alive_workers():
            try:
                response = http_json(
                    "POST", f"{worker.url}/invalidate",
                    {"namespace": namespace}, timeout=self.timeout,
                )
                if response.ok:
                    workers[worker.index] = int(response.json()["evicted"])
                else:
                    workers[worker.index] = None
            except TransportError:
                workers[worker.index] = None
        return {
            "namespace": namespace,
            "coordinator_evicted": evicted,
            "workers": workers,
            "total_evicted": evicted + sum(
                count for count in workers.values() if count
            ),
        }

    # ------------------------------------------------------------------ #
    # Monitor + lifecycle
    # ------------------------------------------------------------------ #

    def latency_percentiles(self) -> dict[str, float]:
        with self._lock:
            samples = list(self._latencies)
        if not samples:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        data = np.sort(np.asarray(samples))
        return {
            "p50": float(np.percentile(data, 50)),
            "p95": float(np.percentile(data, 95)),
            "p99": float(np.percentile(data, 99)),
        }

    def status(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
        payload = {
            "draining": self._draining,
            "workers": [w.as_dict() for w in self.workers],
            "alive": len(self.alive_workers()),
            "degraded": len(self.degraded_workers()),
            "quarantined": len(self.quarantined_workers()),
            "queue_depth": self.queue_depth,
            "overflow": self.overflow,
            "counters": counters,
            "batch_latency_seconds": self.latency_percentiles(),
            "sinks": {s.name: s.stats.as_dict() for s in self.sinks},
        }
        if self.shared is not None:
            payload["shared_cache"] = self.shared.stats()
        if self.cache is not None:
            payload["cache"] = self.cache.stats.as_dict()
        return payload

    def drain(self, timeout: float = 30.0) -> bool:
        """Refuse new work and wait for in-flight batches to finish.

        Returns whether everything drained within ``timeout``.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            with worker.capacity:
                worker.capacity.notify_all()
                while worker.inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    worker.capacity.wait(timeout=min(remaining, 0.1))
        return True

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------ #
    # HTTP/JSON-RPC surface
    # ------------------------------------------------------------------ #

    def serve(self, host: str, port: int,
              on_shutdown=None) -> ThreadingHTTPServer:
        """Build (not start) the coordinator's HTTP server.

        The caller owns the server thread (see
        :class:`~repro.net.fleet.FleetManager`). ``on_shutdown`` runs in
        a fresh thread when ``POST /shutdown`` arrives.
        """
        server = ThreadingHTTPServer(
            (host, port), _make_handler(self, on_shutdown)
        )
        server.daemon_threads = True
        return server


#: JSON-RPC error codes (the relevant subset of the 2.0 spec, plus the
#: fleet's domain codes carried in the HTTP status).
_RPC_METHOD_NOT_FOUND = -32601
_RPC_INVALID_PARAMS = -32602
_RPC_INTERNAL = -32603


def _make_handler(coordinator: FleetCoordinator, on_shutdown):
    class Handler(BaseHTTPRequestHandler):
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
                alive = len(coordinator.alive_workers())
                status = 200 if alive and not coordinator.draining else 503
                # Degraded is a *warning* dimension, not a liveness one:
                # the fleet still answers 200 while serving stale-tag
                # cached artifacts or while quarantined workers shrink
                # capacity — operators alert on the flag, clients keep
                # scanning.
                degraded = bool(
                    coordinator.degraded_workers()
                    or coordinator.quarantined_workers()
                )
                self._reply(status, {
                    "ok": status == 200,
                    "alive_workers": alive,
                    "degraded": degraded,
                    "draining": coordinator.draining,
                })
            elif self.path == "/status":
                self._reply(200, coordinator.status())
            else:
                self._reply(404, {"error": f"no route {self.path}"})

        def do_POST(self):  # noqa: N802
            if self.path == "/shutdown":
                self._reply(200, {"ok": True})
                if on_shutdown is not None:
                    threading.Thread(target=on_shutdown, daemon=True).start()
                return
            if self.path != "/rpc":
                self._reply(404, {"error": f"no route {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                request = json.loads(self.rfile.read(length))
            except (ValueError, KeyError):
                self._reply(400, {"error": "malformed JSON-RPC request"})
                return
            self._rpc(request)

        def _rpc(self, request: dict) -> None:
            method = request.get("method")
            params = request.get("params") or {}
            request_id = request.get("id")

            def error(status, code, message):
                self._reply(status, {
                    "jsonrpc": "2.0", "id": request_id,
                    "error": {"code": code, "message": message},
                })

            def result(payload):
                self._reply(200, {
                    "jsonrpc": "2.0", "id": request_id, "result": payload,
                })

            try:
                if method == "ping":
                    result({"pong": True})
                elif method == "status":
                    result(coordinator.status())
                elif method == "scan":
                    results = coordinator.scan(
                        params["addresses"],
                        params["codes"],
                        block_number=int(params.get("block_number", 0)),
                        timestamp=params.get("timestamp"),
                    )
                    result({"results": results})
                elif method == "invalidate":
                    result(coordinator.invalidate_namespace(
                        str(params["namespace"])
                    ))
                else:
                    error(400, _RPC_METHOD_NOT_FOUND,
                          f"unknown method {method!r}")
            except (KeyError, TypeError, ValueError) as err:
                error(400, _RPC_INVALID_PARAMS,
                      f"{type(err).__name__}: {err}")
            except OverloadedError as err:
                error(429, _RPC_INTERNAL, str(err))
            except (ShuttingDownError, NoWorkersError) as err:
                error(503, _RPC_INTERNAL, str(err))
            except Exception as err:  # noqa: BLE001
                error(500, _RPC_INTERNAL,
                      f"{type(err).__name__}: {err}")

    return Handler
