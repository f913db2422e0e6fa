"""Fleet coordinator: least-loaded dispatch, admission control, reroute.

The coordinator is the only public face of a fleet. It owns:

* **Least-loaded dispatch.** Each scan batch goes whole to one worker:
  the alive worker with the fewest in-flight batches, the lowest index
  on ties. The pick and the reservation of that worker's in-flight slot
  are one step under a routing lock, so batches that arrive together
  spread across workers. Worker caches are keyed by bytecode content,
  so no address affinity is lost; a worker shards each batch over its
  own in-process views.
* **Admission control.** Per-worker in-flight batches are bounded by
  ``queue_depth``. When every alive worker is full the ``overflow``
  policy either *sheds* (:class:`OverloadedError`, surfaced as HTTP
  429 — callers retry) or *blocks* the submitting thread until
  capacity frees and then picks again (lossless, latency-paying).
  Draining fleets refuse new work (:class:`ShuttingDownError` → 503)
  but finish everything admitted.
* **Crash rerouting.** A :class:`~repro.net.client.TransportError` (or
  HTTP 5xx) from a worker marks it dead and re-sends the *whole batch*
  to the least-loaded alive worker not yet tried; since a worker that
  died mid-request never delivered a response, re-sending cannot
  double-alert and not re-sending would lose events. The alert-set
  equality tests pin this down. A worker's HTTP 4xx is different: the
  batch was bad, not the worker, so it becomes
  :class:`WorkerRejectedError` (JSON-RPC 400) and the worker stays in
  rotation.
* **Inline bytecode.** Each worker request carries the batch's unique
  bytecodes as hex (``inline_codes``) plus an index per address
  (``code_of``); the worker decodes and caches them itself.
* **The monitor plane.** Flagged results become real
  :class:`~repro.stream.scanner.StreamAlert` objects fanned out to the
  configured sinks after the batch returns, and
  :meth:`FleetCoordinator.status` reports per-worker counters plus
  client-observed p50/p95/p99 batch latency.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

import numpy as np

from repro.chain.rpc import NoCodeError
from repro.net.client import HttpSession, TransportError
from repro.net.server import JsonHandler, KeepAliveServer, list_of

__all__ = [
    "FleetCoordinator",
    "NoWorkersError",
    "OverloadedError",
    "ShuttingDownError",
    "WorkerHandle",
    "WorkerRejectedError",
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


class WorkerRejectedError(ValueError):
    """A worker answered a batch with HTTP 4xx: the request was bad, the
    worker is fine (JSON-RPC 400 carrying the worker's message)."""


def check_admission(queue_depth: int, overflow: str) -> None:
    """Raise ``ValueError`` unless ``queue_depth``/``overflow`` are valid."""
    if queue_depth < 1:
        raise ValueError("queue_depth must be positive")
    if overflow not in ("shed", "block"):
        raise ValueError(f"unknown overflow policy {overflow!r}")


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

    The handle owns ``session``, the keep-alive connections to the
    worker's current URL: :meth:`FleetCoordinator.mark_dead` closes it
    and :meth:`revive` swaps in a fresh one for the respawned port. It
    connects on first use, and it never holds more idle connections
    than the coordinator's ``queue_depth`` admits requests at once.
    """

    def __init__(self, index: int, host: str, port: int, process=None):
        self.index = index
        self.host = host
        self.port = port
        self.process = process
        self.session = HttpSession(self.url)
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

        The port/process swap and the ``alive`` flip happen together
        under the capacity condition, so routing never reaches a
        half-updated handle; a batch blocked in admission picks the
        revived worker on its next poll.
        """
        with self.capacity:
            self.port = port
            self.session.close()
            self.session = HttpSession(self.url)
            if process is not None:
                self.process = process
            self.alive = True
            self.state = "alive"
            self.degraded = degraded
            self.respawns += 1

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
        workers: Worker handles; list order breaks ties in the
            least-loaded pick, and ``len(workers)`` is the shard space
            of each alert's ``shard`` field (``crc32(address) % N``).
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
        queue_depth: int = 4,
        overflow: str = "shed",
        timeout: float = 10.0,
        sinks=(),
    ):
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        check_admission(queue_depth, overflow)
        self.workers = list(workers)
        self.queue_depth = queue_depth
        self.overflow = overflow
        self.timeout = timeout
        self.sinks = list(sinks)
        self._lock = threading.Lock()
        self._routing = threading.Condition()
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
        }

    # ------------------------------------------------------------------ #
    # Routing + admission
    # ------------------------------------------------------------------ #

    def alive_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.alive]

    def _acquire(self, tried) -> WorkerHandle | None:
        """Pick a worker for one batch and reserve its in-flight slot.

        The pick is the alive worker outside ``tried`` with the fewest
        in-flight batches, the lowest index on ties; it and the
        reservation happen under one routing lock. When it is at
        ``queue_depth``, so is every candidate: ``shed`` raises
        :class:`OverloadedError` and ``block`` waits for capacity and
        picks again. Returns ``None`` when no candidate is alive.
        """
        with self._routing:
            while True:
                candidates = [w for w in self.workers
                              if w.alive and w.index not in tried]
                if not candidates:
                    return None
                worker = min(candidates, key=lambda w: w.inflight)
                if worker.inflight < self.queue_depth:
                    with worker.capacity:
                        worker.inflight += 1
                        worker.dispatched += 1
                    return worker
                if self.overflow == "shed":
                    break
                if self._draining:
                    raise ShuttingDownError("fleet is draining")
                self._routing.wait(timeout=0.1)
        with self._lock:
            self.counters["shed"] += 1
        raise OverloadedError(
            f"every alive worker at queue_depth={self.queue_depth}"
        )

    def _release(self, worker: WorkerHandle, *, completed: bool) -> None:
        with worker.capacity:
            worker.inflight = max(0, worker.inflight - 1)
            worker.completed += int(completed)
            worker.capacity.notify_all()
        with self._routing:
            self._routing.notify_all()

    def mark_dead(self, worker: WorkerHandle) -> None:
        with worker.capacity:
            worker.alive = False
            if worker.state not in ("quarantined", "respawning"):
                worker.state = "dead"
            worker.session.close()
        with self._routing:
            self._routing.notify_all()

    def degraded_workers(self) -> list[WorkerHandle]:
        """Alive workers serving from cache because the store is down."""
        return [w for w in self.workers if w.alive and w.degraded]

    def quarantined_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.state == "quarantined"]

    # ------------------------------------------------------------------ #
    # Scan path
    # ------------------------------------------------------------------ #

    def _send(self, worker: WorkerHandle, payload: dict) -> list[dict]:
        """One HTTP exchange with a worker :meth:`_acquire` reserved.

        Releases the reservation. Raises
        :class:`~repro.net.client.TransportError` when the worker is
        unreachable or fails (HTTP 5xx; the caller reroutes) and
        :class:`WorkerRejectedError` when it refuses the batch (HTTP
        4xx; rerouting would only repeat the refusal).
        """
        completed = False
        try:
            response = worker.session.json(
                "POST", "/scan", payload, timeout=self.timeout
            )
            if not response.ok:
                reply = (f"worker {worker.index} replied HTTP "
                         f"{response.status}: {response.body[:200]!r}")
                if 400 <= response.status < 500:
                    raise WorkerRejectedError(reply)
                raise TransportError(reply)
            completed = True
            results = response.json()["results"]
            for result in results:
                result["worker"] = worker.index
            return results
        finally:
            self._release(worker, completed=completed)

    def _dispatch(self, payload: dict) -> list[dict]:
        """Send one batch, rerouting it whole around dead workers."""
        last_error = None
        tried: set[int] = set()
        while (worker := self._acquire(tried)) is not None:
            try:
                return self._send(worker, payload)
            except TransportError as error:
                with worker.capacity:
                    worker.failed += 1
                self.mark_dead(worker)
                tried.add(worker.index)
                with self._lock:
                    self.counters["rerouted"] += 1
                last_error = error
        raise NoWorkersError("no alive worker for the batch") from last_error

    def scan(self, addresses, codes, *, block_number: int = 0,
             timestamp: int | None = None) -> list[dict]:
        """Scan a batch of ``(address, bytecode)`` pairs on one worker.

        ``codes`` entries may be ``bytes`` or hex strings. Returns one
        result dict per input, in input order. Raises
        :class:`~repro.chain.rpc.NoCodeError` (a ``ValueError``) for an
        empty bytecode (nothing deployed to score), and
        :class:`ShuttingDownError` / :class:`OverloadedError` /
        :class:`NoWorkersError` as described in the module docstring.
        """
        if self._draining:
            raise ShuttingDownError("fleet is draining")
        if not self.alive_workers():
            raise NoWorkersError("all workers are dead")
        if len(addresses) != len(codes):
            raise ValueError("addresses and codes must be parallel lists")
        started = time.perf_counter()
        raw_codes = [
            bytes.fromhex(c) if isinstance(c, str) else bytes(c)
            for c in codes
        ]
        for address, code in zip(addresses, raw_codes):
            if not code:
                raise NoCodeError(address)
        with self._lock:
            self._batch_counter += 1
            batch_id = self._batch_counter

        # Host-level dedup: each unique bytecode is shipped once no
        # matter how many addresses deploy it.
        index_of: dict[bytes, int] = {}
        code_of = [index_of.setdefault(code, len(index_of))
                   for code in raw_codes]
        results = self._dispatch({
            "addresses": list(addresses),
            "code_of": code_of,
            "inline_codes": [code.hex() for code in index_of],
        })

        elapsed = time.perf_counter() - started
        flagged = [r for r in results if r["is_phishing"]]
        with self._lock:
            self.counters["batches"] += 1
            self.counters["scanned"] += len(addresses)
            self.counters["flagged"] += len(flagged)
            self._latencies.append(elapsed)
        self._emit_alerts(flagged, batch_id=batch_id, elapsed=elapsed,
                          block_number=block_number, timestamp=timestamp)
        return results

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
        """Evict one :class:`FeatureCache` namespace on every worker.

        Fans a ``POST /invalidate`` out to every alive worker; each owns
        a private local cache, and those caches are the only place
        per-model *prediction* namespaces live.

        A dead or unreachable worker reports ``None`` (its cache dies
        with the process anyway; a respawn cold-starts empty). Returns
        per-worker eviction counts so callers — the learning loop's
        promotion hook, the ``invalidate`` RPC — can assert the sweep
        actually landed.
        """
        from repro.net.client import http_json

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
            "workers": workers,
            "total_evicted": sum(
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
        return {
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

    def drain(self, timeout: float = 30.0) -> bool:
        """Refuse new work and wait for in-flight batches to finish.

        Returns whether everything drained within ``timeout``.
        """
        self._draining = True
        with self._routing:
            self._routing.notify_all()
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            with worker.capacity:
                while worker.inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    worker.capacity.wait(timeout=min(remaining, 0.1))
        return True

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Close every worker session."""
        for worker in self.workers:
            worker.session.close()

    # ------------------------------------------------------------------ #
    # HTTP/JSON-RPC surface
    # ------------------------------------------------------------------ #

    def serve(self, host: str, port: int,
              on_shutdown=None) -> KeepAliveServer:
        """Build (not start) the coordinator's HTTP server.

        The caller owns the server thread (see
        :class:`~repro.net.fleet.FleetManager`). ``on_shutdown`` runs in
        a fresh thread when ``POST /shutdown`` arrives.
        """
        return KeepAliveServer((host, port), _make_handler(self, on_shutdown))


#: JSON-RPC error codes (the relevant subset of the 2.0 spec, plus the
#: fleet's domain codes carried in the HTTP status).
_RPC_METHOD_NOT_FOUND = -32601
_RPC_INVALID_PARAMS = -32602
_RPC_INTERNAL = -32603


def _make_handler(coordinator: FleetCoordinator, on_shutdown):
    class Handler(JsonHandler):
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
            body = self._read_body()
            if self.path == "/shutdown":
                self._reply(200, {"ok": True})
                if on_shutdown is not None:
                    threading.Thread(target=on_shutdown, daemon=True).start()
                return
            if self.path != "/rpc":
                self._reply(404, {"error": f"no route {self.path}"})
                return
            try:
                request = json.loads(body)
            except ValueError:
                request = None
            if not isinstance(request, dict):
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
                if not isinstance(params, dict):
                    raise TypeError("'params' must be a JSON object")
                if method == "ping":
                    result({"pong": True})
                elif method == "status":
                    result(coordinator.status())
                elif method == "scan":
                    results = coordinator.scan(
                        list_of(params, "addresses", str),
                        list_of(params, "codes", str),
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
