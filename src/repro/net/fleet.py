"""Fleet lifecycle: spawn workers, run the coordinator, tear down.

:class:`FleetManager` is the single owner of every cross-process
resource a fleet holds — worker processes, the shared feature table,
the coordinator HTTP server — with one lifecycle rule: **workers fork
before any server thread starts**. Forking a multi-threaded parent can
duplicate a thread-held lock into the child and deadlock it; spawning
the whole fleet first keeps the parent single-threaded at fork time.

Startup is synchronous and honest: each worker reports its bound port
(or a startup error) over a pipe *after* its model cold-start completes,
so :meth:`FleetManager.start` returning means every worker is actually
ready to score — not merely forked.

:class:`FleetClient` is the JSON-RPC consumer (used by the CLI and the
tests); :func:`save_fleet_state` / :func:`load_fleet_state` persist the
tiny ``{url, pid}`` state file that lets ``phishinghook fleet
status|scan|stop`` find a daemonized fleet.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

__all__ = [
    "FleetClient",
    "FleetManager",
    "FleetRpcError",
    "load_fleet_state",
    "save_fleet_state",
]

#: Per-worker cold-start budget (seconds) before start() declares the
#: worker wedged and aborts the launch.
STARTUP_TIMEOUT = 60.0


class FleetRpcError(RuntimeError):
    """A JSON-RPC call failed (HTTP status + server-reported message)."""

    def __init__(self, status: int, code: int, message: str):
        super().__init__(f"HTTP {status} (rpc {code}): {message}")
        self.status = status
        self.code = code
        self.message = message


class FleetManager:
    """Own a fleet end to end: processes, table, coordinator, server.

    Exactly one of ``model_path`` (an exported artifact file) or
    ``store_url`` + ``model_ref`` (a ModelStore pull — the production
    path) selects where workers load their model from.

    ``ship_features`` is the one feature-plane knob: on, the coordinator
    decodes each unique bytecode once per host into the shared
    :class:`~repro.net.shared_cache.ShmFeatureCache` and requests carry
    references to it; off, every bytecode rides inline as hex.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        store_url: str = "",
        model_ref: str = "",
        model_path: str = "",
        cache_dir: str = "",
        threshold: float = 0.5,
        worker_shards: int = 1,
        cache_entries: int = 8192,
        queue_depth: int = 4,
        overflow: str = "shed",
        ship_features: bool = True,
        mmap: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        sinks=(),
        http_timeout: float = 10.0,
        supervise: bool = False,
        heartbeat_seconds: float = 0.5,
        max_respawns: int = 3,
        respawn_backoff_seconds: float = 0.2,
        respawn_backoff_max: float = 5.0,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if bool(model_path) == bool(model_ref or store_url):
            raise ValueError(
                "pass either model_path or store_url+model_ref, not both"
            )
        self.workers = workers
        self.store_url = store_url
        self.model_ref = model_ref
        self.model_path = model_path
        self.cache_dir = cache_dir
        self.threshold = threshold
        self.worker_shards = worker_shards
        self.cache_entries = cache_entries
        self.queue_depth = queue_depth
        self.overflow = overflow
        self.ship_features = ship_features
        self.mmap = mmap
        self.host = host
        self.port = port
        self.sinks = list(sinks)
        self.http_timeout = http_timeout
        # Supervision is opt-in: without it a dead worker stays dead and
        # the coordinator just routes around it (the PR-7 behaviour some
        # tests pin). With it, a heartbeat thread respawns crashed
        # workers with exponential backoff and quarantines a worker
        # whose respawns keep failing.
        self.supervise = supervise
        self.heartbeat_seconds = heartbeat_seconds
        self.max_respawns = max_respawns
        self.respawn_backoff_seconds = respawn_backoff_seconds
        self.respawn_backoff_max = respawn_backoff_max
        self.coordinator = None
        self.shared = None
        self._processes: list = []
        self._server = None
        self._server_thread = None
        self._supervisor_thread = None
        self._supervisor_wake = threading.Event()
        self._respawn_failures: dict[int, int] = {}
        self._probe_failures: dict[int, int] = {}
        self._stopped = False
        self._url = ""

    # ------------------------------------------------------------------ #

    def _worker_spec(self, index: int):
        from repro.net.worker import WorkerSpec

        return WorkerSpec(
            index=index,
            store_url=self.store_url,
            model_ref=self.model_ref,
            model_path=self.model_path,
            cache_dir=self.cache_dir,
            threshold=self.threshold,
            shards=self.worker_shards,
            cache_entries=self.cache_entries,
            shared_name=(
                self.shared.name if self.shared is not None else ""
            ),
            mmap=self.mmap,
            host=self.host,
        )

    def _spawn_worker(self, index: int, context):
        """Fork/spawn one worker process; returns ``(process, receiver)``."""
        from repro.net.worker import worker_main

        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=worker_main, args=(self._worker_spec(index), sender),
            name=f"fleet-worker-{index}", daemon=True,
        )
        process.start()
        sender.close()
        return process, receiver

    @staticmethod
    def _await_ready(index: int, receiver,
                     timeout: float = STARTUP_TIMEOUT) -> dict:
        """Wait for a worker's readiness report; raises on error/timeout."""
        try:
            if not receiver.poll(timeout):
                raise RuntimeError(
                    f"worker {index} did not report readiness within "
                    f"{timeout:.0f}s"
                )
            report = receiver.recv()
        except (EOFError, OSError):
            raise RuntimeError(
                f"worker {index} died before reporting readiness"
            ) from None
        finally:
            receiver.close()
        if "error" in report:
            raise RuntimeError(
                f"worker {index} failed to start: {report['error']}"
            )
        return report

    def start(self) -> "FleetManager":
        """Spawn workers, wait for readiness, start the coordinator."""
        from repro.net.coordinator import FleetCoordinator, WorkerHandle

        cache = None
        if self.ship_features:
            from repro.net.shared_cache import ShmFeatureCache
            from repro.serve.cache import FeatureCache

            cache = FeatureCache(max_entries=self.cache_entries)
            self.shared = ShmFeatureCache.create()

        context = multiprocessing.get_context()
        pending = []
        for index in range(self.workers):
            process, receiver = self._spawn_worker(index, context)
            pending.append((index, process, receiver))
            self._processes.append(process)

        handles = []
        try:
            for index, process, receiver in pending:
                report = self._await_ready(index, receiver)
                handle = WorkerHandle(
                    index, self.host, report["port"], process=process
                )
                handle.degraded = bool(report.get("degraded", False))
                handles.append(handle)
        except Exception:
            self._kill_all()
            if self.shared is not None:
                self.shared.unlink()
            raise

        self.coordinator = FleetCoordinator(
            handles,
            cache=cache,
            shared=self.shared,
            queue_depth=self.queue_depth,
            overflow=self.overflow,
            timeout=self.http_timeout,
            sinks=self.sinks,
        )
        # Only now — with every child forked — is it safe to go
        # multi-threaded in this process.
        self._server = self.coordinator.serve(
            self.host, self.port, on_shutdown=lambda: self.stop(),
        )
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="fleet-coordinator", daemon=True,
        )
        self._server_thread.start()
        self._url = (f"http://{self.host}:"
                     f"{self._server.server_address[1]}")
        if self.supervise:
            self._supervisor_thread = threading.Thread(
                target=self._supervise_loop,
                name="fleet-supervisor", daemon=True,
            )
            self._supervisor_thread.start()
        return self

    @property
    def url(self) -> str:
        """Coordinator base URL (empty before :meth:`start`)."""
        return self._url

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` ran (e.g. via ``POST /shutdown``)."""
        return self._stopped

    # ------------------------------------------------------------------ #
    # In-process conveniences (the CLI foreground path and tests)
    # ------------------------------------------------------------------ #

    def scan(self, addresses, codes, **kwargs) -> list[dict]:
        return self.coordinator.scan(addresses, codes, **kwargs)

    def status(self) -> dict:
        return self.coordinator.status()

    def invalidate_namespace(self, namespace: str) -> dict:
        """Evict one local-cache namespace on every alive worker (and
        the coordinator's decode cache); see
        :meth:`FleetCoordinator.invalidate_namespace`."""
        return self.coordinator.invalidate_namespace(namespace)

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (crash-injection for tests); returns pid."""
        process = self._processes[index]
        pid = process.pid
        process.kill()
        process.join(timeout=5)
        return pid

    # ------------------------------------------------------------------ #
    # Supervision (opt-in; see __init__)
    # ------------------------------------------------------------------ #

    def _supervise_loop(self) -> None:
        """Heartbeat thread: detect dead workers, respawn, quarantine."""
        while not self._stopped:
            self._supervisor_wake.wait(self.heartbeat_seconds)
            if self._stopped or self.coordinator is None:
                return
            if self.coordinator.draining:
                continue
            for worker in self.coordinator.workers:
                if self._stopped:
                    return
                if worker.state == "quarantined":
                    continue
                self._check_worker(worker)

    def _check_worker(self, worker) -> None:
        from repro.net.client import TransportError, http_request

        process = worker.process
        if process is not None and not process.is_alive():
            if worker.alive:
                self.coordinator.mark_dead(worker)
            self._respawn(worker)
            return
        if not worker.alive:
            # The dispatcher declared it dead (TransportError mid-batch)
            # even though the OS may still be reaping it.
            self._respawn(worker)
            return
        # Liveness probe: catches a wedged-but-running worker, and
        # carries back the degraded flag a respawned worker raises when
        # it cold-started from the spool with the store unreachable.
        try:
            payload = http_request(
                "GET", f"{worker.url}/healthz",
                timeout=max(self.heartbeat_seconds, 1.0),
            ).json()
        except (TransportError, ValueError):
            failures = self._probe_failures.get(worker.index, 0) + 1
            self._probe_failures[worker.index] = failures
            if failures >= 3:
                self.coordinator.mark_dead(worker)
                self._respawn(worker)
            return
        self._probe_failures[worker.index] = 0
        worker.degraded = bool(payload.get("degraded", False))

    def _respawn(self, worker) -> None:
        """One respawn attempt with exponential backoff.

        Uses the ``spawn`` multiprocessing context: by the time a worker
        needs replacing this process runs server threads, and forking a
        multi-threaded parent can duplicate a held lock into the child
        (the exact hazard the start-before-threads rule exists for).
        ``WorkerSpec`` is picklable by design, so spawn costs only a
        fresh interpreter — and the model cold start is warm anyway
        whenever the store spool (``cache_dir``) survived the crash.
        """
        index = worker.index
        worker.state = "respawning"
        old = worker.process
        if old is not None:
            if old.is_alive():
                old.kill()
            old.join(timeout=5)
        failures = self._respawn_failures.get(index, 0)
        delay = min(
            self.respawn_backoff_seconds * (2 ** failures),
            self.respawn_backoff_max,
        )
        if self._supervisor_wake.wait(delay) or self._stopped:
            return
        context = multiprocessing.get_context("spawn")
        try:
            process, receiver = self._spawn_worker(index, context)
        except Exception:
            self._note_respawn_failure(worker)
            return
        try:
            report = self._await_ready(index, receiver)
        except RuntimeError:
            if process.is_alive():
                process.kill()
            process.join(timeout=5)
            self._note_respawn_failure(worker)
            return
        if self._stopped:
            process.kill()
            process.join(timeout=5)
            return
        self._processes[index] = process
        self._respawn_failures[index] = 0
        worker.revive(
            report["port"], process,
            degraded=bool(report.get("degraded", False)),
        )

    def _note_respawn_failure(self, worker) -> None:
        failures = self._respawn_failures.get(worker.index, 0) + 1
        self._respawn_failures[worker.index] = failures
        if failures >= self.max_respawns:
            worker.state = "quarantined"

    # ------------------------------------------------------------------ #

    def _kill_all(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=2)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain, stop workers gracefully, tear everything down."""
        if self._stopped:
            return
        self._stopped = True
        self._supervisor_wake.set()
        if self._supervisor_thread is not None:
            self._supervisor_thread.join(timeout=10)
        if self.coordinator is not None and drain:
            self.coordinator.drain(timeout=timeout)
        if self.coordinator is not None:
            from repro.net.client import TransportError, http_json

            for worker in self.coordinator.workers:
                if not worker.alive:
                    continue
                try:
                    http_json("POST", f"{worker.url}/shutdown", {},
                              timeout=2.0)
                except TransportError:
                    pass
        self._kill_all()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5)
        if self.shared is not None:
            self.shared.unlink()
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "FleetManager":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _connection_refused(error: BaseException) -> bool:
    """Whether a TransportError wraps a refused TCP connect.

    Refused-connect is the one transport failure that is always safe to
    retry blindly: the server never accepted the connection, so the
    request cannot have had any effect. It is also exactly what a
    ``fleet start`` client sees in the window between the coordinator
    process launching and its socket binding.
    """
    cause = error.__cause__
    return isinstance(cause, ConnectionRefusedError)


class FleetClient:
    """JSON-RPC consumer of a coordinator (CLI ``fleet scan|status``).

    ``connect_retry`` (a :class:`repro.net.retry.RetryPolicy`) bounds
    how long the client re-dials a refused connection before giving up —
    closing the ``fleet start`` race where the daemonized coordinator's
    socket is not bound yet when the first health poll arrives. Only
    refused connects are retried; a reset or timeout mid-request is
    surfaced immediately (the request may have been acted on).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 *, connect_retry=None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if connect_retry is None:
            from repro.net.retry import RetryPolicy

            connect_retry = RetryPolicy(
                attempts=10, base_delay=0.05, max_delay=0.5
            )
        self.connect_retry = connect_retry

    def _exchange(self, send):
        return self.connect_retry.call(
            send, should_retry=_connection_refused
        )

    def rpc(self, method: str, params: dict | None = None):
        from repro.net.client import http_json

        response = self._exchange(lambda: http_json(
            "POST", f"{self.base_url}/rpc",
            {"jsonrpc": "2.0", "id": 1, "method": method,
             "params": params or {}},
            timeout=self.timeout,
        ))
        try:
            payload = response.json()
        except ValueError:
            payload = {}
        if "error" in payload:
            error = payload["error"]
            raise FleetRpcError(
                response.status, int(error.get("code", 0)),
                str(error.get("message", "")),
            )
        if not response.ok:
            raise FleetRpcError(response.status, 0,
                                response.body[:200].decode("latin-1"))
        return payload.get("result")

    def scan(self, addresses, codes, *, block_number: int = 0,
             timestamp: int | None = None) -> list[dict]:
        hex_codes = [
            c if isinstance(c, str) else bytes(c).hex() for c in codes
        ]
        params = {
            "addresses": list(addresses),
            "codes": hex_codes,
            "block_number": block_number,
        }
        if timestamp is not None:
            params["timestamp"] = timestamp
        return self.rpc("scan", params)["results"]

    def status(self) -> dict:
        return self.rpc("status")

    def invalidate(self, namespace: str) -> dict:
        """Fleet-wide namespace eviction; returns per-worker counts."""
        return self.rpc("invalidate", {"namespace": namespace})

    def ping(self) -> bool:
        return bool(self.rpc("ping").get("pong"))

    def healthz(self) -> dict:
        from repro.net.client import http_request

        return self._exchange(lambda: http_request(
            "GET", f"{self.base_url}/healthz", timeout=self.timeout
        )).json()

    def shutdown(self) -> bool:
        from repro.net.client import TransportError, http_json

        try:
            return http_json(
                "POST", f"{self.base_url}/shutdown", {},
                timeout=self.timeout,
            ).ok
        except TransportError:
            # The coordinator may die between the reply and our read.
            return True


# ---------------------------------------------------------------------- #
# Daemon state file (``phishinghook fleet start`` writes it; status/
# scan/stop read it back)
# ---------------------------------------------------------------------- #


def save_fleet_state(path, *, url: str, pid: int | None = None) -> None:
    state = {"url": url, "pid": pid if pid is not None else os.getpid()}
    Path(path).write_text(json.dumps(state, indent=2) + "\n",
                          encoding="utf-8")


def load_fleet_state(path) -> dict:
    """Read a fleet state file; raises ``FileNotFoundError`` when no
    fleet was started and ``ValueError`` on a corrupt file."""
    text = Path(path).read_text(encoding="utf-8")
    state = json.loads(text)
    if "url" not in state:
        raise ValueError(f"fleet state file {path} has no url")
    return state
