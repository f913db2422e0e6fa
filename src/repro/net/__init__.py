"""Distributed serving fleet over HTTP (``repro.net``).

Everything below one roof scaled *inside* a process: flat kernels
(:mod:`repro.ml.flat`), micro-batched streaming (:mod:`repro.stream`),
artifact cold starts (:mod:`repro.artifacts`). This package is the first
layer that crosses a process boundary — the ROADMAP's "millions of
users" north star needs real processes and a real wire:

* :mod:`repro.net.framing` — the strict, bounded HTTP/1.1 head parser
  both ends share, in place of the stdlib's ``email.parser``-based one,
* :mod:`repro.net.client` — the socket-level HTTP/1.1 client (timeouts,
  typed transport errors, keep-alive :class:`HttpSession`\\ s, one send
  per request) shared by every HTTP consumer in the repo (fleet
  dispatch, ``HttpStoreBackend``, the promoted ``WebhookSink``),
* :mod:`repro.net.server` — the keep-alive HTTP/1.1 JSON handler and
  server the coordinator and workers share (one send per reply),
* :mod:`repro.net.worker` — the worker process: one
  :class:`~repro.serve.service.ScanService` cold-started from the
  ModelStore behind a private HTTP port, fed bytecode inline as hex,
* :mod:`repro.net.coordinator` — whole-batch dispatch to the
  least-loaded worker, bounded per-worker admission control (429/shed
  or block), crash rerouting with zero lost events, drain-on-shutdown,
  and the public HTTP/JSON-RPC scan+monitor API,
* :mod:`repro.net.fleet` — :class:`FleetManager` (spawn/collect/stop
  lifecycle, plus opt-in worker supervision: heartbeat liveness,
  spawn-context respawn with exponential backoff, quarantine after
  repeated failures) and :class:`FleetClient` (the JSON-RPC consumer
  the CLI and tests use, with bounded refused-connect retry),
* :mod:`repro.net.retry` — the shared :class:`RetryPolicy` (jittered
  exponential backoff) and :class:`CircuitBreaker` (closed/open/
  half-open) every network edge uses,
* :mod:`repro.net.store_http` — the ``phishinghook store-serve``
  endpoint: any :class:`~repro.artifacts.backends.StoreBackend` served
  over HTTP with ETag headers, so fleet workers pull ``production``
  with no shared mount.

Failure behaviour is testable on purpose: :mod:`repro.faults` fault
points are compiled into the client, worker, and store server, and the
chaos suite drives seeded :class:`~repro.faults.FaultPlan`\\ s through
them asserting alert-set equality (or dead-letter accounting) after
every injected crash, 5xx storm, stall, and truncation.

The deploy rule engine knows this layer too: ``[fleet]`` and
``[fault_tolerance]`` configs are statically verified (rules D017–D024)
before anything forks.
"""

from repro.net.client import (
    HttpResponse,
    HttpSession,
    TransportError,
    http_json,
    http_request,
)
from repro.net.coordinator import (
    FleetCoordinator,
    NoWorkersError,
    OverloadedError,
    ShuttingDownError,
    WorkerHandle,
    WorkerRejectedError,
)
from repro.net.fleet import (
    FleetClient,
    FleetManager,
    FleetRpcError,
    load_fleet_state,
    save_fleet_state,
)
from repro.net.retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.net.store_http import serve_store
from repro.net.worker import WorkerSpec, worker_main

__all__ = [
    # client
    "HttpResponse",
    "HttpSession",
    "TransportError",
    "http_request",
    "http_json",
    # retry/breaker
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    # worker
    "WorkerSpec",
    "worker_main",
    # coordinator
    "FleetCoordinator",
    "WorkerHandle",
    "OverloadedError",
    "NoWorkersError",
    "ShuttingDownError",
    "WorkerRejectedError",
    # fleet
    "FleetManager",
    "FleetClient",
    "FleetRpcError",
    "save_fleet_state",
    "load_fleet_state",
    # store over http
    "serve_store",
]
