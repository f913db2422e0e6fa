"""Minimal stdlib HTTP client shared by every wire consumer in the repo.

``http.client`` with four opinions layered on top:

* every request carries a **timeout** (an unresponsive peer must cost a
  bounded amount of wall clock, never a hung worker thread),
* every transport-level failure — refused connection, reset, timeout,
  malformed response — surfaces as one typed
  :class:`TransportError` (a ``ConnectionError`` subclass), so callers
  like the fleet coordinator can catch exactly "the peer is gone" and
  reroute, without accidentally swallowing programming errors,
* responses are fully read before returning (:class:`HttpResponse` is a
  plain value), so a connection is idle again the moment a request
  returns,
* connections to one ``host:port`` are **kept open** by an
  :class:`HttpSession`, which reuses an idle connection for the next
  request instead of paying a TCP handshake and a server thread per
  exchange. Each connection sets ``TCP_NODELAY`` right after
  ``connect``: with Nagle on, a keep-alive exchange waits for the
  peer's delayed ACK (~40 ms on loopback). A session is thread-safe:
  a request checks an idle connection out and back in under a lock, so
  a session never holds more idle connections than it ever had
  requests in flight at once. A peer may close an idle connection at
  any time, so a *reused* connection that fails before any response
  byte arrives (the peer hung up, or reset the connection on send) is
  retried once on a fresh connection; nothing else is retried.
  :func:`http_request` is a one-shot session: it opens one connection
  and closes it before returning.

Non-2xx statuses are *not* errors here: an HTTP 404 or 429 is a
successful conversation with a live peer, and each caller maps status
codes to its own domain (``KeyError`` for a missing store object,
shed/retry for an overloaded worker).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
import weakref
from dataclasses import dataclass, field

from repro import faults

__all__ = ["DEFAULT_TIMEOUT", "HttpResponse", "HttpSession",
           "TransportError", "http_request", "http_json"]

#: Default per-request timeout (seconds). Generous for scan batches;
#: latency-sensitive callers (webhook sinks, health probes) pass less.
DEFAULT_TIMEOUT = 10.0


class TransportError(ConnectionError):
    """The peer was unreachable, hung up mid-conversation, or timed out.

    Exactly the failure class a dispatcher may respond to by declaring
    the peer dead and rerouting; anything else that escapes
    :func:`http_request` is a caller bug, not a network condition.
    """


@dataclass(frozen=True)
class HttpResponse:
    """One fully-buffered HTTP response (headers lower-cased)."""

    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self):
        """Decode the body as JSON (raises ``ValueError`` on garbage)."""
        return json.loads(self.body.decode("utf-8"))


def _json_body(payload, headers: dict[str, str] | None):
    """``(body, headers)`` for a JSON request (no body for ``None``)."""
    merged = dict(headers or {})
    if payload is None:
        return None, merged
    merged.setdefault("Content-Type", "application/json")
    return json.dumps(payload).encode("utf-8"), merged


def _close_idle(idle: list, lock: threading.Lock) -> None:
    with lock:
        connections = idle[:]
        idle.clear()
    for connection in connections:
        connection.close()


def _send(connection, method: str, path: str, body, headers):
    """Send one request and wait for the response's status line."""
    connection.request(method, path, body=body, headers=headers)
    return connection.getresponse()


class HttpSession:
    """Keep-alive connections to one ``http(s)://host:port`` origin.

    Connections open lazily on the first request and are kept for the
    next one (see the module docstring for the reuse and retry rules).
    :meth:`close` closes the idle ones; a connection in use when the
    session closes is closed when its request returns. A session that is
    dropped without :meth:`close` closes its idle connections when it is
    garbage collected.
    """

    def __init__(self, url: str):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", "https"):
            raise ValueError(
                f"an HTTP session needs an http(s):// URL, got {url!r}"
            )
        if not parsed.hostname:
            raise ValueError(f"no host in URL {url!r}")
        self.base_url = f"{parsed.scheme}://{parsed.netloc}"
        self._host = parsed.hostname
        self._port = parsed.port
        self._connection_class = (
            http.client.HTTPSConnection
            if parsed.scheme == "https"
            else http.client.HTTPConnection
        )
        self._idle: list = []
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(
            self, _close_idle, self._idle, self._lock
        )

    def close(self) -> None:
        """Close every idle connection and pool none from now on."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def _connect(self, timeout: float):
        connection = self._connection_class(
            self._host, self._port, timeout=timeout
        )
        connection.connect()
        # Recent http.client versions set this too; the session does not
        # rely on it, because keep-alive with Nagle on costs ~40 ms per
        # exchange (see the module docstring).
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def _checkout(self, timeout: float):
        """``(connection, reused)``: an idle connection, else a new one."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self._connect(timeout), False
        connection.timeout = timeout
        connection.sock.settimeout(timeout)
        return connection, True

    def _checkin(self, connection) -> None:
        # ``sock`` is None once http.client closed a connection the peer
        # announced it would close (``Connection: close``, HTTP/1.0).
        with self._lock:
            if connection.sock is not None and self._finalizer.alive:
                self._idle.append(connection)
                return
        connection.close()

    def request(
        self,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> HttpResponse:
        """One HTTP exchange on ``path``; returns :class:`HttpResponse`,
        raises :class:`TransportError` on any transport-level failure."""
        url = f"{self.base_url}{path}"
        headers = headers or {}
        connection = None
        try:
            # Fault points (no-ops without an installed FaultPlan).
            # Injected drops raise inside this block so they surface
            # through the same TransportError wrapping as a real
            # refused/reset connection, and are never retried.
            fault = faults.fire("http.request", context=f"{method} {url}")
            if fault is not None and fault.action == "drop":
                raise faults.InjectedFault(
                    f"injected drop before {method} {url}"
                )
            connection, reused = self._checkout(timeout)
            try:
                response = _send(connection, method, path, body, headers)
            except (BrokenPipeError, ConnectionResetError):
                # No response byte arrived. On a reused connection that
                # means the peer closed it while idle: retry once, fresh.
                if not reused:
                    raise
                connection.close()
                connection = self._connect(timeout)
                response = _send(connection, method, path, body, headers)
            data = response.read()
            fault = faults.fire("http.response", context=f"{method} {url}")
            if fault is not None:
                if fault.action == "drop":
                    raise faults.InjectedFault(
                        f"injected drop after {method} {url}"
                    )
                if fault.action == "corrupt":
                    data = bytes(byte ^ 0xFF for byte in data)
        except (OSError, http.client.HTTPException) as error:
            if connection is not None:
                connection.close()
            raise TransportError(
                f"{method} {url}: {error or type(error).__name__}"
            ) from error
        self._checkin(connection)
        return HttpResponse(
            status=response.status,
            reason=response.reason or "",
            headers={k.lower(): v for k, v in response.getheaders()},
            body=data,
        )

    def json(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        """JSON-in convenience over :meth:`request`."""
        body, merged = _json_body(payload, headers)
        return self.request(method, path, body=body, headers=merged,
                            timeout=timeout)


def http_request(
    method: str,
    url: str,
    *,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> HttpResponse:
    """One HTTP exchange on a fresh connection, closed before returning;
    returns :class:`HttpResponse`, raises :class:`TransportError` on any
    transport-level failure.

    ``url`` must be ``http://`` or ``https://``; anything else is a
    ``ValueError`` (a caller bug, not a network condition).
    """
    session = HttpSession(url)
    parsed = urllib.parse.urlsplit(url)
    path = parsed.path or "/"
    if parsed.query:
        path = f"{path}?{parsed.query}"
    try:
        return session.request(method, path, body=body, headers=headers,
                               timeout=timeout)
    finally:
        session.close()


def http_json(
    method: str,
    url: str,
    payload=None,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    headers: dict[str, str] | None = None,
) -> HttpResponse:
    """JSON-in convenience over :func:`http_request`."""
    body, merged = _json_body(payload, headers)
    return http_request(
        method, url, body=body, headers=merged, timeout=timeout
    )
