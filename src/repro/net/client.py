"""Minimal HTTP/1.1 client shared by every wire consumer in the repo.

Plain sockets framed by :mod:`repro.net.framing`, with four opinions:

* every request carries a **timeout** (an unresponsive peer must cost a
  bounded amount of wall clock, never a hung worker thread),
* every transport-level failure — refused connection, reset, timeout,
  malformed or over-long response head, truncated body — surfaces as
  one typed :class:`TransportError` (a ``ConnectionError`` subclass),
  so callers like the fleet coordinator can catch exactly "the peer is
  gone" and reroute, without accidentally swallowing programming
  errors,
* responses are fully read before returning (:class:`HttpResponse` is a
  plain value), so a connection is idle again the moment a request
  returns,
* connections to one ``host:port`` are **kept open** by an
  :class:`HttpSession`, which reuses an idle connection for the next
  request instead of paying a TCP handshake and a server thread per
  exchange. Each connection sets ``TCP_NODELAY`` right after
  ``connect``, and each request goes out in one ``sendall``: a head and
  body sent separately with Nagle on wait for the peer's delayed ACK
  (~40 ms on loopback). A session is thread-safe: a request checks an
  idle connection out and back in under a lock, so a session never
  holds more idle connections than it ever had requests in flight at
  once. A peer may close an idle connection at any time, so a *reused*
  connection that fails before any response byte arrives (the peer
  hung up, or reset the connection on send) is retried once on a fresh
  connection; nothing else is retried. :func:`http_request` is a
  one-shot session: it opens one connection and closes it before
  returning.

Responses may carry a ``Content-Length``, chunked or close-delimited
body; HEAD, 1xx, 204 and 304 responses have none, and interim 1xx
responses are skipped. ``https://`` origins go through an ``ssl``
socket verified against the default trust store.

Non-2xx statuses are *not* errors here: an HTTP 404 or 429 is a
successful conversation with a live peer, and each caller maps status
codes to its own domain (``KeyError`` for a missing store object,
shed/retry for an overloaded worker).
"""

from __future__ import annotations

import json
import re
import socket
import ssl
import threading
import urllib.parse
import weakref
from dataclasses import dataclass, field, replace

from repro import faults
from repro.net.framing import (
    FramingError,
    content_length,
    read_exact,
    read_headers,
    read_line,
    tokens,
)

__all__ = ["DEFAULT_TIMEOUT", "HttpResponse", "HttpSession",
           "TransportError", "http_request", "http_json"]

#: Default per-request timeout (seconds). Generous for scan batches;
#: latency-sensitive callers (webhook sinks, health probes) pass less.
DEFAULT_TIMEOUT = 10.0

_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?: ([^\r\n]*))?\r?\n")
#: Characters refused in a request method or target, and in a header
#: line: they would split or corrupt the message.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")
_UNSAFE_FIELD = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")


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


class _Connection:
    """One socket to the origin and the buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _start(connection: _Connection, message: bytes) -> bytes:
    """Send one request in one write; return its response's first line."""
    connection.sock.sendall(message)
    line = read_line(connection.rfile)
    if not line:
        raise ConnectionResetError("the peer closed the connection "
                                   "before responding")
    return line


def _read_chunked(rfile) -> bytes:
    """A chunked body; trailers are read and dropped."""
    pieces = []
    while True:
        size = read_line(rfile).split(b";", 1)[0].strip()
        if not _CHUNK_SIZE.fullmatch(size):
            raise FramingError(f"malformed chunk size {size[:20]!r}")
        length = int(size, 16)
        if length == 0:
            read_headers(rfile)
            return b"".join(pieces)
        pieces.append(read_exact(rfile, length))
        if read_line(rfile) not in (b"\r\n", b"\n"):
            raise FramingError("chunk data not followed by a line end")


def _read_response(rfile, line: bytes,
                   method: str) -> tuple[HttpResponse, bool]:
    """The response whose first line is ``line``, and whether its
    connection may carry another request."""
    while True:
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise FramingError(f"malformed status line {line[:80]!r}")
        headers = read_headers(rfile)
        status = int(match[2])
        if status >= 200:
            break
        line = read_line(rfile)  # an interim 1xx; the answer follows
    connection = tokens(headers, "connection")
    close = "close" in connection or (
        match[1] == b"0" and "keep-alive" not in connection)
    if method == "HEAD" or status in (204, 304):
        body = b""
    elif "transfer-encoding" in headers:
        last_coding = headers["transfer-encoding"].rsplit(",", 1)[-1]
        if last_coding.strip().lower() == "chunked":
            body = _read_chunked(rfile)
        else:
            body, close = rfile.read(), True
    else:
        length = content_length(headers)
        if length is None:
            body, close = rfile.read(), True
        else:
            body = read_exact(rfile, length)
    reason = (match[3] or b"").decode("latin-1")
    return HttpResponse(status, reason, headers, body), not close


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
        self._https = parsed.scheme == "https"
        self._port = parsed.port or (443 if self._https else 80)
        self._host_header = parsed.netloc.rpartition("@")[2]
        self._tls = None
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

    def _connect(self, timeout: float) -> _Connection:
        sock = socket.create_connection((self._host, self._port), timeout)
        try:
            # Keep-alive with Nagle on costs ~40 ms per exchange (see the
            # module docstring).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https:
                if self._tls is None:
                    self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock,
                                             server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _checkout(self, timeout: float) -> tuple[_Connection, bool]:
        """``(connection, reused)``: an idle connection, else a new one."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self._connect(timeout), False
        connection.sock.settimeout(timeout)
        return connection, True

    def _checkin(self, connection: _Connection, reusable: bool) -> None:
        with self._lock:
            if reusable and self._finalizer.alive:
                self._idle.append(connection)
                return
        connection.close()

    def _message(self, method: str, path: str, body: bytes | None,
                 headers: dict[str, str]) -> bytes:
        """The request's head and body as one buffer."""
        if _UNSAFE_TARGET.search(method + path):
            raise ValueError(f"unsafe request line {method} {path!r}")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self._host_header}"]
        for name, value in headers.items():
            line = f"{name}: {value}"
            if _UNSAFE_FIELD.search(line):
                raise ValueError(f"unsafe header {line[:80]!r}")
            lines.append(line)
        if "content-length" not in {name.lower() for name in headers} and (
                body is not None or method in ("POST", "PUT", "PATCH")):
            lines.append(f"Content-Length: {len(body or b'')}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body if body else head

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
        message = self._message(method, path, body, headers or {})
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
                line = _start(connection, message)
            except (BrokenPipeError, ConnectionResetError):
                # No response byte arrived. On a reused connection that
                # means the peer closed it while idle: retry once, fresh.
                if not reused:
                    raise
                connection.close()
                connection = self._connect(timeout)
                line = _start(connection, message)
            response, reusable = _read_response(connection.rfile, line,
                                                method)
            fault = faults.fire("http.response", context=f"{method} {url}")
            if fault is not None:
                if fault.action == "drop":
                    raise faults.InjectedFault(
                        f"injected drop after {method} {url}"
                    )
                if fault.action == "corrupt":
                    response = replace(response, body=bytes(
                        byte ^ 0xFF for byte in response.body))
        except (OSError, FramingError) as error:
            if connection is not None:
                connection.close()
            raise TransportError(
                f"{method} {url}: {error or type(error).__name__}"
            ) from error
        self._checkin(connection, reusable)
        return response

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
