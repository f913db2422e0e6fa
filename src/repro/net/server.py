"""HTTP/1.1 server plumbing shared by every server in the repo.

The fleet coordinator, its workers and ``store-serve`` keep their
connections open between requests, so a caller's
:class:`~repro.net.client.HttpSession` reuses one TCP connection and one
server thread per concurrent caller instead of paying both per
exchange. :class:`JsonHandler` reads each request head with the bounded
parser in :mod:`repro.net.framing`. Keep-alive puts three obligations on
a handler, met here once:

* **One send per message.** A reply's status line, headers and body go
  out in one ``sendall``, and Nagle is off: a head and body sent
  separately would make the body wait for the client's delayed ACK
  (~40 ms on loopback) on every kept-alive exchange.
* **Every request body is read,** on every route, before the handler
  runs: unread bytes would be parsed as the next request on the
  connection. A request whose body length cannot be known (a
  ``Content-Length`` that is not one plain decimal, or any
  ``Transfer-Encoding``) is answered 400 or 411 and the connection
  closes.
* **Closing the server hangs up idle connections.** A handler thread
  waits on its idle connection for the client's next request, and
  ``ThreadingTCPServer.server_close`` joins those threads; without the
  hang-up, stopping a server would wait for every client to go away.
* **No read waits forever.** A socket operation waits at most
  :attr:`JsonHandler.timeout` seconds: a stalled request gets a closing
  408, and an idle keep-alive connection closes without a reply (an
  :class:`~repro.net.client.HttpSession` retries once, fresh).
* **Open connections are bounded.** Each open connection holds a
  handler thread; past :attr:`KeepAliveServer.max_connections` a new
  connection is answered with a closing 503 and gets no thread.

A malformed head is answered 400, an over-long request line 414, an
over-long header line or more than 100 headers 431, an unknown method
501 and an HTTP version other than 1.x 505, each with
``Connection: close``. An HTTP/1.0 request is answered and closed;
``Expect: 100-continue`` gets its interim ``100 Continue``, and a reply
to a HEAD request is its head alone.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
from http import HTTPStatus

from repro.net.framing import (
    FramingError,
    content_length,
    read_exact,
    read_headers,
    read_line,
    tokens,
)

__all__ = ["JsonHandler", "KeepAliveServer", "list_of"]

_VERSION = re.compile(r"HTTP/(\d)\.(\d)")


def list_of(request: dict, key: str, kind: type) -> list:
    """``request[key]``, checked to be a JSON list of ``kind``.

    Raises ``KeyError`` when the key is missing and ``TypeError`` when
    the value is not such a list.
    """
    value = request[key]
    if not isinstance(value, list) or not all(
            isinstance(item, kind) for item in value):
        raise TypeError(f"{key!r} must be a list of {kind.__name__}")
    return value


class JsonHandler(socketserver.StreamRequestHandler):
    """Keep-alive request handler (see module docs).

    Subclasses define ``do_<METHOD>`` methods; each sees ``self.command``,
    ``self.path``, ``self.headers`` (keyed by lower-cased name) and the
    request body through :meth:`_read_body`, and answers with
    :meth:`_reply` (JSON) or :meth:`_send` (bytes). Setting
    ``self.close_connection`` closes the connection after the request.
    """

    disable_nagle_algorithm = True
    #: Seconds one socket operation may wait (``setup`` applies it).
    timeout = 30.0

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            try:
                if not self.rfile.peek(1):
                    return  # the client closed its end
            except OSError:
                return  # idle past the deadline, reset, or server_close
            try:
                route = self._read_request()
            except FramingError as error:
                self._refuse(error.status, str(error))
                return
            except TimeoutError:
                self._refuse(408, f"request not complete within "
                                  f"{self.timeout:g} s")
                return
            except OSError:
                return  # reset, or hung up by server_close
            route()

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request that cannot be served, and close."""
        self.close_connection = True
        try:
            self._reply(status, {"error": message})
        except OSError:
            pass  # the client is gone

    def _read_request(self):
        """Read one request head and body; return the ``do_*`` method
        that answers it."""
        self.command = None
        line = read_line(self.rfile, too_long_status=414)
        parts = line.split()
        if len(parts) != 3 or not line.endswith(b"\n"):
            raise FramingError("malformed request line")
        self.command, self.path, version = (part.decode("latin-1")
                                            for part in parts)
        self.headers = headers = read_headers(self.rfile)
        match = _VERSION.fullmatch(version)
        if match is None:
            raise FramingError(f"malformed HTTP version {version[:20]!r}")
        if match[1] != "1":
            raise FramingError(f"{version[:20]} is not supported", 505)
        route = getattr(self, f"do_{self.command}", None)
        if route is None:
            raise FramingError(
                f"method {self.command[:20]!r} not implemented", 501)
        http10 = match[2] == "0"
        self.close_connection = http10 or "close" in tokens(headers,
                                                             "connection")
        if "transfer-encoding" in headers:
            raise FramingError("send the body with a Content-Length", 411)
        length = content_length(headers) or 0
        expect = headers.get("expect")
        if expect is not None:
            if expect.lower() != "100-continue":
                raise FramingError(f"cannot meet Expect {expect[:40]!r}",
                                   417)
            if length and not http10:
                self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        self._body = read_exact(self.rfile, length)
        return route

    def _read_body(self) -> bytes:
        """The request body (read in full before the handler ran)."""
        return self._body

    def _reply(self, status: int, payload) -> None:
        """Send ``payload`` as a JSON response in one write."""
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json")

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict[str, str] | None = None) -> None:
        """Send one response in one write; ``headers`` follow (and may
        override) the type and length. A HEAD request gets the head only."""
        fields = {"Content-Type": content_type,
                  "Content-Length": str(len(body)), **(headers or {})}
        if self.close_connection:
            fields["Connection"] = "close"
        self.connection.sendall(_head(status, fields)
                                + (b"" if self.command == "HEAD" else body))


def _head(status: int, fields: dict[str, str]) -> bytes:
    """A response's status line and header fields, blank line included."""
    return "".join([f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n",
                    *(f"{name}: {value}\r\n"
                      for name, value in fields.items()),
                    "\r\n"]).encode("latin-1")


class KeepAliveServer(socketserver.ThreadingTCPServer):
    """``ThreadingTCPServer`` whose close hangs up open connections and
    whose open connections are bounded (see module docs)."""

    allow_reuse_address = True
    daemon_threads = True
    #: Open connections served at once; one more gets a closing 503.
    max_connections = 128

    def __init__(self, address, handler):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            admitted = len(self._connections) < self.max_connections
            if admitted:
                self._connections.add(request)
        if not admitted:
            self._refuse(request)
            return
        super().process_request(request, client_address)

    def _refuse(self, request) -> None:
        """Answer a connection past the bound with a closing 503."""
        body = json.dumps({"error": f"at most {self.max_connections} open "
                                    "connections are served"}).encode("utf-8")
        try:
            request.sendall(_head(503, {
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
                "Connection": "close",
            }) + body)
        except OSError:
            pass  # the client is gone
        self.shutdown_request(request)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        """Stop listening, hang up every connection, join the handlers."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client hung up first
        super().server_close()
