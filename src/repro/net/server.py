"""HTTP/1.1 JSON server plumbing shared by the fleet coordinator and workers.

Both fleet servers keep their connections open between requests, so the
coordinator's :class:`~repro.net.client.HttpSession`\\ s (and a
:class:`~repro.net.fleet.FleetClient`'s) reuse one TCP connection and
one server thread per concurrent caller instead of paying both per
exchange. Keep-alive puts three obligations on a handler, met here once:

* **No Nagle.** ``http.server`` writes a response's headers and body in
  separate sends; with Nagle on, the body waits for the client's delayed
  ACK (~40 ms on loopback) on every kept-alive exchange.
* **Every request body is read,** on every route, before replying:
  unread bytes would be parsed as the next request on the connection.
  A body whose length cannot be known closes the connection instead.
* **Closing the server hangs up idle connections.** A handler thread
  waits on its idle connection for the client's next request, and
  ``ThreadingHTTPServer.server_close`` joins those threads; without the
  hang-up, stopping a server would wait for every client to go away.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["JsonHandler", "KeepAliveServer", "list_of"]


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


class JsonHandler(BaseHTTPRequestHandler):
    """Keep-alive request handler answering JSON (see module docs)."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # Servers answer one coordinator or client on loopback; access logs
    # would just interleave with test output.
    def log_message(self, *args):  # noqa: D102
        pass

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` (and the connection closes
        after the reply) when ``Content-Length`` is not a valid length."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            return None
        return self.rfile.read(length)

    def _reply(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


class KeepAliveServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose close hangs up open connections."""

    daemon_threads = True

    def __init__(self, address, handler):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

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
