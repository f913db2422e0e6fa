"""Unit tests for the stdlib HTTP client wrapper and its keep-alive
sessions."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.faults import FaultPlan, FaultSpec, clear_plan
from repro.net.client import (
    HttpSession,
    TransportError,
    http_json,
    http_request,
)
from repro.net.server import JsonHandler, KeepAliveServer


class _EchoHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _reply(self, status, payload):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/teapot":
            self._reply(418, {"short": "stout"})
        else:
            self._reply(200, {"path": self.path})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        self._reply(200, {
            "echo": body,
            "content_type": self.headers.get("Content-Type", ""),
        })


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def test_get_roundtrip(server):
    response = http_request("GET", f"{server}/hello")
    assert response.ok
    assert response.status == 200
    assert response.json() == {"path": "/hello"}
    assert response.headers["content-type"] == "application/json"


def test_non_2xx_is_a_response_not_an_error(server):
    response = http_request("GET", f"{server}/teapot")
    assert not response.ok
    assert response.status == 418
    assert response.json() == {"short": "stout"}


def test_http_json_posts_with_content_type(server):
    response = http_json("POST", f"{server}/rpc", {"a": 1})
    payload = response.json()
    assert payload["echo"] == {"a": 1}
    assert payload["content_type"] == "application/json"


def test_connection_refused_is_transport_error():
    with pytest.raises(TransportError):
        # Port 9 (discard) is never listening in the test environment.
        http_request("GET", "http://127.0.0.1:9/", timeout=2.0)


def test_transport_error_is_a_connection_error():
    assert issubclass(TransportError, ConnectionError)


def test_non_http_scheme_rejected():
    with pytest.raises(ValueError):
        http_request("GET", "ftp://example.com/x")


# ---------------------------------------------------------------------- #
# Keep-alive sessions
# ---------------------------------------------------------------------- #


class _KeepAliveHandler(JsonHandler):
    """Answers with the client's port, so a test sees connection reuse.

    ``/slow`` sleeps past a short client timeout; ``/hangup`` answers
    and then closes the connection without announcing it, as a peer
    dropping an idle keep-alive connection does.
    """

    slow_requests = 0

    def do_GET(self):
        if self.path == "/slow":
            type(self).slow_requests += 1
            time.sleep(0.5)
        if self.path == "/hangup":
            self._reply(200, {"port": self.client_address[1]})
            self.close_connection = True
            return
        self._reply(200, {"port": self.client_address[1]})


@pytest.fixture()
def keepalive():
    httpd = KeepAliveServer(("127.0.0.1", 0), _KeepAliveHandler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield httpd, f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture()
def no_fault_plan():
    clear_plan()
    yield
    clear_plan()


def test_session_reuses_one_connection(keepalive):
    _, url = keepalive
    session = HttpSession(url)
    ports = {session.request("GET", "/").json()["port"] for _ in range(5)}
    assert len(ports) == 1
    session.close()


def test_http_request_closes_its_connection(keepalive):
    _, url = keepalive
    ports = {http_request("GET", f"{url}/").json()["port"]
             for _ in range(3)}
    assert len(ports) == 3


def test_session_sets_tcp_nodelay(keepalive):
    _, url = keepalive
    session = HttpSession(url)
    session.request("GET", "/")
    (connection,) = session._idle
    assert connection.sock.getsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY)
    session.close()


def test_connection_closed_by_peer_is_retried_once(keepalive):
    _, url = keepalive
    session = HttpSession(url)
    first = session.request("GET", "/hangup").json()["port"]
    # The pooled connection is dead; the retry opens a fresh one.
    second = session.request("GET", "/").json()["port"]
    assert first != second
    session.close()


def test_fresh_connection_failure_is_not_retried():
    session = HttpSession("http://127.0.0.1:9")
    with pytest.raises(TransportError) as excinfo:
        session.request("GET", "/", timeout=2.0)
    assert isinstance(excinfo.value.__cause__, ConnectionRefusedError)


def test_timeout_on_a_reused_connection_is_not_retried(keepalive):
    _, url = keepalive
    _KeepAliveHandler.slow_requests = 0
    session = HttpSession(url)
    session.request("GET", "/")
    with pytest.raises(TransportError):
        session.request("GET", "/slow", timeout=0.2)
    time.sleep(0.6)
    assert _KeepAliveHandler.slow_requests == 1
    session.close()


def test_injected_request_drop_is_not_retried(keepalive, no_fault_plan):
    _, url = keepalive
    session = HttpSession(url)
    port = session.request("GET", "/").json()["port"]
    plan = FaultPlan([FaultSpec("http.request", "drop", count=1)])
    with plan.installed():
        with pytest.raises(TransportError):
            session.request("GET", "/")
    assert (plan.specs[0].hits, plan.specs[0].fired) == (1, 1)
    # The drop happened before a connection was taken: the pooled one
    # is still there and still works.
    assert session.request("GET", "/").json()["port"] == port
    session.close()


def test_closed_session_pools_nothing(keepalive):
    _, url = keepalive
    session = HttpSession(url)
    session.request("GET", "/")
    session.close()
    assert session.closed and session._idle == []
    assert session.request("GET", "/").ok
    assert session._idle == []


def test_dropped_session_closes_its_connections(keepalive):
    _, url = keepalive
    session = HttpSession(url)
    session.request("GET", "/")
    sock = session._idle[0].sock
    del session
    assert sock.fileno() == -1


def test_server_close_hangs_up_idle_connections(keepalive):
    httpd, url = keepalive
    session = HttpSession(url)
    session.request("GET", "/")
    httpd.shutdown()
    closer = threading.Thread(target=httpd.server_close, daemon=True)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive(), "server_close waited on an idle client"
    session.close()
