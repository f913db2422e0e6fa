"""Unit tests for the HTTP client, its keep-alive sessions and its
response framing."""

import contextlib
import json
import shutil
import socket
import ssl
import subprocess
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


# ---------------------------------------------------------------------- #
# Response framing against scripted servers
# ---------------------------------------------------------------------- #


@contextlib.contextmanager
def _scripted(*responses, close=True):
    """A one-connection server that answers each request head it reads
    with the next of ``responses`` (raw bytes), then closes the
    connection, or with ``close=False`` holds it open until the block
    exits. Yields ``(url, heads)``; ``heads`` collects the request heads.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    heads, done = [], threading.Event()

    def serve():
        connection, _ = listener.accept()
        with connection, connection.makefile("rb") as reader:
            for response in responses:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = reader.readline()
                    if not line:
                        return
                    head += line
                heads.append(head)
                connection.sendall(response)
            if not close:
                done.wait(10)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", heads
    finally:
        done.set()
        thread.join(timeout=5)
        listener.close()


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def test_chunked_body_is_reassembled_and_the_connection_kept():
    chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"5\r\nhello\r\n6;name=value\r\n world\r\n0\r\n"
               b"X-Trailer: dropped\r\n\r\n")
    with _scripted(chunked, _OK) as (url, heads):
        session = HttpSession(url)
        assert session.request("GET", "/a").body == b"hello world"
        assert session.request("GET", "/b").body == b"ok"
        session.close()
    assert len(heads) == 2  # both on the one scripted connection


def test_http10_body_runs_to_the_close():
    with _scripted(b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\n"
                   b"until the peer hangs up") as (url, _):
        session = HttpSession(url)
        response = session.request("GET", "/")
        assert response.body == b"until the peer hangs up"
        assert session._idle == []
        session.close()


@pytest.mark.parametrize("method, response", [
    ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n"),
    ("GET", b"HTTP/1.1 204 No Content\r\n\r\n"),
    ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Length: 42\r\n\r\n"),
], ids=["head", "204", "304"])
def test_bodyless_responses_read_no_body(method, response):
    with _scripted(response, _OK) as (url, heads):
        session = HttpSession(url)
        first = session.request(method, "/")
        assert first.body == b""
        # Had the client waited for a body, the next response would be
        # read as one (or the request would time out).
        assert session.request("GET", "/", timeout=2.0).body == b"ok"
        session.close()
    assert len(heads) == 2


def test_interim_100_continue_is_skipped():
    with _scripted(b"HTTP/1.1 100 Continue\r\n\r\n" + _OK) as (url, _):
        response = http_request("POST", f"{url}/", body=b"{}")
    assert (response.status, response.body) == (200, b"ok")


def test_request_head_is_plain_http11():
    with _scripted(_OK) as (url, heads):
        http_request("POST", f"{url}/rpc?x=1", body=b"12345",
                     headers={"Content-Type": "application/json"})
    port = url.rsplit(":", 1)[1]
    assert heads == [
        b"POST /rpc?x=1 HTTP/1.1\r\n"
        + f"Host: 127.0.0.1:{port}\r\n".encode()
        + b"Content-Type: application/json\r\nContent-Length: 5\r\n\r\n"
    ]


@pytest.mark.parametrize("response", [
    b"HTTP/1.1 2OO OK\r\n\r\n",
    b"ICY 200 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n" + b"X-H: v\r\n" * 101 + b"\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 1_0\r\n\r\n0123456789",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
], ids=["bad-status", "not-http", "long-header", "101-headers",
        "bad-length", "bad-chunk"])
def test_malformed_response_is_a_prompt_transport_error(response):
    # The server holds the connection open: only the parser's own limit
    # may end the read, well before the timeout.
    with _scripted(response, close=False) as (url, _):
        started = time.monotonic()
        with pytest.raises(TransportError):
            http_request("GET", f"{url}/", timeout=5.0)
        assert time.monotonic() - started < 2.0


def test_truncated_body_is_a_transport_error():
    with _scripted(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
                   ) as (url, _):
        with pytest.raises(TransportError):
            http_request("GET", f"{url}/", timeout=5.0)


def test_unsafe_request_line_or_header_is_a_caller_error():
    session = HttpSession("http://127.0.0.1:9")
    with pytest.raises(ValueError):
        session.request("GET", "/a b")
    with pytest.raises(ValueError):
        session.request("GET", "/", headers={"X-Evil": "v\r\nInjected: 1"})


# ---------------------------------------------------------------------- #
# https
# ---------------------------------------------------------------------- #


@pytest.fixture()
def tls_server(tmp_path, monkeypatch):
    """A keep-alive server behind a self-signed certificate for
    127.0.0.1, trusted through ``SSL_CERT_FILE``."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not installed: no certificate to test with")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes",
         "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    httpd = KeepAliveServer(("127.0.0.1", 0), _KeepAliveHandler)
    httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"https://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def test_https_session_verifies_and_reuses_its_connection(tls_server):
    session = HttpSession(tls_server)
    ports = {session.request("GET", "/").json()["port"] for _ in range(3)}
    assert len(ports) == 1
    (connection,) = session._idle
    assert isinstance(connection.sock, ssl.SSLSocket)
    session.close()


def test_https_with_an_untrusted_certificate_is_a_transport_error(
        tls_server, monkeypatch, tmp_path):
    empty = tmp_path / "empty.pem"
    empty.write_text("")
    monkeypatch.setenv("SSL_CERT_FILE", str(empty))
    monkeypatch.setenv("SSL_CERT_DIR", str(tmp_path))
    with pytest.raises(TransportError) as excinfo:
        http_request("GET", f"{tls_server}/", timeout=5.0)
    assert isinstance(excinfo.value.__cause__, ssl.SSLError)
