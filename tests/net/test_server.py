"""The fleet servers' HTTP/1.1 framing, spoken to over raw sockets.

``JsonHandler`` parses request heads itself (``repro.net.framing``), so
these tests pin what a stdlib server would have done for it: the error
status of each malformed head, ``Connection: close`` on every error,
HTTP/1.0 and ``Expect: 100-continue`` handling, strict
``Content-Length`` parsing on the real coordinator and worker, and one
send per message on both ends.
"""

import json
import re
import socket
import threading

import pytest

from repro.net.client import HttpSession
from repro.net.server import JsonHandler, KeepAliveServer


class _Echo(JsonHandler):
    """Answers every request with its path and body length."""

    def do_GET(self):  # noqa: N802
        self._reply(200, {"path": self.path})

    def do_POST(self):  # noqa: N802
        self._reply(200, {"path": self.path,
                          "length": len(self._read_body())})


class _SendSpy:
    """A socket stand-in that records the size of every ``sendall``."""

    def __init__(self, sock, sends: list):
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingEcho(_Echo):
    sends: list = []

    def setup(self):
        self.request = _SendSpy(self.request, type(self).sends)
        super().setup()


@pytest.fixture()
def echo():
    server = KeepAliveServer(("127.0.0.1", 0), _CountingEcho)
    _CountingEcho.sends = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.server_address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _until_closed(sock) -> bytes:
    """Everything the server sends until it closes the connection
    (a read timeout fails the test: the server kept it open)."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break  # closed with request bytes still unread: also a close
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _exchange(server, data: bytes, *, half_close=False) -> bytes:
    """Send ``data`` on a fresh connection; return the whole reply
    stream once the server has closed the connection."""
    with _connect(server) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before reading it all
        return _until_closed(sock)


def _head(reply: bytes) -> tuple[int, dict]:
    """Status and lower-cased headers of the first response in ``reply``."""
    head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
    status = int(re.fullmatch(r"HTTP/1\.1 (\d{3}) .*", head[0])[1])
    headers = {}
    for line in head[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


class TestMalformedHeads:
    """Each broken head is answered with the stdlib's status and the
    connection closes."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /\r\n\r\n", 400),
        (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
        (b"GET / HTTP/x.y\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\n folded: v\r\n\r\n", 400),
        (b"GET /" + b"a" * 65600 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 65600 + b"\r\n\r\n", 431),
        (b"GET / HTTP/1.1\r\n" + b"X-H: v\r\n" * 101 + b"\r\n", 431),
        (b"BREW /pot HTTP/1.1\r\nHost: x\r\n\r\n", 501),
        (b"GET / HTTP/2.0\r\nHost: x\r\n\r\n", 505),
        (b"GET / HTTP/0.9\r\nHost: x\r\n\r\n", 505),
        (b"GET / HTTP/1.1\r\nExpect: tea\r\n\r\n", 417),
    ], ids=["no-spaces", "two-words", "four-words", "bad-version",
            "no-colon", "space-in-name", "obs-fold", "long-target",
            "long-header", "101-headers", "unknown-method", "http2",
            "http09", "unknown-expect"])
    def test_answered_and_closed(self, echo, request_bytes, status):
        reply = _exchange(echo, request_bytes)
        got, headers = _head(reply)
        assert got == status
        assert headers["connection"] == "close"
        assert "error" in json.loads(reply.split(b"\r\n\r\n", 1)[1])

    def test_the_header_limit_is_one_hundred(self, echo):
        reply = _exchange(echo, b"GET /ok HTTP/1.1\r\n"
                          + b"X-H: v\r\n" * 100
                          + b"Connection: close\r\n\r\n")
        assert _head(reply)[0] == 431  # 101 with the Connection line
        reply = _exchange(echo, b"GET /ok HTTP/1.1\r\n"
                          + b"X-H: v\r\n" * 99
                          + b"Connection: close\r\n\r\n")
        assert _head(reply)[0] == 200

    def test_http10_request_closes_after_its_reply(self, echo):
        reply = _exchange(echo, b"GET /old HTTP/1.0\r\n\r\n")
        status, headers = _head(reply)
        assert status == 200 and headers["connection"] == "close"
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == {
            "path": "/old"}

    def test_keep_alive_serves_pipelined_requests(self, echo):
        reply = _exchange(
            echo,
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
            b"GET /b HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        first, second = reply.split(b"HTTP/1.1 200 OK\r\n")[1:]
        assert b'{"path": "/a", "length": 3}' in first
        assert b'{"path": "/b"}' in second

    def test_expect_100_continue_gets_the_interim_response(self, echo):
        with _connect(echo) as sock:
            sock.sendall(b"POST /e HTTP/1.1\r\nContent-Length: 4\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"body")
            sock.shutdown(socket.SHUT_WR)
            reply = _until_closed(sock)
        assert _head(reply)[0] == 200
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["length"] == 4


class TestStrictContentLength:
    """Only one plain ASCII decimal is a length. Anything else, and any
    ``Transfer-Encoding``, is refused with ``Connection: close`` by both
    fleet servers, so no body byte can be read as the next request."""

    BODY = b"0123456789"

    @pytest.mark.parametrize("server", ["coordinator", "worker"])
    @pytest.mark.parametrize("fields, status", [
        ([b"Content-Length: 1_0"], 400),
        ([b"Content-Length: +10"], 400),
        (["Content-Length: ١٠".encode("utf-8")], 400),
        ([b"Content-Length: 10", b"Content-Length: 4"], 400),
        ([b"Transfer-Encoding: chunked"], 411),
    ], ids=["underscore", "plus-sign", "arabic-indic", "conflicting",
            "chunked"])
    def test_unusable_length_is_refused(self, live_servers, server, fields,
                                        status):
        route = {"coordinator": b"/rpc", "worker": b"/scan"}[server]
        reply = _exchange(
            live_servers[server],
            b"POST " + route + b" HTTP/1.1\r\n"
            + b"".join(field + b"\r\n" for field in fields)
            + b"\r\n" + self.BODY,
            half_close=True,
        )
        got, headers = _head(reply)
        assert got == status
        assert headers["connection"] == "close"
        assert reply.count(b"HTTP/1.1 ") == 1, "a body byte was parsed"

    def test_repeated_equal_lengths_are_one_length(self, echo):
        reply = _exchange(echo, b"POST /r HTTP/1.1\r\nContent-Length: 10"
                          b"\r\nContent-Length: 10\r\nConnection: close"
                          b"\r\n\r\n" + self.BODY)
        assert _head(reply)[0] == 200
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["length"] == 10


class TestOneSendPerMessage:
    def test_request_and_reply_each_go_out_in_one_sendall(self, echo):
        session = HttpSession(f"http://127.0.0.1:{echo.server_address[1]}")
        session.request("GET", "/")
        (connection,) = session._idle
        client_sends = []
        connection.sock = _SendSpy(connection.sock, client_sends)
        _CountingEcho.sends.clear()
        body = b"x" * 7000
        response = session.request("POST", "/batch", body=body)
        assert response.json() == {"path": "/batch", "length": 7000}
        assert len(client_sends) == 1 and client_sends[0] > len(body)
        assert _CountingEcho.sends == [len(_head_and_body(response))]
        session.close()


def _head_and_body(response) -> bytes:
    """The bytes of a :class:`_Echo` reply as the server framed it."""
    return (f"HTTP/1.1 {response.status} {response.reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(response.body)}\r\n\r\n").encode() \
        + response.body
