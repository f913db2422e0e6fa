"""Generated request heads and bodies against the live servers.

Whatever bytes arrive, the coordinator's ``/rpc``, a worker's ``/scan``
and the store server (read-only and writable) must answer each request
with a 4xx (after at most an interim ``100 Continue``; an unknown method
or HTTP version gets the protocol's 501 or 505) or close the
connection, promptly; never a 500, a hang, or a handler thread left
behind, and a well-formed request on a fresh connection still gets its
200 afterwards. The store also answers well-formed requests (``GET /``,
a ``PUT`` to a writable store) with a 2xx. Each example half-closes its
connection after sending, so a server waiting for more bytes sees the
end of the stream instead of stalling the test.
"""

import json
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_EXAMPLES = 60

_METHOD = st.sampled_from([b"POST", b"GET", b"PUT", b"HEAD", b"post",
                           b"BREW", b""]) | st.binary(max_size=12)
_TARGET = st.sampled_from([b"/rpc", b"/scan", b"/", b"*", b"//rpc",
                           b"/rpc?x=1"]) | st.from_regex(
                               rb"\A/x[!-~]{0,20}\Z")
_VERSION = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0",
                            b"HTTP/0.9", b"HTTP/1.1x", b"http/1.1", b""])
_NAME = st.sampled_from([b"Content-Length", b"Transfer-Encoding",
                         b"Expect", b"Connection", b"Host", b"X-Any",
                         b"Bad Name", b""]) | st.binary(max_size=12)
_VALUE = st.sampled_from([b"0", b"4", b"16", b"1_0", b"+7", b"-1",
                          "٥".encode(), b"99999999999", b"chunked",
                          b"100-continue", b"close", b"keep-alive",
                          b""]) | st.binary(max_size=24)
_LINE_END = st.sampled_from([b"\r\n", b"\n", b"\r", b""])


@st.composite
def _structured_head(draw) -> bytes:
    request_line = b" ".join([draw(_METHOD), draw(_TARGET),
                              draw(_VERSION)])
    fields = draw(st.lists(st.tuples(_NAME, _VALUE), max_size=6))
    end = draw(_LINE_END)
    return (request_line + end
            + b"".join(name + b": " + value + end for name, value in fields)
            + end)


_REQUEST = st.tuples(_structured_head() | st.binary(max_size=200),
                     st.binary(max_size=64))

#: Besides a 4xx: an interim 100, and the protocol refusals of an
#: unknown method (501) or HTTP version (505), which close the
#: connection like every framing error. A 500 never passes.
_ALLOWED = {100, 501, 505}
#: The store's answers to well-formed requests.
_STORE_ALLOWED = _ALLOWED | set(range(200, 300))
_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*\r\n")


def _is_head(data: bytes) -> bool:
    """Whether the first request in ``data`` is a HEAD, read the way the
    server reads a request line (three fields, ended by a newline)."""
    line, newline, _ = data.partition(b"\n")
    parts = line.split()
    return bool(newline) and len(parts) == 3 and parts[0] == b"HEAD"


def _statuses(reply: bytes, to_head: bool = False) -> list[int]:
    """Every response status in a reply stream. Bodies are skipped by
    their ``Content-Length``, which the servers always send, except the
    final answer to a leading HEAD request (``to_head``): it has none."""
    statuses = []
    while reply:
        match = _STATUS.match(reply)
        assert match is not None, f"unframed reply bytes {reply[:80]!r}"
        head, _, rest = reply.partition(b"\r\n\r\n")
        length = re.search(rb"\r\nContent-Length: (\d+)", head)
        size = int(length[1]) if length else 0
        status = int(match[1])
        if to_head and status >= 200:
            # Later answers are to the requests that followed the HEAD.
            size, to_head = 0, False
        statuses.append(status)
        reply = rest[size:]
    return statuses


def _send(server, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the server closes; a
    read that times out means a hung handler."""
    chunks = []
    with socket.create_connection(server.server_address,
                                  timeout=5.0) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # answered and closed before reading everything
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            except TimeoutError:
                raise AssertionError(
                    f"no answer and no close for {data[:120]!r}") from None
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _wait_idle(server, timeout=2.0) -> None:
    deadline = time.monotonic() + timeout
    while server._connections:
        assert time.monotonic() < deadline, "a handler kept its connection"
        time.sleep(0.005)


def _check(server, request, probe: bytes, allowed=_ALLOWED) -> None:
    data = b"".join(request)
    for status in _statuses(_send(server, data), _is_head(data)):
        assert status in allowed or 400 <= status < 500, (
            f"{status} for {data[:120]!r}")
    _wait_idle(server)
    assert _statuses(_send(server, probe))[0] == 200


_FUZZ = settings(max_examples=_EXAMPLES, deadline=None)

_PING = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "ping"}).encode()


@_FUZZ
@given(request=_REQUEST)
def test_coordinator_rpc_survives_any_request(live_servers, request):
    _check(live_servers["coordinator"], request,
           b"POST /rpc HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
           % (len(_PING), _PING))


@_FUZZ
@given(request=_REQUEST)
def test_worker_scan_survives_any_request(live_servers, request):
    _check(live_servers["worker"], request,
           b"GET /healthz HTTP/1.1\r\n\r\n")


@pytest.fixture(scope="module", params=["read-only", "writable"])
def store_server(request, tmp_path_factory):
    from repro.artifacts import backend_from_url
    from repro.net import serve_store

    backend = backend_from_url(str(tmp_path_factory.mktemp("fuzz-store")))
    backend.put("rpc", b"artifact-bytes")
    server = serve_store(backend, "127.0.0.1", 0,
                         writable=request.param == "writable")
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@_FUZZ
@given(request=_REQUEST)
def test_store_survives_any_request(store_server, request):
    _check(store_server, request, b"GET / HTTP/1.1\r\n\r\n",
           _STORE_ALLOWED)


class TestReadDeadline:
    """Every read on a server connection has a deadline
    (``JsonHandler.timeout``, shortened here): a stalled request is
    answered 408 and closed, an idle keep-alive connection is closed
    without a reply, and a session's one retry covers that close."""

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        from repro.net.server import JsonHandler

        monkeypatch.setattr(JsonHandler, "timeout", 0.3)

    @staticmethod
    def _read_until_close(sock) -> tuple[bytes, float]:
        """Every byte the server sends before it closes, and how long
        the close took."""
        started = time.monotonic()
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        return b"".join(chunks), time.monotonic() - started

    def test_stalled_head_gets_a_closing_408(self, live_servers):
        server = live_servers["coordinator"]
        with socket.create_connection(server.server_address,
                                      timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x")
            reply, waited = self._read_until_close(sock)
        assert _statuses(reply) == [408]
        assert b"\r\nConnection: close\r\n" in reply
        assert waited < 4.0
        _wait_idle(server)

    def test_idle_keep_alive_connection_closes_without_reply(
            self, live_servers):
        server = live_servers["worker"]
        with socket.create_connection(server.server_address,
                                      timeout=5.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            reply, waited = self._read_until_close(sock)
        # One answer, kept alive, then the idle close: no second reply.
        assert _statuses(reply) == [200]
        assert b"Connection: close" not in reply
        assert waited < 4.0
        _wait_idle(server)

    def test_session_retries_once_on_a_server_closed_connection(
            self, live_servers, monkeypatch):
        from repro.net.client import HttpSession

        server = live_servers["worker"]
        host, port = server.server_address
        session = HttpSession(f"http://{host}:{port}")
        connect = session._connect
        opened = []

        def counting(timeout):
            opened.append(timeout)
            return connect(timeout)

        monkeypatch.setattr(session, "_connect", counting)
        try:
            assert session.request("GET", "/healthz").status == 200
            _wait_idle(server)  # the server closed the idle connection
            assert session.request("GET", "/healthz").status == 200
        finally:
            session.close()
        assert len(opened) == 2


class TestConnectionBound:
    """Past ``KeepAliveServer.max_connections`` open connections (2 here)
    a new connection gets a closing 503 and no handler thread; the open
    ones are still served, and a closed one frees its slot."""

    def test_connection_past_the_bound_gets_a_closing_503(
            self, live_servers, monkeypatch):
        from repro.net.server import KeepAliveServer

        monkeypatch.setattr(KeepAliveServer, "max_connections", 2)
        server = live_servers["coordinator"]
        _wait_idle(server)
        ping = (b"POST /rpc HTTP/1.1\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(_PING), _PING))
        idle = [socket.create_connection(server.server_address, timeout=5.0)
                for _ in range(2)]
        try:
            with socket.create_connection(server.server_address,
                                          timeout=5.0) as third:
                reply = TestReadDeadline._read_until_close(third)[0]
            assert _statuses(reply) == [503]
            assert b"\r\nConnection: close\r\n" in reply
            assert len(server._connections) == 2
            idle[0].sendall(ping)
            assert _statuses(
                TestReadDeadline._read_until_close(idle[0])[0]) == [200]
        finally:
            for sock in idle:
                sock.close()
        _wait_idle(server)
        assert _statuses(_send(server, ping)) == [200]
