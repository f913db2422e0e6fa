"""Generated request heads and bodies against the live fleet servers.

Whatever bytes arrive, the coordinator's ``/rpc`` and a worker's
``/scan`` must answer each request with a 4xx (after at most an interim
``100 Continue``; an unknown method or HTTP version gets the protocol's
501 or 505) or close the connection, promptly; never a 500, a hang, or
a handler thread left behind, and a well-formed request on a fresh
connection still gets its 200 afterwards. Each example half-closes
its connection after sending, so a server waiting for more bytes sees
the end of the stream instead of stalling the test.
"""

import json
import re
import socket
import time

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
_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*\r\n")


def _statuses(reply: bytes) -> list[int]:
    """Every response status in a reply stream (JSON bodies skipped by
    their ``Content-Length``, which the fleet servers always send)."""
    statuses = []
    while reply:
        match = _STATUS.match(reply)
        assert match is not None, f"unframed reply bytes {reply[:80]!r}"
        head, _, rest = reply.partition(b"\r\n\r\n")
        length = re.search(rb"\r\nContent-Length: (\d+)", head)
        size = int(length[1]) if length else 0
        statuses.append(int(match[1]))
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


def _check(server, request, probe: bytes) -> None:
    head, body = request
    for status in _statuses(_send(server, head + body)):
        assert status in _ALLOWED or 400 <= status < 500, (
            f"{status} for {(head + body)[:120]!r}")
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
