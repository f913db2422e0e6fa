"""HTTP/1.1 message framing shared by the fleet's client and servers.

The stdlib parses every message head with ``email.parser`` and writes a
message's head and body in two sends. On the fleet's hot path (a few KB
of JSON per exchange over loopback) that machinery was a large share of
each exchange, so both ends frame messages here instead, and each end
writes a whole message with one ``sendall``. The wire stays plain
HTTP/1.1: curl and any other HTTP client or server interoperate.

Parsing is strict and bounded, with the stdlib's limits: a line is at
most :data:`MAX_LINE` bytes and a head carries at most
:data:`MAX_HEADERS` header lines. A malformed, over-long or truncated
message raises :class:`FramingError`, whose ``status`` is the HTTP
status a server answers it with (a client turns it into a
``TransportError``).
"""

from __future__ import annotations

import re

__all__ = ["MAX_HEADERS", "MAX_LINE", "FramingError", "content_length",
           "read_exact", "read_headers", "read_line", "tokens"]

#: Longest request, status or header line accepted, in bytes.
MAX_LINE = 65536
#: Most header lines accepted in one head.
MAX_HEADERS = 100

#: A header field name (RFC 9110 ``token``).
_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
#: Bodies are read in pieces of at most this size, so a lying
#: ``Content-Length`` costs no more memory than the bytes really sent.
_READ_PIECE = 1 << 20


class FramingError(Exception):
    """A malformed, truncated or over-long HTTP message."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_line(rfile, too_long_status: int = 431) -> bytes:
    """One line, ``b""`` at end of stream; :class:`FramingError` when it
    is longer than :data:`MAX_LINE`."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError("line too long", too_long_status)
    return line


def read_headers(rfile) -> dict[str, str]:
    """The header lines up to the blank line, keyed by lower-cased name.

    A repeated header's values are joined with ``", "`` (a field list),
    except that repeats of one ``Content-Length`` value collapse to it,
    so only lengths that conflict become unparseable.
    """
    headers: dict[str, str] = {}
    count = 0
    while True:
        line = read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise FramingError("message head ended early")
        if count == MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} headers", 431)
        count += 1
        name, colon, value = line.partition(b":")
        if not colon or not _TOKEN.fullmatch(name):
            raise FramingError("malformed header line")
        key = name.decode("ascii").lower()
        text = value.strip(b" \t\r\n").decode("latin-1")
        previous = headers.get(key)
        if previous is not None and not (
                key == "content-length" and previous == text):
            text = f"{previous}, {text}"
        headers[key] = text


def content_length(headers: dict[str, str]) -> int | None:
    """The ``Content-Length``, ``None`` when absent; :class:`FramingError`
    unless it is one plain ASCII decimal (no sign, no ``_``)."""
    value = headers.get("content-length")
    if value is None:
        return None
    if not (value.isascii() and value.isdigit()):
        raise FramingError(f"unusable Content-Length {value[:40]!r}")
    return int(value)


def tokens(headers: dict[str, str], name: str) -> set[str]:
    """The lower-cased comma-separated values of header ``name``."""
    return {token.strip() for token in
            headers.get(name, "").lower().split(",")}


def read_exact(rfile, length: int) -> bytes:
    """Exactly ``length`` bytes; :class:`FramingError` when the stream
    ends first."""
    pieces = []
    remaining = length
    while remaining:
        piece = rfile.read(min(remaining, _READ_PIECE))
        if not piece:
            raise FramingError(
                f"message body ended {remaining} bytes early")
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)
