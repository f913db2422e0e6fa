"""Serve any :class:`~repro.artifacts.backends.StoreBackend` over HTTP.

``phishinghook store-serve`` wraps a local store (``file://`` or
``bucket://``) in this tiny endpoint so fleet workers on other processes
— or other hosts — can pull ``production`` artifacts with no shared
mount. The wire protocol is deliberately dumb, a strict subset of what
any blob store speaks:

* ``GET /<key>``     → blob bytes, ``ETag`` header (content SHA-256 hex)
* ``HEAD /<key>``    → ``ETag`` + ``Content-Length``, no body
* ``GET /?prefix=p`` → JSON ``{"keys": [...]}`` (the list operation)
* ``PUT /<key>``     → store the body; JSON ``{"etag": ...}``
* ``DELETE /<key>``  → JSON ``{"deleted": bool}``

Writes are refused with HTTP 405 unless the server was started
``writable`` — the normal deployment is a read-only artifact mirror, and
a fleet must not be one misconfigured client away from mutating it. A
missing object is 404, a key the store cannot hold (outside its root, a
directory) 400, and an object the store cannot verify (a ``bucket://``
blob altered or missing its ``.etag`` sidecar) 409, which the client
raises as ``IntegrityError`` without retrying.
:class:`~repro.net.server.JsonHandler` frames the requests, so a body
of unknown length is 400 or 411 before the store is touched. The client,
:class:`~repro.artifacts.backends.HttpStoreBackend`, re-verifies the
``ETag`` against the received bytes so a corrupt proxy or truncated body
surfaces as ``IntegrityError``, not a bad model.
"""

from __future__ import annotations

import errno
import urllib.parse

from repro import faults
from repro.artifacts.errors import IntegrityError
from repro.net.server import JsonHandler, KeepAliveServer

__all__ = ["serve_store"]

#: Errors a key causes: it names a directory, crosses a file, is too long.
_KEY_ERRNOS = {errno.EISDIR, errno.ENOTDIR, errno.EEXIST, errno.ENAMETOOLONG}


def _make_handler(backend, writable: bool):
    class Handler(JsonHandler):
        def do_GET(self):  # noqa: N802
            self._answer(self._get)

        def do_HEAD(self):  # noqa: N802
            self._answer(self._head)

        def do_PUT(self):  # noqa: N802
            self._answer(lambda key, _query: self._reply(
                200, {"etag": backend.put(key, self._read_body())}),
                write=True)

        def do_DELETE(self):  # noqa: N802
            self._answer(lambda key, _query: self._reply(
                200, {"deleted": backend.delete(key)}), write=True)

        def _answer(self, operation, *, write: bool = False) -> None:
            """Run ``operation(key, query)`` for the request's target."""
            parsed = urllib.parse.urlsplit(self.path)
            key = urllib.parse.unquote(parsed.path).lstrip("/")
            if write and not writable:
                self._reply(405, {"error": "store served read-only"})
            elif write and not key:
                self._reply(400, {"error": f"{self.command} needs a key"})
            else:
                try:
                    operation(key,
                              dict(urllib.parse.parse_qsl(parsed.query)))
                except KeyError:
                    self._reply(404, {"error": f"no object {key!r}"})
                except IntegrityError as error:
                    self._reply(409, {"error": str(error)})
                except ValueError as error:  # outside the store root
                    self._reply(400, {"error": str(error)})
                except OSError as error:
                    if error.errno not in _KEY_ERRNOS:
                        raise
                    self._reply(400, {"error": f"key {key!r}: "
                                               f"{error.strerror}"})

        def _get(self, key: str, query: dict) -> None:
            # Fault point: a chaos plan can turn any GET into a 5xx
            # storm or a truncated body. Truncation serves half the
            # bytes as a well-formed response that still carries the
            # full object's ETag — the proxy-mangled partial download
            # the client-side digest re-check exists to catch.
            fault = faults.fire("store.get", context=key)
            if fault is not None and fault.action == "error":
                self._reply(fault.status, {"error": "injected fault"})
            elif not key:
                self._reply(200, {"keys": backend.list(
                    query.get("prefix", ""))})
            else:
                data = backend.get(key)
                etag = backend.etag(key)
                if fault is not None and fault.action == "truncate":
                    data = data[: max(1, len(data) // 2)]
                self._send(200, data, "application/octet-stream",
                           {"ETag": etag} if etag else None)

        def _head(self, key: str, _query: dict) -> None:
            etag = backend.etag(key) if key else None
            if etag is None:
                raise KeyError(key)
            self._send(200, b"", "application/octet-stream", {
                "ETag": etag, "Content-Length": str(backend.size(key))})

    return Handler


def serve_store(backend, host: str = "127.0.0.1", port: int = 0,
                *, writable: bool = False) -> KeepAliveServer:
    """Build (not start) an HTTP server over ``backend``.

    The caller runs ``server.serve_forever()`` (the CLI does so in the
    foreground; tests run it on a daemon thread). ``port=0`` binds an
    ephemeral port — read it back from ``server.server_address``.
    """
    return KeepAliveServer((host, port), _make_handler(backend, writable))
