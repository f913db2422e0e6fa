"""HTTP store transport: serve_store server + HttpStoreBackend client.

The pair is exercised over real sockets: a ``FileStoreBackend`` is
published with :func:`serve_store` and every ``StoreBackend`` operation
goes through :class:`HttpStoreBackend` — including the integrity check
against a tampering server and the full ``ModelStore`` cold-start with
``cache_dir`` spooling.
"""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.artifacts import HttpStoreBackend, ModelStore, backend_from_url
from repro.artifacts.errors import IntegrityError
from repro.net import serve_store


def _serve(backend, *, writable=False):
    server = serve_store(backend, "127.0.0.1", 0, writable=writable)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    return server, url


@pytest.fixture
def writable_pair(tmp_path):
    backend = backend_from_url(str(tmp_path / "store"))
    server, url = _serve(backend, writable=True)
    yield backend, HttpStoreBackend(url)
    server.shutdown()
    server.server_close()


@pytest.fixture
def readonly_pair(tmp_path):
    backend = backend_from_url(str(tmp_path / "store"))
    backend.put("objects/a.npz", b"artifact-bytes")
    server, url = _serve(backend, writable=False)
    yield backend, HttpStoreBackend(url)
    server.shutdown()
    server.server_close()


class TestBackendOperations:
    def test_put_get_roundtrip(self, writable_pair):
        local, remote = writable_pair
        etag = remote.put("objects/x.npz", b"payload")
        assert local.get("objects/x.npz") == b"payload"
        assert remote.get("objects/x.npz") == b"payload"
        assert remote.etag("objects/x.npz") == etag

    def test_missing_key_raises_keyerror(self, readonly_pair):
        _, remote = readonly_pair
        with pytest.raises(KeyError):
            remote.get("objects/nope.npz")
        with pytest.raises(KeyError):
            remote.size("objects/nope.npz")
        assert remote.etag("objects/nope.npz") is None

    def test_list_with_prefix(self, writable_pair):
        _, remote = writable_pair
        remote.put("objects/a.npz", b"a")
        remote.put("objects/b.npz", b"b")
        remote.put("tags.json", b"{}")
        assert sorted(remote.list("objects/")) == [
            "objects/a.npz", "objects/b.npz",
        ]

    def test_delete(self, writable_pair):
        local, remote = writable_pair
        remote.put("objects/gone.npz", b"x")
        remote.delete("objects/gone.npz")
        with pytest.raises(KeyError):
            local.get("objects/gone.npz")

    def test_size(self, readonly_pair):
        _, remote = readonly_pair
        assert remote.size("objects/a.npz") == len(b"artifact-bytes")

    def test_readonly_server_rejects_writes(self, readonly_pair):
        _, remote = readonly_pair
        with pytest.raises(PermissionError):
            remote.put("objects/new.npz", b"x")
        with pytest.raises(PermissionError):
            remote.delete("objects/a.npz")


class _TamperingHandler(BaseHTTPRequestHandler):
    """Replies with a body that does not match its ETag header."""

    def log_message(self, *args):
        pass

    def do_GET(self):
        body = b"tampered-bytes"
        self.send_response(200)
        self.send_header("ETag", '"' + "0" * 64 + '"')
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_etag_mismatch_raises_integrity_error():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _TamperingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        remote = HttpStoreBackend(
            f"http://127.0.0.1:{server.server_address[1]}"
        )
        with pytest.raises(IntegrityError):
            remote.get("objects/a.npz")
    finally:
        server.shutdown()
        server.server_close()


def test_backend_from_url_dispatches_http():
    assert isinstance(
        backend_from_url("http://127.0.0.1:1/"), HttpStoreBackend
    )
    assert isinstance(
        backend_from_url("https://store.example/"), HttpStoreBackend
    )


def test_model_store_cold_start_over_http(store_root, reference_results,
                                          probe_batch, tmp_path):
    """The production path: workers pull artifacts via http://."""
    from repro.serve.service import ScanService

    backend = backend_from_url(str(store_root))
    server, url = _serve(backend, writable=False)
    try:
        store = ModelStore.from_url(url, cache_dir=tmp_path / "spool")
        service = ScanService.from_artifact("production", store=store)
        addresses, codes = probe_batch
        results = service.scan_bytecodes(codes, addresses=addresses)
        assert [r.probability for r in results] == [
            r.probability for r in reference_results
        ]
        # The artifact was spooled through cache_dir, not a throwaway.
        spooled = list((tmp_path / "spool").rglob("*.npz"))
        assert spooled, "cache_dir spool is empty after a remote load"
    finally:
        server.shutdown()
        server.server_close()


def test_served_store_lists_versions(store_root):
    backend = backend_from_url(str(store_root))
    server, url = _serve(backend)
    try:
        store = ModelStore.from_url(url)
        rows = store.list()
        assert len(rows) == 1
        assert "production" in rows[0]["tags"]
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------- #
# Failure paths: 5xx storms, truncated bodies, retry-then-succeed
# (driven through the store server's compiled-in fault points)
# ---------------------------------------------------------------------- #


@pytest.fixture(autouse=True)
def no_leaked_fault_plan():
    from repro.faults import clear_plan

    clear_plan()
    yield
    clear_plan()


def _fast_retry(attempts):
    from repro.net import RetryPolicy

    return RetryPolicy(attempts=attempts, base_delay=0.01,
                       max_delay=0.02, jitter=0.0,
                       sleep=lambda _delay: None)


class TestInjectedStoreFailures:
    def test_transient_5xx_is_retried_to_success(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        backend = backend_from_url(str(tmp_path / "store"))
        backend.put("objects/a.npz", b"artifact-bytes")
        server, url = _serve(backend)
        try:
            remote = HttpStoreBackend(url, retry=_fast_retry(3))
            plan = FaultPlan([
                FaultSpec("store.get", "error", match="objects/a",
                          count=2, status=503),
            ])
            with plan.installed():
                assert remote.get("objects/a.npz") == b"artifact-bytes"
            assert plan.specs[0].fired == 2
        finally:
            server.shutdown()
            server.server_close()

    def test_5xx_storm_exhausts_retries_and_raises(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        backend = backend_from_url(str(tmp_path / "store"))
        backend.put("objects/a.npz", b"artifact-bytes")
        server, url = _serve(backend)
        try:
            remote = HttpStoreBackend(url, retry=_fast_retry(3))
            plan = FaultPlan([FaultSpec("store.get", "error",
                                        status=500)])
            with plan.installed():
                with pytest.raises(OSError, match="HTTP 500"):
                    remote.get("objects/a.npz")
            # Every attempt hit the server: retried, not given up early.
            assert plan.specs[0].fired == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_truncated_body_raises_integrity_error(self, tmp_path):
        """A short body under the full object's ETag is tampering, not
        a transport flake — it must never be retried into the cache."""
        from repro.faults import FaultPlan, FaultSpec

        backend = backend_from_url(str(tmp_path / "store"))
        backend.put("objects/a.npz", b"artifact-bytes-full-length")
        server, url = _serve(backend)
        try:
            remote = HttpStoreBackend(url, retry=_fast_retry(3))
            plan = FaultPlan([FaultSpec("store.get", "truncate")])
            with plan.installed():
                with pytest.raises(IntegrityError):
                    remote.get("objects/a.npz")
            # Integrity failures are terminal: exactly one attempt.
            assert plan.specs[0].fired == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_truncated_pull_never_poisons_the_cache_dir(
            self, store_root, tmp_path):
        """The spool writes only ETag-verified bytes: a truncated pull
        leaves cache_dir empty, and the next clean pull fills it."""
        from repro.artifacts.errors import CorruptArtifactError
        from repro.faults import FaultPlan, FaultSpec

        backend = backend_from_url(str(store_root))
        server, url = _serve(backend)
        cache_dir = tmp_path / "spool"
        try:
            store = ModelStore.from_url(url, cache_dir=cache_dir)
            store.backend.retry = _fast_retry(2)
            plan = FaultPlan([
                FaultSpec("store.get", "truncate", match="objects/",
                          count=1),
            ])
            with plan.installed():
                with pytest.raises((IntegrityError,
                                    CorruptArtifactError)):
                    store.path_of("production")
                assert not list(cache_dir.rglob("*.npz")), (
                    "a truncated transfer reached the artifact cache"
                )
                # Fault spent (count=1): the retry-free second pull
                # succeeds and spools the verified bytes.
                path = store.path_of("production")
                assert path.is_file()
                assert path.parent == cache_dir
        finally:
            server.shutdown()
            server.server_close()


    @pytest.mark.parametrize("damage, operation", [
        ("missing-sidecar", "get"),
        ("missing-sidecar", "etag"),  # a HEAD
        ("altered-blob", "get"),
    ])
    def test_unverifiable_bucket_object_is_a_typed_409(
            self, tmp_path, capfd, damage, operation):
        """A served bucket:// object that fails the store's own check is
        answered 409, not a traceback and a dropped connection, and the
        client raises IntegrityError on the first attempt."""
        from repro.net import RetryPolicy
        from repro.net.client import http_request

        root = tmp_path / "bucket"
        backend = backend_from_url(f"bucket://{root}")
        backend.put("objects/a.npz", b"artifact-bytes")
        if damage == "missing-sidecar":
            (root / "objects" / "a.npz.etag").unlink()
        else:
            (root / "objects" / "a.npz").write_bytes(b"altered-bytes")
        server, url = _serve(backend)
        slept = []
        try:
            method = "GET" if operation == "get" else "HEAD"
            response = http_request(method, f"{url}/objects/a.npz",
                                    timeout=5.0)
            assert response.status == 409
            remote = HttpStoreBackend(url, retry=RetryPolicy(
                attempts=3, base_delay=0.01, sleep=slept.append))
            with pytest.raises(IntegrityError):
                getattr(remote, operation)("objects/a.npz")
            assert slept == []  # terminal: never retried
        finally:
            server.shutdown()
            server.server_close()
        assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------- #
# Framing refusals: requests whose body or key cannot be trusted are
# answered 4xx before the backend stores or reads anything
# ---------------------------------------------------------------------- #


def _raw(server, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection and read until the server
    closes it (a read timeout means the server hung on the request)."""
    chunks = []
    with socket.create_connection(server.server_address,
                                  timeout=5.0) as sock:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def writable_server(tmp_path):
    backend = backend_from_url(str(tmp_path / "store"))
    server, url = _serve(backend, writable=True)
    yield server, backend, url
    server.shutdown()
    server.server_close()


class TestFramingRefusals:
    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_unusable_content_length_is_400_and_stores_nothing(
            self, writable_server, capfd, length):
        server, backend, _url = writable_server
        reply = _raw(server, b"PUT /objects/x.npz HTTP/1.1\r\n"
                             b"Content-Length: " + length + b"\r\n\r\nbody")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert backend.list() == []
        assert capfd.readouterr().err == ""

    def test_chunked_put_is_411_and_stores_nothing(self, writable_server,
                                                   capfd):
        server, backend, _url = writable_server
        reply = _raw(server, b"PUT /objects/x.npz HTTP/1.1\r\n"
                             b"Transfer-Encoding: chunked\r\n\r\n"
                             b"4\r\nbody\r\n0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 411 ")
        assert backend.list() == []
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("method", ["GET", "HEAD"])
    def test_key_escaping_the_root_is_400(self, writable_server, capfd,
                                          method):
        from repro.net.client import http_request

        _server, _backend, url = writable_server
        response = http_request(method, f"{url}/..%2f..%2fetc%2fpasswd",
                                timeout=5.0)
        assert response.status == 400
        if method == "GET":
            assert "not inside the store root" in response.json()["error"]
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("method, path", [
        ("GET", "/objects/.."),     # the store root itself
        ("PUT", "/objects/.."),
        ("GET", "/objects"),        # a directory
        ("PUT", "/objects"),
        ("GET", "/tags.json/x"),    # a path through a file
        ("PUT", "/tags.json/x"),
        ("GET", "/" + "y" * 300),   # too long for a file name
        ("PUT", "/" + "y" * 300),
    ])
    def test_key_the_file_system_cannot_hold_is_400(
            self, writable_server, capfd, method, path):
        from repro.net.client import http_request

        _server, backend, url = writable_server
        backend.put("objects/a.npz", b"a")
        backend.put("tags.json", b"{}")
        body = b"x" if method == "PUT" else None
        response = http_request(method, url + path, body=body, timeout=5.0)
        assert response.status == 400
        assert backend.list() == ["objects/a.npz", "tags.json"]
        assert backend.get("tags.json") == b"{}"
        assert capfd.readouterr().err == ""
