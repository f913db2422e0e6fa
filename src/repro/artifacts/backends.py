"""Pluggable storage backends for the :class:`~repro.artifacts.store.ModelStore`.

A :class:`ModelStore` is a *policy* layer — content-addressed versions,
mutable tags, verify-on-import — and this module is its *mechanism*
layer: a tiny blob API (:class:`StoreBackend`) that maps store keys
(``objects/<digest>.npz``, ``tags.json``) to bytes somewhere. Serving
boxes without a shared mount point a store at an object-store URL and
pull ``production`` like any other blob.

Backends:

* :class:`LocalFSBackend` — the original directory layout, bit-for-bit:
  a store written by the pre-backend ``ModelStore`` reads (and writes)
  unchanged. Writes are tmp + rename atomic; the tag-table lock is a
  cross-process ``fcntl`` advisory lock.
* :class:`ObjectStoreBackend` — an S3-style bucket: flat keys,
  list/get/put/delete, and an ETag per object (the SHA-256 of its
  content, recorded at put time and re-checked on every get, so a blob
  altered behind the store's back raises
  :class:`~repro.artifacts.errors.IntegrityError` instead of becoming a
  model). Two bucket emulations back it: :class:`MemoryBucket`
  (process-wide, named — ``memory://name``) and :class:`DiskBucket`
  (a directory of blobs + ``.etag`` sidecars — ``bucket://path``).

* :class:`HttpStoreBackend` — a store served over HTTP by
  ``phishinghook store-serve`` (:func:`repro.net.store_http.serve_store`):
  the pull path for fleet worker processes with no shared mount. Every
  ``get`` re-verifies the response body against the ``ETag`` header, so
  a truncated or corrupted transfer raises
  :class:`~repro.artifacts.errors.IntegrityError` before any bytes reach
  the artifact loader.

URL scheme (:func:`backend_from_url`):

======================  =================================================
``/path`` / ``file://``  :class:`LocalFSBackend` (classic store directory)
``memory://name``        shared in-process bucket (tests, demos)
``bucket://path``        on-disk bucket emulation (S3 layout stand-in)
``http(s)://host:port``  remote store endpoint (``store-serve``)
======================  =================================================
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import os
import pathlib
import shutil
import tempfile
import threading

from repro.artifacts.errors import IntegrityError

__all__ = [
    "StoreBackend",
    "LocalFSBackend",
    "ObjectStoreBackend",
    "HttpStoreBackend",
    "MemoryBucket",
    "DiskBucket",
    "backend_from_url",
]


def _content_etag(data: bytes) -> str:
    """ETag of a blob — SHA-256 hex, the strong-digest flavour."""
    return hashlib.sha256(data).hexdigest()


def _file_etag(path: pathlib.Path) -> str:
    """Streamed SHA-256 of a file (no whole-blob RAM buffering)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _contained_path(root: pathlib.Path, key: str, what: str) -> pathlib.Path:
    """Resolve ``root/key`` and refuse anything escaping ``root``.

    Keys are normally store-internal names, but tag values feed into
    object keys, so a tampered tag table must not become a path
    traversal. ``is_relative_to`` (not a string-prefix test) is what
    keeps ``/data/store-other`` outside ``/data/store``.
    """
    path = (root / key).resolve()
    base = root.resolve()
    if path == base or not path.is_relative_to(base):
        raise ValueError(f"key {key!r} is not inside the {what} root")
    return path


class StoreBackend(abc.ABC):
    """Key → blob storage under a :class:`ModelStore`.

    Keys are relative POSIX-style paths (``objects/<digest>.npz``,
    ``tags.json``). Implementations must make :meth:`put` atomic per key
    (readers never observe a partial blob) and :meth:`get` raise
    ``KeyError`` for missing keys — the store translates that into its
    own typed errors.
    """

    #: URL scheme this backend answers to (for repr/messages).
    scheme = "?"

    @property
    @abc.abstractmethod
    def url(self) -> str:
        """Canonical URL of this backend (round-trips through
        :func:`backend_from_url`)."""

    @abc.abstractmethod
    def get(self, key: str) -> bytes:
        """Blob content; raises ``KeyError`` when absent."""

    @abc.abstractmethod
    def put(self, key: str, data: bytes) -> str:
        """Store a blob atomically; returns its ETag."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove a blob; returns whether it existed."""

    @abc.abstractmethod
    def list(self, prefix: str = "") -> list[str]:
        """Sorted keys under ``prefix``."""

    @abc.abstractmethod
    def etag(self, key: str) -> str | None:
        """Recorded ETag, or ``None`` when the key is absent."""

    def exists(self, key: str) -> bool:
        return self.etag(key) is not None

    def size(self, key: str) -> int:
        """Blob size in bytes; raises ``KeyError`` when absent."""
        return len(self.get(key))

    def put_path(self, key: str, source: str | os.PathLike,
                 *, consume: bool = False) -> str:
        """Store the contents of a local file atomically; returns its ETag.

        ``consume=True`` grants the backend permission to *move* (and
        thereby destroy) ``source`` — the zero-copy path for callers
        handing over a scratch file they own. The default implementation
        reads the file and delegates to :meth:`put`; ``source`` is never
        mutated unless ``consume`` is set and the backend chooses to
        move it.
        """
        return self.put(key, pathlib.Path(source).read_bytes())

    def local_path(self, key: str) -> pathlib.Path | None:
        """Filesystem path of a blob, when the backend is path-addressable.

        ``None`` for object backends — the store then spools the blob to
        a local cache file before handing it to ``np.load``.
        """
        return None

    @contextlib.contextmanager
    def lock(self):
        """Mutual exclusion for tag-table read-modify-write cycles.

        Implementations must scope the lock to the *storage*, not the
        backend instance: two backends opened at the same location have
        to exclude each other. :class:`LocalFSBackend` uses a
        cross-process ``fcntl`` file lock; :class:`ObjectStoreBackend`
        uses a mutex owned by (and shared through) the bucket.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.url!r})"


class LocalFSBackend(StoreBackend):
    """The classic store directory, unchanged on disk.

    Keys map straight to paths under ``root``, so ``objects/<d>.npz`` and
    ``tags.json`` land exactly where the pre-backend ``ModelStore`` put
    them — old stores read and write with zero migration. ETags are
    computed from content on demand (the filesystem is trusted storage;
    artifact payloads carry their own per-array digests on top).
    """

    scheme = "file"

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)

    @property
    def url(self) -> str:
        return f"file://{self.root}"

    def _path(self, key: str) -> pathlib.Path:
        return _contained_path(self.root, key, "store")

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def put(self, key: str, data: bytes) -> str:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(temp_name, path)
        finally:
            pathlib.Path(temp_name).unlink(missing_ok=True)
        return _content_etag(data)

    def put_path(self, key: str, source: str | os.PathLike,
                 *, consume: bool = False) -> str:
        """Single-write blob install: rename a consumed source into
        place when possible, else stream-copy via a same-directory temp
        file — never the whole blob through RAM."""
        source = pathlib.Path(source)
        etag = _file_etag(source)
        dest = self._path(key)
        dest.parent.mkdir(parents=True, exist_ok=True)
        if consume:
            try:
                os.replace(source, dest)
                return etag
            except OSError:  # cross-device: fall through to the copy
                pass
        handle, temp_name = tempfile.mkstemp(
            dir=dest.parent, prefix=".tmp-", suffix=dest.suffix
        )
        os.close(handle)
        try:
            shutil.copyfile(source, temp_name)
            os.replace(temp_name, dest)
        finally:
            pathlib.Path(temp_name).unlink(missing_ok=True)
        return etag

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def list(self, prefix: str = "") -> list[str]:
        base = self.root
        if not base.is_dir():
            return []
        keys = []
        for path in base.rglob("*"):
            if not path.is_file() or path.name.startswith("."):
                continue
            key = path.relative_to(base).as_posix()
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    def etag(self, key: str) -> str | None:
        try:
            return _content_etag(self.get(key))
        except KeyError:
            return None

    def size(self, key: str) -> int:
        try:
            return self._path(key).stat().st_size
        except FileNotFoundError:
            raise KeyError(key) from None

    def local_path(self, key: str) -> pathlib.Path | None:
        path = self._path(key)
        return path if path.is_file() else None

    @contextlib.contextmanager
    def lock(self):
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".tags.lock", "a+") as handle:
            try:
                import fcntl
            except ImportError:  # non-POSIX: best-effort, no lock
                yield
                return
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)


# --------------------------------------------------------------------- #
# S3-style bucket emulation
# --------------------------------------------------------------------- #


class MemoryBucket:
    """In-process named bucket: ``{key: (data, etag)}`` behind a lock.

    Buckets are shared process-wide by name (``MemoryBucket.named``), so
    two stores opened at ``memory://ci`` see the same objects — the
    in-process stand-in for a region-shared object store.
    """

    _registry: dict[str, "MemoryBucket"] = {}
    _registry_lock = threading.Lock()

    def __init__(self, name: str = ""):
        self.name = name
        self._objects: dict[str, tuple[bytes, str]] = {}
        self._mutex = threading.Lock()
        #: Tag-table mutual exclusion for every store over this bucket —
        #: owned by the bucket (shared state), not any one backend.
        #: Reentrant so bucket operations under the held lock don't
        #: deadlock against ``_mutex``-free callers.
        self.tag_mutex = threading.RLock()

    @contextlib.contextmanager
    def tag_lock(self):
        """Tag-table critical section. In-process suffices: a memory
        bucket cannot outlive (or be shared beyond) the process."""
        with self.tag_mutex:
            yield

    @classmethod
    def named(cls, name: str) -> "MemoryBucket":
        with cls._registry_lock:
            bucket = cls._registry.get(name)
            if bucket is None:
                bucket = cls._registry[name] = cls(name)
            return bucket

    @classmethod
    def drop(cls, name: str) -> bool:
        """Forget a named bucket (tests); returns whether it existed."""
        with cls._registry_lock:
            return cls._registry.pop(name, None) is not None

    def put_object(self, key: str, data: bytes) -> str:
        etag = _content_etag(data)
        with self._mutex:
            self._objects[key] = (bytes(data), etag)
        return etag

    def get_object(self, key: str) -> tuple[bytes, str]:
        with self._mutex:
            if key not in self._objects:
                raise KeyError(key)
            return self._objects[key]

    def delete_object(self, key: str) -> bool:
        with self._mutex:
            return self._objects.pop(key, None) is not None

    def list_objects(self, prefix: str = "") -> list[str]:
        with self._mutex:
            return sorted(k for k in self._objects if k.startswith(prefix))

    def head_object(self, key: str) -> str | None:
        with self._mutex:
            entry = self._objects.get(key)
            return entry[1] if entry else None

    def object_size(self, key: str) -> int:
        with self._mutex:
            if key not in self._objects:
                raise KeyError(key)
            return len(self._objects[key][0])


class DiskBucket:
    """On-disk bucket emulation: one blob file per key + ``.etag`` sidecar.

    The layout is deliberately *not* the LocalFS store layout — it models
    shipping artifacts to a foreign object store (keys become files, the
    recorded ETag travels in a sidecar), and the sidecar is what makes
    tamper detection possible without re-trusting the blob itself.

    Both files are written atomically (temp + rename) and every
    operation runs under a mutex *shared by all DiskBucket instances at
    the same path* (mutexes are registered per resolved root), so
    in-process readers never observe a blob/sidecar pair mid-update.
    A process crash exactly between the two renames can still strand a
    new blob under the old ETag — a limitation of emulating an atomic
    object PUT with two files; a real object store has no such window.
    """

    _mutexes: dict[str, threading.RLock] = {}
    _mutexes_guard = threading.Lock()

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        key = str(self.root.resolve())
        with DiskBucket._mutexes_guard:
            mutex = DiskBucket._mutexes.get(key)
            if mutex is None:
                mutex = DiskBucket._mutexes[key] = threading.RLock()
        # One reentrant lock per bucket *path* serves both per-operation
        # consistency and the in-process half of the tag-table critical
        # section (the cross-process half is the flock in tag_lock()).
        self._mutex = mutex
        self.tag_mutex = mutex

    @contextlib.contextmanager
    def tag_lock(self):
        """Tag-table critical section, cross-process like the bucket.

        The shared in-process ``RLock`` serializes threads; an advisory
        ``fcntl`` lock on ``.tags.lock`` serializes *processes* — the
        documented CLI flow runs a trainer and a rollout against the
        same ``bucket://`` path from separate invocations.
        """
        with self.tag_mutex:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.root / ".tags.lock", "a+") as handle:
                try:
                    import fcntl
                except ImportError:  # non-POSIX: in-process lock only
                    yield
                    return
                fcntl.flock(handle, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(handle, fcntl.LOCK_UN)

    def _blob(self, key: str) -> pathlib.Path:
        return _contained_path(self.root, key, "bucket")

    def _sidecar(self, key: str) -> pathlib.Path:
        blob = self._blob(key)
        return blob.with_name(blob.name + ".etag")

    @staticmethod
    def _atomic_write(path: pathlib.Path, data: bytes) -> None:
        handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(temp_name, path)
        finally:
            pathlib.Path(temp_name).unlink(missing_ok=True)

    def put_object(self, key: str, data: bytes) -> str:
        etag = _content_etag(data)
        blob = self._blob(key)
        with self._mutex:
            blob.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(blob, data)
            self._atomic_write(self._sidecar(key), etag.encode("utf-8"))
        return etag

    def get_object(self, key: str) -> tuple[bytes, str]:
        with self._mutex:
            try:
                data = self._blob(key).read_bytes()
            except FileNotFoundError:
                raise KeyError(key) from None
            try:
                etag = self._sidecar(key).read_text(encoding="utf-8").strip()
            except FileNotFoundError:
                # A blob without its recorded ETag is unverifiable; the
                # digest must never be regenerated from the (possibly
                # tampered) data itself — that would make verify-on-get
                # vacuous.
                raise IntegrityError(
                    f"bucket://{self.root}/{key}: ETag sidecar is "
                    "missing; object cannot be verified"
                ) from None
        return data, etag

    def delete_object(self, key: str) -> bool:
        with self._mutex:
            existed = False
            try:
                self._blob(key).unlink()
                existed = True
            except FileNotFoundError:
                pass
            self._sidecar(key).unlink(missing_ok=True)
            return existed

    def list_objects(self, prefix: str = "") -> list[str]:
        with self._mutex:
            if not self.root.is_dir():
                return []
            keys = []
            for path in self.root.rglob("*"):
                if (not path.is_file() or path.name.startswith(".")
                        or path.name.endswith(".etag")):
                    continue
                key = path.relative_to(self.root).as_posix()
                if key.startswith(prefix):
                    keys.append(key)
            return sorted(keys)

    def head_object(self, key: str) -> str | None:
        with self._mutex:
            sidecar = self._sidecar(key)
            if not self._blob(key).is_file():
                return None
            if sidecar.is_file():
                return sidecar.read_text(encoding="utf-8").strip()
            raise IntegrityError(
                f"bucket://{self.root}/{key}: ETag sidecar is missing; "
                "object cannot be verified"
            )

    def object_size(self, key: str) -> int:
        with self._mutex:
            try:
                return self._blob(key).stat().st_size
            except FileNotFoundError:
                raise KeyError(key) from None


class ObjectStoreBackend(StoreBackend):
    """S3-style backend over a bucket emulation.

    Every :meth:`get` recomputes the blob's digest against the ETag the
    bucket recorded at put time — the check a real client does against
    the ``ETag`` response header — so silent corruption (or tampering)
    in the bucket surfaces as
    :class:`~repro.artifacts.errors.IntegrityError` at read time, before
    any bytes reach the artifact loader.
    """

    def __init__(self, bucket: MemoryBucket | DiskBucket):
        self.bucket = bucket
        if isinstance(bucket, MemoryBucket):
            self.scheme = "memory"
            self._url = f"memory://{bucket.name}"
        else:
            self.scheme = "bucket"
            self._url = f"bucket://{bucket.root}"

    @property
    def url(self) -> str:
        return self._url

    def get(self, key: str) -> bytes:
        data, etag = self.bucket.get_object(key)
        if _content_etag(data) != etag:
            raise IntegrityError(
                f"{self.url}/{key}: content digest does not match its "
                f"ETag (object altered in the bucket)"
            )
        return data

    def put(self, key: str, data: bytes) -> str:
        return self.bucket.put_object(key, data)

    def delete(self, key: str) -> bool:
        return self.bucket.delete_object(key)

    def list(self, prefix: str = "") -> list[str]:
        return self.bucket.list_objects(prefix)

    def etag(self, key: str) -> str | None:
        return self.bucket.head_object(key)

    def size(self, key: str) -> int:
        # A HEAD-style stat, not a full (re-verified) GET.
        return self.bucket.object_size(key)

    @contextlib.contextmanager
    def lock(self):
        # The lock belongs to the bucket, so every store opened over the
        # same bucket — same registry entry, same path, or (for disk
        # buckets) another process — excludes the others' tag
        # read-modify-write cycles.
        with self.bucket.tag_lock():
            yield


class HttpStoreBackend(StoreBackend):
    """A store served over HTTP (``phishinghook store-serve``).

    The client half of :func:`repro.net.store_http.serve_store`: keys
    map to URL paths, the list operation is ``GET /?prefix=``, and the
    server answers every blob with an ``ETag`` header (content SHA-256).
    :meth:`get` re-verifies the received bytes against that header —
    exactly the check :class:`ObjectStoreBackend` does against its
    bucket — so a corrupt proxy, truncated body, or tampered mirror
    raises :class:`~repro.artifacts.errors.IntegrityError` at read time.

    ``local_path`` stays ``None``: artifacts pulled over HTTP spool
    through the store's ``cache_dir`` into immutable digest-named files
    (and the spool itself is multi-process safe; see
    :meth:`~repro.artifacts.store.ModelStore.path_of`).

    The server refuses writes unless started ``--writable``; this
    surfaces here as ``PermissionError`` rather than a silent no-op.

    Transient failures — transport errors and HTTP 5xx — are retried
    with jittered exponential backoff (``retry``, a
    :class:`repro.net.retry.RetryPolicy`; pass ``attempts=1`` to
    disable), so a store mirror restarting mid-pull costs a retry, not
    a failed cold start. Integrity failures are **never** retried:
    tampered bytes are a fact to surface, not a flake.
    """

    scheme = "http"

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 retry=None):
        self._url = base_url.rstrip("/")
        self.scheme = self._url.partition("://")[0] or "http"
        self.timeout = timeout
        if retry is None:
            from repro.net.retry import RetryPolicy

            retry = RetryPolicy(attempts=3, base_delay=0.1, max_delay=2.0)
        self.retry = retry
        # HTTP stores are read-mostly by design (workers pull, nobody
        # here races a tag read-modify-write against another *writer on
        # this host*); the lock still serializes this process's cycles.
        self._lock = threading.RLock()

    @property
    def url(self) -> str:
        return self._url

    class _ServerError(Exception):
        """Internal: an HTTP >= 500 response, retried then unwrapped."""

        def __init__(self, response):
            super().__init__(f"HTTP {response.status}")
            self.response = response

    def _fetch(self, method: str, url: str, *, body: bytes = None):
        """One retried exchange; 5xx responses count as retryable."""
        from repro.net.client import TransportError, http_request

        def attempt():
            response = http_request(
                method, url, body=body, timeout=self.timeout
            )
            if response.status >= 500:
                raise self._ServerError(response)
            return response

        try:
            return self.retry.call(
                attempt,
                should_retry=lambda exc: isinstance(
                    exc, (TransportError, self._ServerError)
                ),
            )
        except self._ServerError as error:
            # Out of retries: hand the 5xx back so each caller raises
            # its usual status-specific OSError.
            return error.response

    def _request(self, method: str, key: str, *, body: bytes = None):
        from urllib.parse import quote

        response = self._fetch(
            method, f"{self._url}/{quote(key, safe='/')}", body=body
        )
        if response.status == 409:
            raise IntegrityError(
                f"{self._url}/{key}: the served store cannot verify its "
                f"own copy of the object (HTTP 409)"
            )
        return response

    def get(self, key: str) -> bytes:
        response = self._request("GET", key)
        if response.status == 404:
            raise KeyError(key)
        if not response.ok:
            raise OSError(
                f"GET {self._url}/{key}: HTTP {response.status}"
            )
        etag = response.headers.get("etag")
        if not etag or _content_etag(response.body) != etag:
            raise IntegrityError(
                f"{self._url}/{key}: response body does not match its "
                f"ETag (corrupt transfer or tampered mirror)"
            )
        return response.body

    def put(self, key: str, data: bytes) -> str:
        response = self._request("PUT", key, body=data)
        if response.status == 405:
            raise PermissionError(
                f"{self._url} is served read-only (start store-serve "
                f"with --writable to accept puts)"
            )
        if not response.ok:
            raise OSError(
                f"PUT {self._url}/{key}: HTTP {response.status}"
            )
        return response.json()["etag"]

    def delete(self, key: str) -> bool:
        response = self._request("DELETE", key)
        if response.status == 405:
            raise PermissionError(f"{self._url} is served read-only")
        if not response.ok:
            raise OSError(
                f"DELETE {self._url}/{key}: HTTP {response.status}"
            )
        return bool(response.json().get("deleted"))

    def list(self, prefix: str = "") -> list[str]:
        from urllib.parse import quote

        response = self._fetch(
            "GET", f"{self._url}/?prefix={quote(prefix)}"
        )
        if not response.ok:
            raise OSError(
                f"LIST {self._url}: HTTP {response.status}"
            )
        return list(response.json()["keys"])

    def etag(self, key: str) -> str | None:
        response = self._request("HEAD", key)
        if response.status == 404:
            return None
        if not response.ok:
            raise OSError(
                f"HEAD {self._url}/{key}: HTTP {response.status}"
            )
        return response.headers.get("etag")

    def size(self, key: str) -> int:
        response = self._request("HEAD", key)
        if response.status == 404:
            raise KeyError(key)
        if not response.ok:
            raise OSError(
                f"HEAD {self._url}/{key}: HTTP {response.status}"
            )
        return int(response.headers.get("content-length", "0"))

    @contextlib.contextmanager
    def lock(self):
        with self._lock:
            yield


# --------------------------------------------------------------------- #


def backend_from_url(url: str | os.PathLike) -> StoreBackend:
    """Resolve a store location string to a backend.

    ``file://path`` (or a bare path) → :class:`LocalFSBackend`;
    ``memory://name`` → a process-shared :class:`MemoryBucket`;
    ``bucket://path`` → an on-disk :class:`DiskBucket`;
    ``http(s)://host:port`` → :class:`HttpStoreBackend`. Anything else
    raises :class:`~repro.artifacts.errors.CorruptArtifactError`'s
    sibling ``ValueError`` — unknown schemes must fail loudly, not fall
    back to a surprise local directory.
    """
    text = os.fspath(url)
    if "://" not in text:
        return LocalFSBackend(text)
    scheme, _, rest = text.partition("://")
    scheme = scheme.lower()
    if scheme == "file":
        return LocalFSBackend(rest or ".")
    if scheme == "memory":
        if not rest:
            raise ValueError("memory:// store URLs need a bucket name")
        return ObjectStoreBackend(MemoryBucket.named(rest))
    if scheme == "bucket":
        if not rest:
            raise ValueError("bucket:// store URLs need a directory path")
        return ObjectStoreBackend(DiskBucket(rest))
    if scheme in ("http", "https"):
        if not rest:
            raise ValueError("http(s):// store URLs need a host")
        return HttpStoreBackend(text)
    raise ValueError(
        f"unknown store scheme {scheme!r} in {text!r} "
        "(supported: file://, memory://, bucket://, http://, https://)"
    )
