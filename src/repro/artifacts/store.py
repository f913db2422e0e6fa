"""Content-addressed model store: versions, tags, export/import, GC.

Logical layout (keys into a :class:`~repro.artifacts.backends.StoreBackend`)::

    objects/<digest>.npz    # immutable artifact per version
    tags.json               # {"production": "<digest>", "latest": ...}

A *version* is the artifact's content digest (see
:func:`~repro.artifacts.format.artifact_digest`): saving a bit-identical
fitted model twice lands on the same object, so a store deduplicates
retrains for free. *Tags* are mutable names over versions — the rollout
discipline is "train → ``put(tags=("candidate",))`` → shadow-validate
(:mod:`repro.rollout`) → ``tag('production', version)``" with serving
processes resolving ``production`` at (re)load time. Tag updates are
atomic, so a reader never observes a half-written table.

Where the keys live is the backend's business: the default
:class:`~repro.artifacts.backends.LocalFSBackend` keeps the original
directory layout bit-for-bit (pre-backend stores read unchanged), and
:meth:`ModelStore.from_url` opens the same store API over
``memory://`` / ``bucket://`` object-store emulations — sharded serving
boxes pull ``production`` without a shared mount. Object-backend reads
spool artifacts through a per-store local cache (immutable digest-named
files), so ``np.load`` always sees a real file and repeated loads of one
version fetch it once.

Thread-safety: tag read-modify-write cycles run under the backend's
:meth:`~repro.artifacts.backends.StoreBackend.lock` (a cross-process
``fcntl`` lock on local filesystems, an in-process mutex on object
buckets); object writes are atomic per key; concurrent readers never
need coordination because objects are immutable once written.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile

from repro.artifacts.backends import (
    LocalFSBackend,
    StoreBackend,
    backend_from_url,
)
from repro.artifacts.errors import (
    CorruptArtifactError,
    IntegrityError,
    UnknownVersionError,
)
from repro.artifacts.format import (
    artifact_digest,
    is_stored_layout,
    load_artifact,
    read_manifest,
    repack_artifact,
    save_artifact,
)

__all__ = ["ModelStore", "default_store_root"]

#: Environment override for every CLI entry point's store location.
STORE_ENV = "PHOOK_MODEL_STORE"
_DEFAULT_ROOT = "phook-models"
_MIN_PREFIX = 6
_TAGS_KEY = "tags.json"
_OBJECT_PREFIX = "objects/"


def default_store_root() -> str:
    """``$PHOOK_MODEL_STORE`` or ``./phook-models`` (path or store URL)."""
    return os.environ.get(STORE_ENV) or _DEFAULT_ROOT


class ModelStore:
    """Versioned, tagged model artifacts over a pluggable backend.

    Args:
        root: Store directory (created on first write). Ignored when
            ``backend`` is given.
        backend: Any :class:`~repro.artifacts.backends.StoreBackend`;
            defaults to a :class:`LocalFSBackend` at ``root``.
        cache_dir: Persistent local spool directory for backends that
            are not path-addressable (``memory://`` / ``bucket://``).
            Without one, spooled artifacts land in a per-store temporary
            directory and every process cold start re-pulls them; with
            one, digest-named files survive across processes on the same
            host (objects are immutable, so a cache hit never needs
            revalidation). Ignored by path-addressable backends.

    ``ModelStore(path)`` keeps the historical behaviour exactly;
    :meth:`from_url` resolves ``file://`` / ``memory://`` / ``bucket://``
    locations (and bare paths) to the right backend.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        *,
        backend: StoreBackend | None = None,
        cache_dir: str | pathlib.Path | None = None,
    ):
        if backend is None:
            location = default_store_root() if root is None else root
            backend = backend_from_url(location)
        self.backend = backend
        # ``root`` stays a Path for local stores (messages, tooling);
        # object stores surface their URL instead.
        self.root = (
            backend.root if isinstance(backend, LocalFSBackend)
            else backend.url
        )
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self._spool_dir: tempfile.TemporaryDirectory | None = None
        #: True while the store is serving tag lookups from the local
        #: write-through cache because the backend is unreachable
        #: (degraded mode); cleared on the next successful read.
        self.degraded = False

    @classmethod
    def from_url(
        cls,
        url: str | os.PathLike | None = None,
        *,
        cache_dir: str | pathlib.Path | None = None,
    ) -> "ModelStore":
        """Open a store at a location string (path or backend URL)."""
        return cls(
            backend=backend_from_url(
                default_store_root() if url in (None, "") else url
            ),
            cache_dir=cache_dir,
        )

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def put(
        self,
        model,
        *,
        model_name: str | None = None,
        dataset_fingerprint: str | None = None,
        metrics: dict | None = None,
        extra: dict | None = None,
        tags: tuple[str, ...] = ("latest",),
    ) -> str:
        """Save a fitted model; returns its version (content digest).

        The artifact is serialized to a scratch file and handed to the
        backend as one atomic blob install (``put_path(consume=True)``:
        a rename on the local backend, never a whole-blob RAM copy) —
        concurrent writers of the same content converge on one object,
        and a crash never leaves a half-written version visible.
        """
        with tempfile.TemporaryDirectory(prefix="phook-put-") as scratch:
            temp_path = pathlib.Path(scratch) / "artifact.npz"
            info = save_artifact(
                model,
                temp_path,
                model_name=model_name,
                dataset_fingerprint=dataset_fingerprint,
                metrics=metrics,
                extra=extra,
            )
            self.backend.put_path(
                self._object_key(info.digest), temp_path, consume=True
            )
        for name in tags:
            self.tag(name, info.digest)
        return info.digest

    def tag(self, name: str, ref: str) -> str:
        """Point tag ``name`` at a version (or another tag); atomic.

        The read-modify-write of the tag table runs under the backend's
        exclusive lock, so concurrent writers (a trainer tagging
        ``candidate`` while a rollout retags ``production``) cannot lose
        each other's updates.
        """
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid tag name {name!r}")
        version = self.resolve(ref)
        with self.backend.lock():
            tags = self.tags()
            tags[name] = version
            self._write_tags(tags)
        return version

    def untag(self, name: str) -> bool:
        """Remove a tag; returns whether it existed."""
        with self.backend.lock():
            tags = self.tags()
            existed = tags.pop(name, None) is not None
            if existed:
                self._write_tags(tags)
        return existed

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def tags(self) -> dict[str, str]:
        """Current tag table (name → version).

        Degraded mode: with a ``cache_dir``, every successful read is
        written through to ``cache_dir/tags.json``, and a *transport*
        failure (``OSError`` — store unreachable, HTTP 5xx) falls back
        to that copy with ``self.degraded`` set, so a worker whose
        artifacts are already spooled keeps serving through a store
        outage. Damaged data (:class:`IntegrityError`, malformed JSON)
        never falls back — tampering must surface, not be papered over.
        """
        try:
            raw = self.backend.get(_TAGS_KEY)
        except KeyError:
            self.degraded = False
            return {}
        except IntegrityError as error:
            raise CorruptArtifactError(
                f"unreadable tag table in {self.backend.url}: {error}"
            ) from error
        except OSError as error:
            cached = self._cached_tags()
            if cached is not None:
                self.degraded = True
                return cached
            # Surface an unreadable tag table as the store-level typed
            # error every caller already handles.
            raise CorruptArtifactError(
                f"unreadable tag table in {self.backend.url}: {error}"
            ) from error
        try:
            table = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CorruptArtifactError(
                f"unreadable tag table in {self.backend.url}: {error}"
            ) from error
        tags = {str(k): str(v) for k, v in table.items()}
        self.degraded = False
        self._cache_tags(tags)
        return tags

    def versions(self) -> list[str]:
        """Every stored version digest (sorted)."""
        versions = []
        for key in self.backend.list(_OBJECT_PREFIX):
            name = key[len(_OBJECT_PREFIX):]
            if name.endswith(".npz") and "/" not in name:
                versions.append(name[: -len(".npz")])
        return sorted(versions)

    def resolve(self, ref: str) -> str:
        """Tag name, full digest, or unique digest prefix → version."""
        tags = self.tags()
        if ref in tags:
            return tags[ref]
        versions = self.versions()
        if ref in versions:
            return ref
        if len(ref) >= _MIN_PREFIX:
            matches = [v for v in versions if v.startswith(ref)]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise UnknownVersionError(
                    f"ambiguous version prefix {ref!r} "
                    f"({len(matches)} matches)"
                )
        raise UnknownVersionError(
            f"no tag or version matches {ref!r} in {self.root}"
        )

    def _spool_root(self) -> pathlib.Path:
        """Where spooled and derived (stored-layout) artifacts live."""
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            return self.cache_dir
        if self._spool_dir is None:
            self._spool_dir = tempfile.TemporaryDirectory(
                prefix="phook-store-spool-"
            )
        return pathlib.Path(self._spool_dir.name)

    def path_of(self, ref: str) -> pathlib.Path:
        """Local filesystem path of the artifact behind a tag/version.

        Direct for path-addressable backends; object backends spool the
        blob (ETag-verified by the backend's ``get``) into a per-store
        cache of immutable digest-named files.
        """
        version = self.resolve(ref)
        key = self._object_key(version)
        direct = self.backend.local_path(key)
        if direct is not None:
            return direct
        spooled = self._spool_root() / f"{version}.npz"
        if not spooled.is_file():
            try:
                data = self.backend.get(key)
            except KeyError:
                raise UnknownVersionError(
                    f"version {version!r} vanished from {self.backend.url}"
                ) from None
            # Concurrent cold starts (N fleet workers sharing one
            # cache_dir) may all spool this version at once: each writes
            # a private mkstemp file and atomically renames it over the
            # digest-named target, so a reader can never observe a
            # half-written spool — last rename wins with identical bytes.
            handle, temp_name = tempfile.mkstemp(
                dir=spooled.parent, prefix=f".tmp-{version[:16]}-",
                suffix=".npz",
            )
            try:
                with os.fdopen(handle, "wb") as stream:
                    stream.write(data)
                os.replace(temp_name, spooled)
            finally:
                pathlib.Path(temp_name).unlink(missing_ok=True)
        return spooled

    def mmap_path_of(self, ref: str) -> pathlib.Path:
        """A stored-layout (uncompressed) artifact file for zero-copy maps.

        The primary spool keeps the backend's bytes verbatim (digest
        named, ETag-verified on fetch); mapping needs uncompressed zip
        members, so the store derives ``<digest>.stored.npz`` once per
        version via :func:`repack_artifact` — which re-verifies every
        array digest while copying, and installs the file with
        mkstemp + atomic rename so concurrent derivations converge and
        existing maps stay valid. Artifacts that are already fully
        stored (e.g. ``export --layout stored`` output re-imported, or
        a local store written with ``compression="stored"``) map
        directly with no derived copy.
        """
        source = self.path_of(ref)
        if is_stored_layout(source):
            return source
        derived = self._spool_root() / f"{self.resolve(ref)}.stored.npz"
        # Derived files are content-named like the spool itself: once a
        # version's stored copy exists it is immutable, so a hit needs
        # no revalidation.
        if not derived.is_file():
            repack_artifact(source, derived, compression="stored")
        return derived

    def load(
        self,
        ref: str,
        *,
        expected_fingerprint: str | None = None,
        mmap_mode: str | None = None,
    ):
        """Load ``(model, manifest)`` for a tag/version/prefix.

        ``mmap_mode="r"`` serves the model's arrays as read-only maps of
        a stored-layout spool file (derived on first use, see
        :meth:`mmap_path_of`): the cold start copies no array bytes and
        N processes loading one version share its page cache.
        """
        if mmap_mode is not None:
            return load_artifact(
                self.mmap_path_of(ref),
                expected_fingerprint=expected_fingerprint,
                mmap_mode=mmap_mode,
            )
        return load_artifact(
            self.path_of(ref), expected_fingerprint=expected_fingerprint
        )

    def manifest(self, ref: str) -> dict:
        return read_manifest(self.path_of(ref))

    def list(self) -> list[dict]:
        """One JSON-ready row per stored version (newest first)."""
        by_version: dict[str, list[str]] = {}
        for name, version in self.tags().items():
            by_version.setdefault(version, []).append(name)
        rows = []
        for version in self.versions():
            manifest = read_manifest(self.path_of(version))
            rows.append(
                {
                    "version": version,
                    "model_name": manifest.get("model_name"),
                    "dataset_fingerprint": manifest.get("dataset_fingerprint"),
                    "metrics": manifest.get("metrics"),
                    "created_at": manifest.get("created_at"),
                    "size_bytes": self.backend.size(self._object_key(version)),
                    "tags": sorted(by_version.get(version, [])),
                }
            )
        rows.sort(key=lambda row: row["created_at"] or 0, reverse=True)
        return rows

    # ------------------------------------------------------------------ #
    # Transport + GC
    # ------------------------------------------------------------------ #

    def export(
        self,
        ref: str,
        dest: str | pathlib.Path,
        *,
        layout: str | None = None,
    ) -> pathlib.Path:
        """Copy one artifact out of the store (e.g. to ship to a box).

        ``layout`` repacks the zip on the way out (``"stored"`` for a
        file the destination box can mmap directly, ``"deflate"`` to
        re-compress a stored artifact for the wire). Neither changes the
        content digest :meth:`import_artifact` recovers.
        """
        if layout not in (None, "stored", "deflate"):
            raise ValueError(
                f"unknown export layout {layout!r}; "
                "choose 'stored' or 'deflate'"
            )
        source = self.path_of(ref)
        dest = pathlib.Path(dest)
        if dest.is_dir():
            dest = dest / source.name
        dest.parent.mkdir(parents=True, exist_ok=True)
        if layout is None:
            shutil.copyfile(source, dest)
        else:
            repack_artifact(source, dest, compression=layout)
        return dest

    def import_artifact(
        self, source: str | pathlib.Path, *, tags: tuple[str, ...] = ()
    ) -> str:
        """Verify an external artifact and file it under its digest.

        The manifest's declared digest is recomputed before anything is
        written; a tampered file is rejected, never stored.
        """
        source = pathlib.Path(source)
        manifest = read_manifest(source)
        digest = manifest.get("digest")
        if not digest or artifact_digest(manifest) != digest:
            raise IntegrityError(
                f"{source}: declared digest does not match manifest content"
            )
        # Full load exercises the per-array digests too (and proves the
        # model actually reconstructs) before it is admitted.
        load_artifact(source)
        # consume=False: the caller's file must survive the import.
        self.backend.put_path(self._object_key(digest), source)
        for name in tags:
            self.tag(name, digest)
        return digest

    def gc(self) -> list[str]:
        """Delete untagged versions; returns what was removed."""
        keep = set(self.tags().values())
        removed = []
        for version in self.versions():
            if version not in keep:
                self.backend.delete(self._object_key(version))
                removed.append(version)
        return removed

    # ------------------------------------------------------------------ #

    @staticmethod
    def _object_key(version: str) -> str:
        return f"{_OBJECT_PREFIX}{version}.npz"

    def _tags_cache_path(self) -> pathlib.Path | None:
        if self.cache_dir is None:
            return None
        # Only object backends spool; a path-addressable store *is* its
        # own durable copy and caching its tag table would just shadow it.
        if self.backend.local_path(_TAGS_KEY) is not None:
            return None
        return self.cache_dir / _TAGS_KEY

    def _cache_tags(self, tags: dict[str, str]) -> None:
        target = self._tags_cache_path()
        if target is None:
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=self.cache_dir, prefix=".tmp-tags-", suffix=".json"
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    json.dump(tags, stream, indent=2, sort_keys=True)
                os.replace(temp_name, target)
            finally:
                pathlib.Path(temp_name).unlink(missing_ok=True)
        except OSError:
            # Best-effort: a failed cache write must not fail the read.
            pass

    def _cached_tags(self) -> dict[str, str] | None:
        target = self._tags_cache_path()
        if target is None:
            return None
        try:
            table = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return {str(k): str(v) for k, v in table.items()}

    def _write_tags(self, tags: dict[str, str]) -> None:
        self.backend.put(
            _TAGS_KEY,
            json.dumps(tags, indent=2, sort_keys=True).encode("utf-8"),
        )

    def __len__(self) -> int:
        return len(self.versions())

    def __repr__(self) -> str:
        return f"ModelStore(root={str(self.root)!r})"
