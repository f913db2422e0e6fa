"""Model artifact layer: train once, serve anywhere.

The paper's pipeline is train-once/score-forever; this package makes the
"once" real. A fitted detector becomes a single schema-versioned ``.npz``
artifact (arrays + JSON manifest with hyperparameters, dataset
fingerprint, metrics, and integrity digests), and a
:class:`~repro.artifacts.store.ModelStore` files artifacts under their
content digest with mutable tags (``production``, ``candidate``) — the
incremental-reuse discipline of the QBF-solving literature applied to
model state: every serving process starts from the same persisted bytes
instead of re-deriving them.

Where those bytes live is pluggable: the store's policy layer sits on a
:class:`~repro.artifacts.backends.StoreBackend` — the classic local
directory (``file://``, bit-compatible with pre-backend stores) or an
S3-style object bucket (``memory://`` / ``bucket://``, ETag-verified on
every read) — so sharded serving boxes resolve ``production`` without a
shared mount. See ``docs/model-store.md`` for the format and URL-scheme
reference, and :mod:`repro.rollout` for the shadow-validation discipline
that moves the ``production`` tag.

Entry points:

* :func:`save_artifact` / :func:`load_artifact` — one model ⇄ one file,
* :class:`ModelStore` / :meth:`ModelStore.from_url` — versions, tags,
  export/import, GC over any backend,
* ``ScanService.from_artifact`` / ``StreamScanner.from_artifact`` — cold
  starts from an artifact (see :mod:`repro.serve` / :mod:`repro.stream`).
"""

from repro.artifacts.backends import (
    DiskBucket,
    HttpStoreBackend,
    LocalFSBackend,
    MemoryBucket,
    ObjectStoreBackend,
    StoreBackend,
    backend_from_url,
)
from repro.artifacts.errors import (
    ArtifactError,
    CorruptArtifactError,
    FingerprintMismatchError,
    IntegrityError,
    SchemaVersionError,
    UnknownModelClassError,
    UnknownVersionError,
)
from repro.artifacts.format import (
    ARTIFACT_FORMAT,
    READABLE_SCHEMAS,
    SCHEMA_VERSION,
    ArtifactInfo,
    artifact_digest,
    is_stored_layout,
    load_artifact,
    read_manifest,
    repack_artifact,
    save_artifact,
)
from repro.artifacts.store import ModelStore, default_store_root

__all__ = [
    "ArtifactError",
    "CorruptArtifactError",
    "IntegrityError",
    "SchemaVersionError",
    "FingerprintMismatchError",
    "UnknownModelClassError",
    "UnknownVersionError",
    "ARTIFACT_FORMAT",
    "SCHEMA_VERSION",
    "READABLE_SCHEMAS",
    "ArtifactInfo",
    "artifact_digest",
    "save_artifact",
    "load_artifact",
    "read_manifest",
    "repack_artifact",
    "is_stored_layout",
    "ModelStore",
    "default_store_root",
    "StoreBackend",
    "LocalFSBackend",
    "ObjectStoreBackend",
    "HttpStoreBackend",
    "MemoryBucket",
    "DiskBucket",
    "backend_from_url",
]
