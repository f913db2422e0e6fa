"""The on-disk artifact format: one ``.npz`` of arrays + JSON manifest.

An artifact is a single ``.npz`` holding

* ``__manifest__`` — a UTF-8 JSON document (stored as a ``uint8`` array)
  carrying the schema version, model class + constructor parameters, the
  encoded state structure, the training-dataset fingerprint, evaluation
  metrics, and a SHA-256 digest per payload array,
* ``a0 … aN`` — the model's fitted arrays (tree node tables, stacked
  :class:`~repro.ml.flat.FlatEnsemble` arrays, NN weights, …).

Schema 2 adds **shared-array storage**: payload arrays are deduplicated
by content at save time, so ensemble children referencing identical
arrays (a warm-started forest's unchanged trees, repeated class tables)
store one copy that every state-tree reference points at. Schema 1
artifacts still load byte-for-byte — the decoder has always resolved
arbitrary index references.

The zip layout is a *transport* property, chosen per file and invisible
to the content address: ``compression="deflate"`` (the default,
``np.savez_compressed`` behaviour) minimises bytes on the wire, while
``compression="stored"`` writes uncompressed members that
``load_artifact(..., mmap_mode="r")`` maps straight off disk — a cold
start that copies no node-array bytes at all. :func:`repack_artifact`
converts between the two without changing the digest.

The **artifact digest** — the content address a
:class:`~repro.artifacts.store.ModelStore` files versions under — is the
SHA-256 of the canonical manifest JSON *minus* volatile metadata
(``created_at``, ``digest`` itself), so saving the same fitted model
twice yields the same version while any change to parameters, state, or
payload changes it.

Loading never trusts the file: zip/JSON damage raises
:class:`CorruptArtifactError`, per-array digest mismatches raise
:class:`IntegrityError`, a foreign schema raises
:class:`SchemaVersionError`, and a caller-supplied expected dataset
fingerprint raises :class:`FingerprintMismatchError` on divergence —
garbage never becomes a model.

Invariants consumers rely on: a written artifact is immutable (stores
and backends file it under its digest and never rewrite it); ``save →
load`` is bit-identical for every registry model's ``predict_proba``
(asserted in CI, cross-process); and :func:`save_artifact` /
:func:`load_artifact` share no module state, so concurrent saves/loads
of different paths need no coordination. The transport layers above —
:class:`~repro.artifacts.store.ModelStore` and its backends — add
content addressing and ETag checks on top of, never instead of, the
per-array digests here.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import mmap
import os
import pathlib
import struct
import tempfile
import time
import tokenize
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from repro.artifacts.errors import (
    CorruptArtifactError,
    FingerprintMismatchError,
    IntegrityError,
    SchemaVersionError,
)
from repro.artifacts.state import capture, decode, encode, restore

__all__ = [
    "SCHEMA_VERSION",
    "READABLE_SCHEMAS",
    "ARTIFACT_FORMAT",
    "ArtifactInfo",
    "save_artifact",
    "load_artifact",
    "read_manifest",
    "artifact_digest",
    "repack_artifact",
    "is_stored_layout",
]

SCHEMA_VERSION = 2
#: Schemas this build can load. Schema 1 predates shared-array storage;
#: its artifacts decode identically because array references were
#: already resolved by index.
READABLE_SCHEMAS = frozenset({1, 2})
ARTIFACT_FORMAT = "phishinghook-model-artifact"

_MANIFEST_KEY = "__manifest__"
#: Manifest fields excluded from the content address.
_VOLATILE = ("created_at", "digest")
#: ``compression=`` knob → zipfile method for the ``.npz`` members.
_ZIP_METHODS = {
    "deflate": zipfile.ZIP_DEFLATED,
    "stored": zipfile.ZIP_STORED,
}
#: Fixed portion of a zip local file header (PKZIP appnote 4.3.7).
_LOCAL_HEADER = struct.Struct("<IHHHHHIIIHH")
#: Longest ``.npy`` header numpy's readers accept by default.
_NPY_HEADER_MAX = 10_000
#: What zipfile and numpy raise on damaged bytes: a bad directory or
#: header, an unsupported zip version or method, an "encrypted" flag
#: (RuntimeError), or an npy header numpy's parser chokes on (its
#: literal and dtype parsing can raise SyntaxError, TokenError or
#: TypeError, not only ValueError).
_DAMAGE = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    ValueError,
    EOFError,
    NotImplementedError,
    RuntimeError,
    SyntaxError,
    TypeError,
    tokenize.TokenError,
)


@dataclass(frozen=True)
class ArtifactInfo:
    """Result of one save: where it landed and what it hashes to."""

    path: pathlib.Path
    digest: str
    manifest: dict


def _array_digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256()
    hasher.update(array.dtype.str.encode())
    hasher.update(repr(array.shape).encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def _jsonable(node):
    """Plain-JSON copy of caller metadata (numpy scalars → python)."""
    if isinstance(node, dict):
        return {str(key): _jsonable(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_jsonable(item) for item in node]
    if isinstance(node, (bool, str)) or node is None:
        return node
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (float, np.floating)):
        return float(node)
    return str(node)


def _canonical(manifest: dict) -> bytes:
    slim = {k: v for k, v in manifest.items() if k not in _VOLATILE}
    return json.dumps(
        slim, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def artifact_digest(manifest: dict) -> str:
    """Content address of an artifact (volatile metadata excluded)."""
    return hashlib.sha256(_canonical(manifest)).hexdigest()


def _share_arrays(structure, arrays: list[np.ndarray]):
    """Schema-2 shared-array storage: store identical arrays once.

    Returns ``(structure, unique_arrays)`` where every ``__ndarray__`` /
    ``__bytes__`` reference in ``structure`` points into the deduplicated
    list. Content identity is the same dtype+shape+bytes digest the
    manifest records, so two references share a slot only when the
    loader would rebuild indistinguishable arrays from either.
    """
    remap: dict[int, int] = {}
    seen: dict[str, int] = {}
    unique: list[np.ndarray] = []
    for index, array in enumerate(arrays):
        digest = _array_digest(array)
        if digest in seen:
            remap[index] = seen[digest]
        else:
            seen[digest] = remap[index] = len(unique)
            unique.append(array)
    if len(unique) == len(arrays):
        return structure, arrays
    return _remap_refs(structure, remap), unique


def _remap_refs(node, remap: dict[int, int]):
    if isinstance(node, list):
        return [_remap_refs(item, remap) for item in node]
    if isinstance(node, dict):
        if "__ndarray__" in node:
            return {"__ndarray__": remap[node["__ndarray__"]]}
        if "__bytes__" in node:
            return {"__bytes__": remap[node["__bytes__"]]}
        return {key: _remap_refs(value, remap) for key, value in node.items()}
    return node


def save_artifact(
    model,
    path: str | pathlib.Path,
    *,
    model_name: str | None = None,
    dataset_fingerprint: str | None = None,
    metrics: dict | None = None,
    extra: dict | None = None,
    compression: str = "deflate",
) -> ArtifactInfo:
    """Persist one fitted model as a schema-versioned artifact file.

    ``compression`` picks the zip layout: ``"deflate"`` (default, the
    historical ``np.savez_compressed`` behaviour) or ``"stored"``
    (uncompressed members, mappable via ``load_artifact(mmap_mode)``).
    The layout never enters the content digest — the same model saves to
    the same version either way.
    """
    if compression not in _ZIP_METHODS:
        raise ValueError(
            f"unknown artifact compression {compression!r}; "
            f"choose one of {sorted(_ZIP_METHODS)}"
        )
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    captured = capture(model)
    arrays: list[np.ndarray] = []
    structure = {
        "class": captured["class"],
        "params": encode(captured["params"], arrays),
        "state": encode(captured["state"], arrays),
    }
    if SCHEMA_VERSION >= 2:
        structure, arrays = _share_arrays(structure, arrays)
    names = [f"a{index}" for index in range(len(arrays))]
    manifest = {
        "format": ARTIFACT_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "model_name": model_name or getattr(model, "name", type(model).__name__),
        "model": structure,
        "dataset_fingerprint": dataset_fingerprint,
        "metrics": _jsonable(metrics) if metrics else None,
        "extra": _jsonable(extra) if extra else None,
        "arrays": {
            name: {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "sha256": _array_digest(array),
            }
            for name, array in zip(names, arrays)
        },
        "created_at": time.time(),
    }
    manifest["digest"] = artifact_digest(manifest)
    payload = {
        _MANIFEST_KEY: np.frombuffer(
            json.dumps(manifest, ensure_ascii=False).encode("utf-8"),
            dtype=np.uint8,
        )
    }
    payload.update(dict(zip(names, arrays)))
    # Write through an explicit, already-open handle: np.savez and
    # np.savez_compressed append ".npz" to any *string or Path*
    # destination that lacks the suffix, but use a file object as-is —
    # so the artifact lands at exactly ``path`` whether or not it ends
    # in ".npz" (behaviour pinned by tests/artifacts/test_format.py).
    with open(path, "wb") as handle:
        if compression == "stored":
            np.savez(handle, **payload)
        else:
            np.savez_compressed(handle, **payload)
    return ArtifactInfo(path=path, digest=manifest["digest"], manifest=manifest)


def _open_archive(path: pathlib.Path) -> np.lib.npyio.NpzFile:
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except _DAMAGE as error:
        raise CorruptArtifactError(
            f"{path} is not a readable artifact: {error}"
        ) from error


def _read_member(archive, path, name) -> np.ndarray:
    try:
        return archive[name]
    except KeyError as error:
        raise CorruptArtifactError(
            f"{path} is missing artifact member {name!r}"
        ) from error
    except _DAMAGE as error:
        raise CorruptArtifactError(
            f"{path}: artifact member {name!r} is unreadable: {error}"
        ) from error


def _parse_manifest(archive, path: pathlib.Path) -> dict:
    raw = _read_member(archive, path, _MANIFEST_KEY)
    try:
        manifest = json.loads(bytes(raw.tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptArtifactError(
            f"{path} carries an unparseable manifest: {error}"
        ) from error
    if not isinstance(manifest, dict) or manifest.get("format") != ARTIFACT_FORMAT:
        raise CorruptArtifactError(
            f"{path} is not a {ARTIFACT_FORMAT} file"
        )
    version = manifest.get("schema_version")
    if version not in READABLE_SCHEMAS:
        raise SchemaVersionError(
            f"{path} uses artifact schema {version!r}; this build reads "
            f"schemas {sorted(READABLE_SCHEMAS)}"
        )
    return manifest


def read_manifest(path: str | pathlib.Path) -> dict:
    """Manifest only — no payload verification, no model construction."""
    path = pathlib.Path(path)
    with _open_archive(path) as archive:
        return _parse_manifest(archive, path)


def _verified_arrays(archive, path, declared) -> dict[int, np.ndarray]:
    """Read every payload array, enforcing its manifest SHA-256."""
    arrays: dict[int, np.ndarray] = {}
    for name, meta in declared.items():
        _check_array_name(path, name)
        array = _read_member(archive, path, name)
        if _array_digest(array) != meta.get("sha256"):
            raise IntegrityError(
                f"{path}: array {name!r} fails its SHA-256 check "
                "(artifact altered after save)"
            )
        arrays[int(name[1:])] = array
    return arrays


def _check_array_name(path, name: str) -> None:
    if not (name.startswith("a") and name[1:].isdigit()):
        raise CorruptArtifactError(
            f"{path}: manifest declares malformed array name {name!r}"
        )


def _npy_header(mapped: mmap.mmap, start: int) -> tuple:
    """``(shape, fortran_order, dtype, data_offset)`` of the ``.npy`` at
    ``start``, read by numpy's own header readers from a bounded window
    of the map (numpy refuses headers longer than ``_NPY_HEADER_MAX``)."""
    stream = io.BytesIO(
        mapped[start:start + np.lib.format.MAGIC_LEN + 4 + _NPY_HEADER_MAX]
    )
    version = np.lib.format.read_magic(stream)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
    else:
        raise ValueError(f"npy format version {version}")
    return shape, fortran, dtype, start + stream.tell()


def _map_stored_member(
    path: pathlib.Path, mapped: mmap.mmap, info: zipfile.ZipInfo, meta
) -> np.ndarray:
    """A read-only view of one uncompressed ``.npy`` member of ``mapped``.

    ``np.load`` ignores ``mmap_mode`` for zip archives, so this parses
    the member's local file header (its name/extra lengths may differ
    from the central directory's) to find the embedded ``.npy``, reads
    that header, and views the raw array bytes in place. The header's
    dtype and shape must equal the manifest's ``arrays`` entry (covered
    by the manifest digest), and the array's bytes must lie inside the
    member, so an edited header cannot read past its member or the file.
    """
    header = mapped[info.header_offset:info.header_offset + _LOCAL_HEADER.size]
    if len(header) != _LOCAL_HEADER.size or header[:4] != b"PK\x03\x04":
        raise CorruptArtifactError(
            f"{path}: damaged local header for member {info.filename!r}"
        )
    name_len, extra_len = _LOCAL_HEADER.unpack(header)[9:11]
    member_start = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
    try:
        shape, fortran, dtype, offset = _npy_header(mapped, member_start)
    except _DAMAGE as error:
        raise CorruptArtifactError(
            f"{path}: member {info.filename!r} is not a mappable npy "
            f"array: {error}"
        ) from error
    if dtype.hasobject:
        raise CorruptArtifactError(
            f"{path}: member {info.filename!r} holds objects, refusing"
        )
    if not isinstance(meta, dict) or (
        meta.get("dtype"), meta.get("shape")
    ) != (dtype.str, list(shape)):
        raise CorruptArtifactError(
            f"{path}: member {info.filename!r} header ({dtype.str}, "
            f"{list(shape)}) disagrees with the manifest"
        )
    count = math.prod(shape)
    end = offset + count * dtype.itemsize
    if end > min(member_start + info.compress_size, len(mapped)):
        raise CorruptArtifactError(
            f"{path}: member {info.filename!r} array overruns its member"
        )
    return np.frombuffer(mapped, dtype=dtype, count=count, offset=offset).reshape(
        shape, order="F" if fortran else "C"
    )


def _mapped_arrays(archive, path: pathlib.Path, declared) -> dict[int, np.ndarray]:
    """Zero-copy array views for stored members; copy-read the rest.

    The file is mapped once, through the descriptor ``np.load`` opened,
    and its zip directory is the one ``np.load`` already parsed; each
    stored member becomes a view into that one map.

    Per-array SHA-256 checks are deliberately skipped here — hashing
    would page every byte in and erase the zero-copy win. Mapped loads
    are meant for files whose integrity was established when they were
    written: store spools are ETag-verified on fetch,
    :func:`repack_artifact` re-verifies every array while deriving a
    stored-layout copy, and a fleet runs :func:`verify_artifact` on a
    ``model_path`` before its workers map it. The default (non-mmap)
    load path keeps full verification.
    """
    arrays: dict[int, np.ndarray] = {}
    members = {info.filename: info for info in archive.zip.infolist()}
    mapped = None
    for name, meta in declared.items():
        _check_array_name(path, name)
        info = members.get(f"{name}.npy")
        if info is not None and info.compress_type == zipfile.ZIP_STORED:
            if mapped is None:
                mapped = mmap.mmap(
                    archive.zip.fp.fileno(), 0, access=mmap.ACCESS_READ
                )
            arrays[int(name[1:])] = _map_stored_member(
                path, mapped, info, meta
            )
        else:
            # Deflated member: decompress-copy. The call still works
            # on compressed artifacts, it just stops being zero-copy.
            arrays[int(name[1:])] = _read_member(archive, path, name)
    return arrays


def is_stored_layout(path: str | pathlib.Path) -> bool:
    """True when every member of the artifact zip is uncompressed.

    Such files are fully mappable: ``load_artifact(mmap_mode="r")``
    creates no array copies at all.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            return all(
                info.compress_type == zipfile.ZIP_STORED
                for info in zf.infolist()
            )
    except (zipfile.BadZipFile, OSError):
        return False


def verify_artifact(path: str | pathlib.Path) -> None:
    """Check every payload array against its manifest SHA-256.

    The per-array pass a copying :func:`load_artifact` runs, without
    building the model. A mapped load skips it, so whoever derives or
    hands out a file to be mapped runs it once first:
    :func:`repack_artifact` on its source, and a fleet on a ``model_path``
    its workers will map.
    """
    path = pathlib.Path(path)
    with _open_archive(path) as archive:
        manifest = _parse_manifest(archive, path)
        declared = manifest.get("arrays")
        if not isinstance(declared, dict):
            raise CorruptArtifactError(f"{path}: manifest lacks array table")
        _verified_arrays(archive, path, declared)


def repack_artifact(
    source: str | pathlib.Path,
    dest: str | pathlib.Path,
    *,
    compression: str = "stored",
) -> pathlib.Path:
    """Rewrite an artifact under a different zip layout; same content.

    Member bytes are copied verbatim (the ``.npy`` serialisation never
    changes), so the digest — and therefore the store version — is
    unchanged. Every payload array is re-verified against its manifest
    SHA-256 while the bytes are in hand; this creation-time check is
    what lets ``load_artifact(mmap_mode="r")`` skip per-array hashing
    on the derived file. The write is mkstemp + atomic rename into
    ``dest``'s directory: concurrent derivations of one version
    converge, and maps of a previously derived file stay valid because
    rename never touches the old inode.
    """
    if compression not in _ZIP_METHODS:
        raise ValueError(
            f"unknown artifact compression {compression!r}; "
            f"choose one of {sorted(_ZIP_METHODS)}"
        )
    source = pathlib.Path(source)
    dest = pathlib.Path(dest)
    verify_artifact(source)
    dest.parent.mkdir(parents=True, exist_ok=True)
    method = _ZIP_METHODS[compression]
    handle, temp_name = tempfile.mkstemp(
        dir=dest.parent, prefix=f".tmp-{dest.stem[:16]}-", suffix=".npz"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            with zipfile.ZipFile(source) as src, zipfile.ZipFile(
                stream, "w", method
            ) as out:
                for info in src.infolist():
                    out.writestr(
                        info.filename,
                        src.read(info.filename),
                        compress_type=method,
                    )
        os.replace(temp_name, dest)
    finally:
        pathlib.Path(temp_name).unlink(missing_ok=True)
    return dest


def load_artifact(
    path: str | pathlib.Path,
    *,
    expected_fingerprint: str | None = None,
    mmap_mode: str | None = None,
):
    """Verify and rebuild the fitted model an artifact holds.

    Args:
        path: Artifact file written by :func:`save_artifact`.
        expected_fingerprint: When given, the manifest's
            ``dataset_fingerprint`` must match exactly.
        mmap_mode: ``None`` (default) reads and fully verifies every
            array. ``"r"`` memory-maps uncompressed members read-only
            straight off the file — a stored-layout artifact loads
            without copying node arrays, and the pages stay shared
            between every process mapping the same file. Mapped loads
            skip per-array SHA-256 checks (see :func:`repack_artifact`
            for where verification happens instead); manifest-digest
            and fingerprint checks still run.

    Returns:
        ``(model, manifest)`` — the manifest includes the verified
        content ``digest``.

    Raises:
        CorruptArtifactError: Unreadable zip/JSON or missing members.
        IntegrityError: Any payload or manifest digest mismatch.
        SchemaVersionError: Artifact written under another schema.
        FingerprintMismatchError: Dataset fingerprint divergence.
        UnknownModelClassError: Manifest names a non-``repro`` class.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(
            "artifact maps are read-only: mmap_mode must be None or 'r'"
        )
    path = pathlib.Path(path)
    with _open_archive(path) as archive:
        manifest = _parse_manifest(archive, path)
        declared = manifest.get("arrays")
        if not isinstance(declared, dict):
            raise CorruptArtifactError(f"{path}: manifest lacks array table")
        if mmap_mode is None:
            arrays = _verified_arrays(archive, path, declared)
        else:
            arrays = _mapped_arrays(archive, path, declared)
        if artifact_digest(manifest) != manifest.get("digest"):
            raise IntegrityError(
                f"{path}: manifest digest mismatch (artifact altered "
                "after save)"
            )
        if expected_fingerprint is not None:
            actual = manifest.get("dataset_fingerprint")
            if actual != expected_fingerprint:
                raise FingerprintMismatchError(
                    f"{path} was trained on dataset {actual!r}, caller "
                    f"requires {expected_fingerprint!r}"
                )
        structure = manifest.get("model")
        if not isinstance(structure, dict):
            raise CorruptArtifactError(f"{path}: manifest lacks model entry")
        model = restore(
            {
                "class": structure.get("class"),
                "params": decode(structure.get("params"), arrays),
                "state": decode(structure.get("state"), arrays),
            }
        )
    return model, manifest
