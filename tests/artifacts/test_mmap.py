"""Zero-copy mmap loads: correctness, sharing, and re-spool safety.

``load_artifact(mmap_mode="r")`` must serve bit-identical predictions
while backing the model's node arrays with read-only maps of the file
(no heap copies), survive a concurrent re-spool of the same path
(mkstemp + rename replaces the directory entry, never the mapped
inode), and wire through ``ModelStore.load`` / ``mmap_path_of`` and
``ScanService.from_artifact``.
"""

import ast
import json
import mmap
import os
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    ArtifactError,
    CorruptArtifactError,
    ModelStore,
    is_stored_layout,
    load_artifact,
    repack_artifact,
    save_artifact,
)
from repro.artifacts.format import _mapped_arrays
from repro.serve.service import ScanService


@pytest.fixture()
def stored_artifact(fitted_forest, tmp_path):
    return save_artifact(
        fitted_forest, tmp_path / "m.npz", compression="stored"
    )


def _leaf_arrays(node):
    """Every ndarray reachable through a model's state tree."""
    stack, found = [node], []
    while stack:
        current = stack.pop()
        if isinstance(current, np.ndarray):
            found.append(current)
        elif isinstance(current, dict):
            stack.extend(current.values())
        elif isinstance(current, (list, tuple)):
            stack.extend(current)
    return found


def _is_mapped(array) -> bool:
    """True when ``array`` is, or views, a memory map of the file.

    A mapped load views one ``mmap.mmap`` of the artifact through a
    ``memoryview`` (an ``np.memmap`` counts too); a copying load owns
    its bytes.
    """
    base = array
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return True
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return isinstance(base, mmap.mmap)


class TestMappedLoad:
    def test_bit_identical(self, stored_artifact, fitted_forest,
                           probe_batch):
        model, manifest = load_artifact(stored_artifact.path, mmap_mode="r")
        assert manifest["digest"] == stored_artifact.digest
        assert np.array_equal(
            model.predict_proba(probe_batch),
            fitted_forest.predict_proba(probe_batch),
        )

    def test_arrays_are_memory_mapped(self, stored_artifact, fitted_forest):
        model, __ = load_artifact(stored_artifact.path, mmap_mode="r")
        mapped = [
            a for a in _leaf_arrays(model.state_dict()) if _is_mapped(a)
        ]
        assert mapped, "no state array is backed by a memory map"
        copied, __ = load_artifact(stored_artifact.path)
        assert not any(
            _is_mapped(a) for a in _leaf_arrays(copied.state_dict())
        ), "a copying load reported a memory-mapped array"

    def test_deflated_artifact_falls_back_to_copy(self, fitted_forest,
                                                  probe_batch, tmp_path):
        info = save_artifact(fitted_forest, tmp_path / "m.npz")
        model, __ = load_artifact(info.path, mmap_mode="r")
        assert np.array_equal(
            model.predict_proba(probe_batch),
            fitted_forest.predict_proba(probe_batch),
        )

    def test_writable_modes_rejected(self, stored_artifact):
        with pytest.raises(ValueError, match="read-only"):
            load_artifact(stored_artifact.path, mmap_mode="r+")

    def test_fingerprint_gate_still_runs(self, stored_artifact):
        from repro.artifacts import FingerprintMismatchError

        with pytest.raises(FingerprintMismatchError):
            load_artifact(
                stored_artifact.path,
                mmap_mode="r",
                expected_fingerprint="deadbeef",
            )


def _rewrite_npy_shape(path, name, shape):
    """Edit member ``name``'s ``.npy`` header to declare ``shape``.

    The header keeps its length (the padding absorbs the change) and the
    zip directory is left as it was, so only the header lies.
    """
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{name}.npy")
    data = bytearray(path.read_bytes())
    fixed = struct.Struct("<IHHHHHIIIHH")
    name_len, extra_len = fixed.unpack_from(data, info.header_offset)[9:11]
    start = info.header_offset + fixed.size + name_len + extra_len
    assert data[start:start + 8] == b"\x93NUMPY\x01\x00"
    (length,) = struct.unpack_from("<H", data, start + 8)
    header = ast.literal_eval(data[start + 10:start + 10 + length].decode())
    header["shape"] = shape
    text = repr(header).encode()
    assert len(text) < length
    data[start + 10:start + 10 + length] = text.ljust(length - 1) + b"\n"
    path.write_bytes(bytes(data))


def _one_dimensional_member(manifest):
    """Name of the first payload array that is 1-D with 10+ elements."""
    return next(
        name for name, meta in manifest["arrays"].items()
        if len(meta["shape"]) == 1 and meta["shape"][0] >= 10
    )


class TestMappedHeaderChecks:
    """An edited ``.npy`` header must not map bytes it does not own."""

    @pytest.mark.parametrize("grow", [
        lambda n: n + n // 2 + 1,   # reads on into the next member
        lambda n: n * 10_000,       # reads past the end of the file
    ], ids=["into-next-member", "past-end-of-file"])
    def test_grown_shape_is_corrupt(self, stored_artifact, grow):
        path = stored_artifact.path
        name = _one_dimensional_member(stored_artifact.manifest)
        (n,) = stored_artifact.manifest["arrays"][name]["shape"]
        _rewrite_npy_shape(path, name, (grow(n),))
        with pytest.raises(CorruptArtifactError, match=f"{name}.npy"):
            load_artifact(path, mmap_mode="r")

    def test_shape_agreeing_with_manifest_still_maps(self, stored_artifact,
                                                     fitted_forest,
                                                     probe_batch):
        # The rewrite helper itself leaves a loadable file when it keeps
        # the declared shape, so the failures above are the check's.
        path = stored_artifact.path
        name = _one_dimensional_member(stored_artifact.manifest)
        shape = tuple(stored_artifact.manifest["arrays"][name]["shape"])
        _rewrite_npy_shape(path, name, shape)
        model, __ = load_artifact(path, mmap_mode="r")
        assert np.array_equal(
            model.predict_proba(probe_batch),
            fitted_forest.predict_proba(probe_batch),
        )


@pytest.fixture(scope="module")
def stored_bytes(fitted_forest, tmp_path_factory):
    """The bytes of a stored-layout artifact and where to write a copy,
    plus the offsets of its structure: each member's local zip header
    and the start of its ``.npy`` header, and the central directory."""
    path = tmp_path_factory.mktemp("mutations") / "m.npz"
    save_artifact(fitted_forest, path, compression="stored")
    original = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    structure = [
        offset
        for info in infos
        for offset in range(info.header_offset, info.header_offset + 200)
    ]
    directory = original.index(b"PK\x01\x02")
    structure += range(directory, len(original))
    return original, sorted(set(structure)), path.with_name("mutated.npz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_stored_artifact_fails_typed_or_matches_manifest(
    stored_bytes, data
):
    # ROADMAP 6(b) for the mapped path: a few changed bytes in a
    # stored-layout artifact either raise an ArtifactError subclass or
    # load arrays whose dtype and shape are the manifest's. Most edits
    # land on zip and npy structure, where the parsers are; the rest
    # anywhere in the file.
    original, structure, path = stored_bytes
    mutated = bytearray(original)
    position = st.sampled_from(structure) | st.integers(0, len(original) - 1)
    edits = data.draw(st.lists(
        st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4,
    ))
    for offset, value in edits:
        mutated[offset] = value
    path.write_bytes(bytes(mutated))
    try:
        load_artifact(path, mmap_mode="r")
    except ArtifactError:
        return
    with np.load(path) as archive:
        manifest = json.loads(archive["__manifest__"].tobytes())
        declared = manifest["arrays"]
        for index, array in _mapped_arrays(archive, path, declared).items():
            meta = declared[f"a{index}"]
            assert (array.dtype.str, list(array.shape)) == (
                meta["dtype"], meta["shape"]
            )


class TestConcurrentRespool:
    def test_open_maps_survive_respool(self, stored_artifact,
                                       fitted_forest, probe_batch,
                                       tmp_path):
        # Two "workers" map the spooled artifact; a third re-spools the
        # same path (mkstemp + rename, exactly like ModelStore.path_of
        # and repack_artifact). The old inode must stay alive under the
        # open maps, so both workers keep serving bit-identical scores,
        # while a fresh load maps the new directory entry.
        reference = fitted_forest.predict_proba(probe_batch)
        worker_a, __ = load_artifact(stored_artifact.path, mmap_mode="r")
        worker_b, __ = load_artifact(stored_artifact.path, mmap_mode="r")
        inode_before = os.stat(stored_artifact.path).st_ino

        # Third party re-derives the spool file in place.
        repack_artifact(
            stored_artifact.path, stored_artifact.path,
            compression="stored",
        )
        inode_after = os.stat(stored_artifact.path).st_ino
        assert inode_before != inode_after, (
            "re-spool rewrote in place instead of mkstemp+rename"
        )

        assert np.array_equal(worker_a.predict_proba(probe_batch),
                              reference)
        assert np.array_equal(worker_b.predict_proba(probe_batch),
                              reference)
        fresh, __ = load_artifact(stored_artifact.path, mmap_mode="r")
        assert np.array_equal(fresh.predict_proba(probe_batch), reference)


class TestStoreWiring:
    def test_store_mmap_load(self, fitted_forest, probe_batch, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.put(fitted_forest, tags=("production",))
        model, __ = store.load("production", mmap_mode="r")
        assert np.array_equal(
            model.predict_proba(probe_batch),
            fitted_forest.predict_proba(probe_batch),
        )

    def test_derived_stored_spool_is_cached(self, fitted_forest, tmp_path):
        from repro.artifacts.backends import MemoryBucket, ObjectStoreBackend

        store = ModelStore(
            backend=ObjectStoreBackend(MemoryBucket()),
            cache_dir=tmp_path / "spool",
        )
        version = store.put(fitted_forest, tags=("production",))
        derived = store.mmap_path_of("production")
        assert derived.name == f"{version}.stored.npz"
        assert is_stored_layout(derived)
        stamp = derived.stat().st_mtime_ns
        # Second resolution reuses the immutable derived file.
        assert store.mmap_path_of("production") == derived
        assert derived.stat().st_mtime_ns == stamp

    def test_already_stored_artifact_maps_directly(self, fitted_forest,
                                                   tmp_path):
        # An imported stored-layout artifact needs no derived copy on
        # path-addressable backends.
        info = save_artifact(
            fitted_forest, tmp_path / "m.npz", compression="stored"
        )
        store = ModelStore(tmp_path / "store")
        store.import_artifact(info.path, tags=("production",))
        path = store.mmap_path_of("production")
        assert is_stored_layout(path)

    def test_service_cold_start_mmap(self, fitted_forest, probe_batch,
                                     tmp_path):
        store = ModelStore(tmp_path / "store")
        store.put(fitted_forest, tags=("production",))
        plain = ScanService.from_artifact("production", store=store)
        mapped = ScanService.from_artifact(
            "production", store=store, mmap_mode="r"
        )
        for left, right in zip(
            plain.scan_bytecodes(probe_batch),
            mapped.scan_bytecodes(probe_batch),
        ):
            assert left.probability == right.probability
            assert left.is_phishing == right.is_phishing
