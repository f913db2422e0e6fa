"""Schema v2: shared-array storage, the compression knob, repack.

Schema 2 stores identical payload arrays once (ensemble children share
node tables); schema 1 artifacts written by earlier builds must keep
loading bit-for-bit. The zip layout (``compression=``) is a transport
property: it never changes the content digest, and ``repack_artifact``
converts between layouts losslessly.
"""

import zipfile

import numpy as np
import pytest

import repro.artifacts.format as artifact_format
from repro.artifacts import (
    SCHEMA_VERSION,
    is_stored_layout,
    load_artifact,
    read_manifest,
    repack_artifact,
    save_artifact,
)
from repro.core.registry import create_model


@pytest.fixture(scope="module")
def fitted_gbdt(artifact_dataset):
    # Boosted ensembles are the shared-array case: their per-tree
    # children repeat class tables and small node arrays verbatim.
    model = create_model("XGBoost", seed=0)
    model.set_params(clf__n_estimators=20)
    model.fit(artifact_dataset.bytecodes, artifact_dataset.labels)
    return model


class TestSharedArrays:
    def test_schema_version_is_2(self, fitted_forest, tmp_path):
        info = save_artifact(fitted_forest, tmp_path / "m.npz")
        assert info.manifest["schema_version"] == SCHEMA_VERSION == 2

    def test_duplicate_arrays_stored_once(self, fitted_gbdt, tmp_path):
        info = save_artifact(fitted_gbdt, tmp_path / "gbdt.npz")
        raw: list = []
        from repro.artifacts.state import capture, encode

        captured = capture(fitted_gbdt)
        encode(captured["params"], raw)
        encode(captured["state"], raw)
        stored = len(info.manifest["arrays"])
        assert stored < len(raw), (
            "boosted ensemble saved without shared-array dedup "
            f"({stored} stored vs {len(raw)} referenced)"
        )
        # Every stored array is unique by content.
        digests = [meta["sha256"] for meta in info.manifest["arrays"].values()]
        assert len(digests) == len(set(digests))

    def test_shared_arrays_round_trip_bit_identical(
        self, fitted_gbdt, artifact_dataset, tmp_path
    ):
        probe = artifact_dataset.bytecodes[:10]
        reference = fitted_gbdt.predict_proba(probe)
        info = save_artifact(fitted_gbdt, tmp_path / "gbdt.npz")
        model, __ = load_artifact(info.path)
        assert np.array_equal(model.predict_proba(probe), reference)

    def test_v1_artifact_loads_bit_identical(
        self, fitted_gbdt, artifact_dataset, tmp_path, monkeypatch
    ):
        # A v1 writer appends every referenced array; the v2 reader must
        # reproduce the exact model from either layout.
        probe = artifact_dataset.bytecodes[:10]
        reference = fitted_gbdt.predict_proba(probe)
        monkeypatch.setattr(artifact_format, "SCHEMA_VERSION", 1)
        v1 = save_artifact(fitted_gbdt, tmp_path / "v1.npz")
        monkeypatch.undo()
        assert read_manifest(v1.path)["schema_version"] == 1
        model, manifest = load_artifact(v1.path)
        assert manifest["schema_version"] == 1
        assert np.array_equal(model.predict_proba(probe), reference)

    def test_v1_vs_v2_array_counts(self, fitted_gbdt, tmp_path, monkeypatch):
        monkeypatch.setattr(artifact_format, "SCHEMA_VERSION", 1)
        v1 = save_artifact(fitted_gbdt, tmp_path / "v1.npz")
        monkeypatch.undo()
        v2 = save_artifact(fitted_gbdt, tmp_path / "v2.npz")
        assert len(v2.manifest["arrays"]) < len(v1.manifest["arrays"])


class TestCompressionKnob:
    def test_default_stays_deflated(self, fitted_forest, tmp_path):
        save_artifact(fitted_forest, tmp_path / "m.npz")
        with zipfile.ZipFile(tmp_path / "m.npz") as archive:
            assert any(
                info.compress_type == zipfile.ZIP_DEFLATED
                for info in archive.infolist()
            )
        assert not is_stored_layout(tmp_path / "m.npz")

    def test_stored_layout_is_uncompressed(self, fitted_forest, tmp_path):
        save_artifact(
            fitted_forest, tmp_path / "m.npz", compression="stored"
        )
        assert is_stored_layout(tmp_path / "m.npz")

    def test_layout_never_changes_the_digest(self, fitted_forest, tmp_path):
        deflated = save_artifact(fitted_forest, tmp_path / "a.npz")
        stored = save_artifact(
            fitted_forest, tmp_path / "b.npz", compression="stored"
        )
        assert deflated.digest == stored.digest

    def test_unknown_compression_rejected(self, fitted_forest, tmp_path):
        with pytest.raises(ValueError, match="compression"):
            save_artifact(
                fitted_forest, tmp_path / "m.npz", compression="lzma"
            )

    def test_bare_path_gets_no_npz_suffix(self, fitted_forest, tmp_path):
        # np.savez appends ".npz" to bare string/Path destinations;
        # save_artifact writes through an open handle precisely so the
        # file lands at the exact path the caller named.
        for compression in ("deflate", "stored"):
            target = tmp_path / f"bare-{compression}"
            info = save_artifact(
                fitted_forest, target, compression=compression
            )
            assert info.path == target
            assert target.is_file()
            assert not target.with_suffix(".npz").exists()
            model, __ = load_artifact(target)
            assert model is not None

    def test_npz_suffixed_path_is_used_verbatim(self, fitted_forest,
                                                tmp_path):
        target = tmp_path / "suffixed.npz"
        save_artifact(fitted_forest, target)
        assert target.is_file()
        assert not (tmp_path / "suffixed.npz.npz").exists()


class TestRepack:
    def test_repack_preserves_digest_and_model(
        self, fitted_forest, artifact_dataset, tmp_path
    ):
        probe = artifact_dataset.bytecodes[:10]
        reference = fitted_forest.predict_proba(probe)
        info = save_artifact(fitted_forest, tmp_path / "m.npz")
        stored = repack_artifact(
            info.path, tmp_path / "m.stored.npz", compression="stored"
        )
        assert is_stored_layout(stored)
        assert read_manifest(stored)["digest"] == info.digest
        model, __ = load_artifact(stored)
        assert np.array_equal(model.predict_proba(probe), reference)
        # And back to deflate.
        deflated = repack_artifact(
            stored, tmp_path / "m.deflate.npz", compression="deflate"
        )
        assert not is_stored_layout(deflated)
        assert read_manifest(deflated)["digest"] == info.digest

    def test_repack_verifies_payload(self, fitted_forest, tmp_path):
        from repro.artifacts import IntegrityError
        from repro.artifacts.format import _MANIFEST_KEY

        info = save_artifact(fitted_forest, tmp_path / "m.npz")
        with np.load(info.path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        victim = next(name for name in members if name != _MANIFEST_KEY)
        members[victim] = members[victim].copy()
        members[victim].reshape(-1)[0] += 1
        tampered = tmp_path / "tampered.npz"
        with open(tampered, "wb") as handle:
            np.savez_compressed(handle, **members)
        with pytest.raises(IntegrityError):
            repack_artifact(tampered, tmp_path / "out.npz")

