"""ModelStore: content addressing, tags, transport, GC."""

import numpy as np
import pytest

from repro.artifacts import (
    CorruptArtifactError,
    IntegrityError,
    ModelStore,
    UnknownVersionError,
    save_artifact,
)


@pytest.fixture()
def store(tmp_path):
    return ModelStore(tmp_path / "store")


@pytest.fixture()
def stocked(store, fitted_forest, artifact_dataset):
    version = store.put(
        fitted_forest,
        model_name="Random Forest",
        dataset_fingerprint=artifact_dataset.fingerprint(),
        metrics={"accuracy": 0.91},
        tags=("latest", "production"),
    )
    return store, version


class TestPutAndLoad:
    def test_put_load_round_trip(self, stocked, fitted_forest, probe_batch):
        store, version = stocked
        model, manifest = store.load(version)
        assert manifest["digest"] == version
        assert np.array_equal(
            model.predict_proba(probe_batch),
            fitted_forest.predict_proba(probe_batch),
        )

    def test_content_addressed_dedup(self, stocked, fitted_forest,
                                     artifact_dataset):
        store, version = stocked
        again = store.put(
            fitted_forest,
            model_name="Random Forest",
            dataset_fingerprint=artifact_dataset.fingerprint(),
            metrics={"accuracy": 0.91},
            tags=("candidate",),
        )
        assert again == version
        assert len(store) == 1  # one object, three tags

    def test_resolve_tag_version_and_prefix(self, stocked):
        store, version = stocked
        assert store.resolve("production") == version
        assert store.resolve(version) == version
        assert store.resolve(version[:12]) == version

    def test_unknown_ref_raises(self, stocked):
        store, __ = stocked
        with pytest.raises(UnknownVersionError):
            store.resolve("no-such-tag")

    def test_list_rows(self, stocked):
        store, version = stocked
        rows = store.list()
        assert len(rows) == 1
        row = rows[0]
        assert row["version"] == version
        assert row["model_name"] == "Random Forest"
        assert row["tags"] == ["latest", "production"]
        assert row["metrics"]["accuracy"] == 0.91
        assert row["size_bytes"] > 0

    def test_retag_moves_pointer(self, stocked, artifact_dataset):
        from repro.models.hsc import HSCDetector

        store, old = stocked
        other = HSCDetector(variant="Logistic Regression", seed=1)
        other.fit(artifact_dataset.bytecodes, artifact_dataset.labels)
        new = store.put(other, model_name="Logistic Regression",
                        tags=("candidate",))
        assert new != old
        store.tag("production", new)
        assert store.resolve("production") == new
        assert store.resolve("latest") == old  # untouched

    def test_invalid_tag_name(self, stocked):
        store, version = stocked
        with pytest.raises(ValueError):
            store.tag("../evil", version)


class TestTransportAndGc:
    def test_export_import_round_trip(self, stocked, tmp_path, probe_batch,
                                      fitted_forest):
        store, version = stocked
        shipped = store.export("production", tmp_path / "shipped.npz")
        other = ModelStore(tmp_path / "other-box")
        imported = other.import_artifact(shipped, tags=("production",))
        assert imported == version
        model, __ = other.load("production")
        assert np.array_equal(
            model.predict_proba(probe_batch),
            fitted_forest.predict_proba(probe_batch),
        )

    def test_import_rejects_tampered_file(self, stocked, tmp_path):
        store, version = stocked
        shipped = store.export(version, tmp_path / "shipped.npz")
        blob = bytearray(shipped.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shipped.write_bytes(bytes(blob))
        other = ModelStore(tmp_path / "other-box")
        with pytest.raises(Exception) as caught:
            other.import_artifact(shipped)
        from repro.artifacts import ArtifactError

        assert isinstance(caught.value, ArtifactError)
        # A file wrapped in a compression frame (magic 28 b5 2f fd) is
        # not an artifact zip: a typed refusal, never a traceback.
        framed = tmp_path / "shipped.npz.frame"
        framed.write_bytes(
            b"\x28\xb5\x2f\xfd" + store.path_of(version).read_bytes()
        )
        with pytest.raises(CorruptArtifactError):
            other.import_artifact(framed)
        assert len(other) == 0  # nothing admitted

    def test_gc_removes_only_untagged(self, stocked, artifact_dataset):
        from repro.models.hsc import HSCDetector

        store, keep = stocked
        doomed_model = HSCDetector(variant="k-NN", seed=0)
        doomed_model.fit(artifact_dataset.bytecodes, artifact_dataset.labels)
        doomed = store.put(doomed_model, tags=("temp",))
        store.untag("temp")
        removed = store.gc()
        assert removed == [doomed]
        assert store.versions() == [keep]

    def test_export_artifact_loadable_standalone(self, stocked, tmp_path,
                                                 probe_batch):
        from repro.artifacts import load_artifact

        store, version = stocked
        shipped = store.export(version, tmp_path)
        model, manifest = load_artifact(shipped)
        assert manifest["digest"] == version
        assert model.predict_proba(probe_batch).shape == (len(probe_batch), 2)
