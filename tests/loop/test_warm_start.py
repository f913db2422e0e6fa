"""Warm-start retrain: equivalence to cold refit + artifact fidelity."""

import numpy as np
import pytest

from repro.artifacts import ModelStore
from repro.loop import RetrainError, retrain_candidate
from repro.loop.retrain import _holdout_split
from repro.models.hsc import HSCDetector

from tests.loop.conftest import fit_production

GROW = 20
HOLDOUT = 0.25
SEED = 3


@pytest.fixture(scope="module")
def window(drift_corpus):
    """The sliding window a confirmed drift would hand to the retrain:
    the oldest 160 labeled events of the drifted campaign."""
    records = sorted(
        (r for r in drift_corpus.records if r.bytecode),
        key=lambda r: (r.timestamp, r.address),
    )[:160]
    return [r.bytecode for r in records], [r.label for r in records]


@pytest.fixture
def seeded_store(base_corpus, tmp_path):
    store = ModelStore(tmp_path / "store")
    store.put(fit_production(base_corpus), model_name="Random Forest",
              tags=("production",))
    return store


class TestEquivalence:
    def test_holdout_metrics_within_band_of_cold_refit(
            self, seeded_store, window):
        """The loop's economic bet, stated as a property: growing GROW
        trees on the window must land within 0.05 holdout accuracy of
        refitting an equal-sized forest from scratch on the same split.
        """
        codes, labels = window
        warm = retrain_candidate(
            store=seeded_store, bytecodes=codes, labels=labels,
            grow=GROW, holdout=HOLDOUT, seed=SEED,
        )
        warm_accuracy = warm.metrics["holdout_accuracy"]

        train_idx, hold_idx = _holdout_split(len(codes), HOLDOUT, SEED)
        cold = HSCDetector(variant="Random Forest", seed=1)
        cold.set_params(clf__n_estimators=40 + GROW)
        cold.fit([codes[i] for i in train_idx],
                 [labels[i] for i in train_idx])
        hold_codes = [codes[i] for i in hold_idx]
        hold_labels = np.asarray([labels[i] for i in hold_idx])
        cold_accuracy = float(
            ((cold.predict_proba(hold_codes)[:, 1] >= 0.5).astype(int)
             == hold_labels).mean()
        )
        assert abs(warm_accuracy - cold_accuracy) <= 0.05

    def test_retrain_registers_candidate_with_provenance(
            self, seeded_store, window):
        codes, labels = window
        production_digest = seeded_store.resolve("production")
        candidate = retrain_candidate(
            store=seeded_store, bytecodes=codes, labels=labels,
            grow=GROW, holdout=HOLDOUT, seed=SEED,
        )
        # The fit writes nothing; the caller registers.
        assert "candidate" not in seeded_store.tags()
        result = candidate.register(seeded_store)
        assert result["base"] == production_digest
        assert seeded_store.resolve("candidate") == result["candidate"]
        manifest = seeded_store.manifest("candidate")
        assert manifest["extra"]["warm_started_from"] == production_digest
        assert manifest["extra"]["grown_trees"] == GROW
        # Production is never touched by a retrain, only by a promotion.
        assert seeded_store.resolve("production") == production_digest


class TestDeterminism:
    def test_same_window_same_seed_same_candidate(self, base_corpus,
                                                  window, tmp_path):
        """fit_more growth is seeded per absolute tree index, so two
        identical retrains from the same artifact agree bit for bit."""
        codes, labels = window
        digests, scores = [], []
        for name in ("a", "b"):
            store = ModelStore(tmp_path / name)
            store.put(fit_production(base_corpus),
                      model_name="Random Forest", tags=("production",))
            result = retrain_candidate(
                store=store, bytecodes=codes, labels=labels,
                grow=GROW, holdout=HOLDOUT, seed=SEED,
            ).register(store)
            model, __ = store.load("candidate")
            digests.append(result["candidate"])
            scores.append(model.predict_proba(codes)[:, 1])
        assert digests[0] == digests[1]
        assert np.array_equal(scores[0], scores[1])

    def test_warm_started_model_round_trips_bit_identically(
            self, seeded_store, window):
        """state_dict -> artifact -> load preserves a warm-started
        forest exactly: same state arrays, same scores."""
        codes, labels = window
        retrain_candidate(
            store=seeded_store, bytecodes=codes, labels=labels,
            grow=GROW, holdout=HOLDOUT, seed=SEED,
        ).register(seeded_store)
        loaded, manifest = seeded_store.load("candidate")
        # Round-trip the loaded model once more through the store under
        # the same metadata: the content digest covers the manifest's
        # metrics/extra too, so equal digests prove the *state* bytes
        # (every tree array) survived load → save unchanged.
        digest = seeded_store.put(
            loaded, model_name=manifest["model_name"],
            metrics=manifest["metrics"], extra=manifest["extra"],
        )
        again, __ = seeded_store.load(digest)
        assert digest == manifest["digest"], (
            "re-serializing a loaded warm-started model changed its "
            "content digest"
        )
        assert np.array_equal(
            loaded.predict_proba(codes)[:, 1],
            again.predict_proba(codes)[:, 1],
        )

        def flatten(state, prefix=""):
            for key, value in sorted(state.items()):
                if isinstance(value, dict):
                    yield from flatten(value, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}", value

        for (key_a, a), (key_b, b) in zip(
                flatten(loaded.state_dict()), flatten(again.state_dict())):
            assert key_a == key_b
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f"state {key_a} diverged"
            else:
                assert a == b, f"state {key_a} diverged"


class TestFailureContract:
    def test_single_class_window_refused(self, seeded_store, window):
        codes, __ = window
        with pytest.raises(RetrainError, match="single-class"):
            retrain_candidate(
                store=seeded_store, bytecodes=codes,
                labels=[1] * len(codes),
                grow=GROW, holdout=HOLDOUT, seed=SEED,
            )
        assert "candidate" not in seeded_store.tags()

    def test_tiny_window_refused(self, seeded_store):
        with pytest.raises(RetrainError, match="labeled events"):
            retrain_candidate(
                store=seeded_store, bytecodes=[b"\x60"], labels=[1],
                grow=GROW,
            )

    def test_unsupported_family_refused(self, base_corpus, window,
                                        tmp_path):
        codes, labels = window
        store = ModelStore(tmp_path / "knn")
        records = [r for r in base_corpus.records if r.bytecode][:80]
        knn = HSCDetector(variant="k-NN", seed=0)
        knn.fit([r.bytecode for r in records], [r.label for r in records])
        store.put(knn, model_name="k-NN", tags=("production",))
        with pytest.raises(RetrainError, match="fit_more"):
            retrain_candidate(
                store=store, bytecodes=codes, labels=labels, grow=GROW,
            )
        assert "candidate" not in store.tags()
