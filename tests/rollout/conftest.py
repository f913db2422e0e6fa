"""Shared fixtures for shadow-rollout tests."""

import numpy as np
import pytest

from repro.artifacts import ModelStore
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.dataset import Dataset
from repro.models.hsc import HSCDetector
from repro.stream.events import ContractEvent
from repro.stream.scanner import StreamScanner


@pytest.fixture(scope="session")
def rollout_corpus():
    return build_corpus(
        CorpusConfig(n_phishing=30, n_benign=30, seed=23, clone_factor=3.0)
    )


@pytest.fixture(scope="session")
def rollout_dataset(rollout_corpus):
    return Dataset.from_corpus(rollout_corpus, seed=0)


def _forest(dataset, seed):
    model = HSCDetector(variant="Random Forest", seed=seed)
    model.set_params(clf__n_estimators=10)
    model.fit(dataset.bytecodes, dataset.labels)
    return model


@pytest.fixture(scope="session")
def production_model(rollout_dataset):
    return _forest(rollout_dataset, seed=0)


@pytest.fixture(scope="session")
def parity_model(rollout_dataset):
    """Same data, different seed: near-identical verdicts."""
    return _forest(rollout_dataset, seed=1)


@pytest.fixture()
def stocked_store(tmp_path, production_model, parity_model):
    """production + candidate tags over a fresh local store."""
    store = ModelStore(tmp_path / "store")
    prod = store.put(
        production_model, model_name="Random Forest", tags=("production",)
    )
    cand = store.put(
        parity_model, model_name="Random Forest", tags=("candidate",)
    )
    return store, prod, cand


@pytest.fixture()
def scanner(stocked_store):
    """A scanner serving the production artifact."""
    store, __, __ = stocked_store
    return StreamScanner.from_artifact(
        "production", store=store, max_batch=8, threshold=0.5
    )


class InvertedModel:
    """A catastrophically regressed candidate: 1 − p of a reference."""

    name = "Inverted"

    def __init__(self, reference):
        self._reference = reference

    def predict_proba(self, bytecodes):
        probs = self._reference.predict_proba(bytecodes)
        return probs[:, ::-1]


class ExplodingModel:
    """A candidate whose scoring path always raises."""

    name = "Exploding"

    def predict_proba(self, bytecodes):
        raise RuntimeError("candidate scoring is broken")


def make_event(index: int, code: bytes) -> ContractEvent:
    return ContractEvent(
        address=f"0x{index:040x}",
        code=code,
        block_number=index,
        timestamp=1_700_000_000 + index,
        tx_hash=f"0x{index:064x}",
        sequence=index,
    )


def feed(scanner, codes, start: int = 0) -> None:
    """Push one event per bytecode and drain the queue."""
    for offset, code in enumerate(codes):
        scanner.on_event(make_event(start + offset, code))
    scanner.flush()


def expected_probs(model, codes) -> dict:
    return {
        code: float(p)
        for code, p in zip(codes, np.asarray(model.predict_proba(codes))[:, 1])
    }
