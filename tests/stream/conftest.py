"""Shared fixtures for streaming-pipeline tests."""

import pytest

from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.dataset import Dataset
from repro.serve.service import ScanService


@pytest.fixture(scope="session")
def stream_corpus():
    return build_corpus(
        CorpusConfig(n_phishing=30, n_benign=30, seed=17, clone_factor=3.0)
    )


@pytest.fixture(scope="session")
def stream_dataset(stream_corpus):
    return Dataset.from_corpus(stream_corpus, seed=0)


@pytest.fixture(scope="session")
def fitted_service(stream_dataset):
    """One fitted Random Forest service; tests wrap its model per test."""
    service = ScanService(
        "Random Forest", train_dataset=stream_dataset, seed=0
    )
    service.ensure_fitted()
    return service


@pytest.fixture
def service(fitted_service):
    """A per-test service: isolated counters, shared fit, cache and
    prediction namespace."""
    return ScanService(
        fitted_service.model_name,
        model=fitted_service.model,
        cache=fitted_service.cache,
        namespace=fitted_service._serving[1],
    )
