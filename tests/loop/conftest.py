"""Shared fixtures for the continuous-learning-loop tests.

The corpora encode the one non-obvious lesson of this subsystem: the
default Fig. 2 monthly deployment profile clumps phishing mid-timeline,
so a single corpus replayed in chain order *self-drifts*. Deterministic
loop tests therefore use the flat (``uniform``) profile for every
campaign and induce drift the way a real campaign would — by shifting
the scam-family mix (75 % phishing in the drifted continuation vs 50 %
in the baseline).

``loop_harness`` is a factory for the proven deterministic recipe: a
40-tree production forest, a blocking scanner, a 160-score
drift monitor checked every 32 events, and a parity policy sized so the
64-event shadow window reaches a verdict. Exactly one
detect → retrain → shadow → promote cycle fires when the drifted
campaign replays after the stationary one.
"""

from types import SimpleNamespace

import pytest

from repro.artifacts import ModelStore
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.loop import DriftMonitor, LoopOrchestrator
from repro.models.hsc import HSCDetector
from repro.rollout import MetricParityPolicy
from repro.serve.cache import FeatureCache
from repro.serve.service import ScanService
from repro.stream import StreamScanner


#: Minimal-proxy clones per proxied base. Clones deploy in their base's
#: month, so the corpus default (30) clumps whole months onto one label:
#: its "stationary" campaigns swing between 32 % and 70 % phishing from
#: one 160-event drift window to the next, and the recipe then stayed
#: quiet or not depending on how the scanner batched events. At 3 every
#: window of the stationary campaigns stays near 50 %.
CLONE_FACTOR = 3.0


def loop_corpus(**config):
    return build_corpus(CorpusConfig(
        phishing_profile="uniform", clone_factor=CLONE_FACTOR, **config,
    ))


@pytest.fixture(scope="session")
def base_corpus():
    """Stationary baseline campaign: balanced mix, flat deployments."""
    return loop_corpus(n_phishing=120, n_benign=120, seed=7)


@pytest.fixture(scope="session")
def drift_corpus():
    """Drifted continuation: the phishing share jumps to 75 %."""
    return loop_corpus(n_phishing=300, n_benign=60, seed=8)


@pytest.fixture(scope="session")
def stationary_corpus():
    """A second stationary campaign (fresh seed, same balanced mix)."""
    return loop_corpus(n_phishing=120, n_benign=120, seed=9)


@pytest.fixture(scope="session")
def label_oracle(base_corpus, drift_corpus, stationary_corpus):
    """Ground truth for every address any loop test can replay."""
    labels = {}
    for corpus in (base_corpus, drift_corpus, stationary_corpus):
        labels.update(
            {r.address: r.label for r in corpus.records if r.bytecode}
        )
    return labels


def fit_production(corpus, *, n_estimators=40, seed=1):
    records = [r for r in corpus.records if r.bytecode]
    model = HSCDetector(variant="Random Forest", seed=seed)
    model.set_params(clf__n_estimators=n_estimators)
    model.fit([r.bytecode for r in records], [r.label for r in records])
    return model


@pytest.fixture
def loop_harness(base_corpus, label_oracle, tmp_path):
    """Factory for the deterministic loop recipe; see module docstring."""

    def build(*, policy=None, label_of=None, retrain_mode="subprocess",
              monitor=None, grow=20, store_path=None, **loop_kwargs):
        root = store_path or (tmp_path / "store")
        store = ModelStore(root)
        if "production" not in store.tags():
            store.put(
                fit_production(base_corpus),
                model_name="Random Forest", tags=("production",),
            )
        cache = FeatureCache(max_entries=8192)
        service = ScanService.from_artifact(
            "production", store=store, cache=cache, threshold=0.5
        )
        scanner = StreamScanner(
            service, max_batch=16, max_queue=256,
            policy="block", auto_flush=True,
        )
        loop = LoopOrchestrator(
            scanner, store,
            label_of=label_of or label_oracle.get,
            monitor=monitor or DriftMonitor(
                window=160, blocks=8, alpha=0.05,
                min_effect=0.2, confirm_checks=2,
            ),
            check_every=32,
            grow=grow,
            holdout=0.25,
            seed=3,
            policy=policy or MetricParityPolicy(
                min_events=60, promote_agreement=0.90,
                abort_agreement=0.40, max_mean_divergence=0.25,
            ),
            retrain_mode=retrain_mode,
            store_url=str(root) if retrain_mode == "subprocess" else None,
            wait_for_retrain=True,
            **loop_kwargs,
        )
        return SimpleNamespace(
            store=store, service=service, scanner=scanner, loop=loop,
            root=root,
        )

    return build
