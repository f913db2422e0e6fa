"""End-to-end PhishingHook orchestration (all of Fig. 1).

``PhishingHook.run()`` wires a simulated data plane through the four
modules: BEM crawl → dedup/balancing → MEM evaluation → PAM statistics.
This is the programmatic equivalent of the paper's full experimental
workflow and the entry point the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chain.bigquery import BigQueryClient
from repro.chain.rpc import JsonRpcClient, JsonRpcServer, NoCodeError
from repro.core.bdm import BytecodeDisassemblerModule
from repro.core.bem import BytecodeExtractionModule, ExtractedContract
from repro.core.mem import EvaluationResult, ModelEvaluationModule
from repro.core.pam import PostHocAnalysisModule, PostHocReport
from repro.core.registry import MODEL_NAMES, create_model
from repro.datagen.corpus import Corpus
from repro.datagen.dataset import Dataset
from repro.serve.cache import FeatureCache

__all__ = ["PipelineConfig", "PhishingHook"]


@dataclass
class PipelineConfig:
    """Pipeline knobs (paper values in parentheses)."""

    model_names: tuple[str, ...] = MODEL_NAMES
    n_folds: int = 3          # (10)
    n_runs: int = 1           # (3)
    seed: int = 0
    balance_classes: bool = True
    run_post_hoc: bool = True
    cache_max_entries: int = 8192  # feature-cache LRU bound


@dataclass
class PipelineOutcome:
    """Artifacts of one full run."""

    contracts: list[ExtractedContract]
    dataset: Dataset
    evaluation: EvaluationResult
    post_hoc: PostHocReport | None = None


class PhishingHook:
    """The framework facade over a (simulated) Ethereum data plane.

    Args:
        corpus: A built :class:`~repro.datagen.corpus.Corpus`, providing
            the chain, explorer and ground truth.
        config: Pipeline configuration.
    """

    def __init__(self, corpus: Corpus, config: PipelineConfig | None = None):
        self.corpus = corpus
        self.config = config or PipelineConfig()
        self.bem = BytecodeExtractionModule(
            bigquery=BigQueryClient(corpus.chain),
            explorer=corpus.explorer,
            rpc=JsonRpcClient(JsonRpcServer(corpus.chain)),
        )
        self.bdm = BytecodeDisassemblerModule()
        self.feature_cache = FeatureCache(
            max_entries=self.config.cache_max_entries
        )
        self.mem = ModelEvaluationModule(
            n_folds=self.config.n_folds,
            n_runs=self.config.n_runs,
            seed=self.config.seed,
        )
        self.pam = PostHocAnalysisModule()
        self._fitted_models: dict[tuple[str, str], object] = {}
        self._default_dataset: Dataset | None = None

    # ------------------------------------------------------------------ #

    def gather(self) -> list[ExtractedContract]:
        """BEM crawl over the full study window (Fig. 1 ➊–➍)."""
        return self.bem.crawl()

    def build_dataset(
        self, contracts: list[ExtractedContract]
    ) -> Dataset:
        """Dedup + balance into the evaluation dataset (§III)."""
        unique = self.bem.deduplicate(contracts)
        phishing = [c for c in unique if c.is_phishing]
        benign = [c for c in unique if not c.is_phishing]
        rng = np.random.default_rng(self.config.seed)
        if self.config.balance_classes:
            count = min(len(phishing), len(benign))
            rng.shuffle(phishing)
            rng.shuffle(benign)
            phishing, benign = phishing[:count], benign[:count]
        chosen = phishing + benign
        order = rng.permutation(len(chosen))
        chosen = [chosen[i] for i in order]
        return Dataset(
            bytecodes=[c.bytecode for c in chosen],
            labels=np.array([int(c.is_phishing) for c in chosen]),
            months=np.array([c.month for c in chosen]),
            addresses=[c.address for c in chosen],
        )

    def run(self) -> PipelineOutcome:
        """Execute the complete Fig. 1 workflow."""
        contracts = self.gather()
        dataset = self.build_dataset(contracts)
        evaluation = self.mem.evaluate(
            dataset, list(self.config.model_names), model_factory=create_model
        )
        post_hoc = None
        if self.config.run_post_hoc:
            analyzable = [
                m for m in evaluation.models()
                if m not in self.pam.exclude
            ]
            if len(analyzable) >= 2:
                post_hoc = self.pam.analyze(evaluation)
        return PipelineOutcome(
            contracts=contracts,
            dataset=dataset,
            evaluation=evaluation,
            post_hoc=post_hoc,
        )

    # ------------------------------------------------------------------ #

    def _resolve_train_dataset(self, train_dataset: Dataset | None) -> Dataset:
        if train_dataset is not None:
            return train_dataset
        if self._default_dataset is None:
            self._default_dataset = self.build_dataset(self.gather())
        return self._default_dataset

    def fitted_model(
        self,
        model_name: str = "Random Forest",
        train_dataset: Dataset | None = None,
        reuse: bool = True,
    ):
        """A model fitted on ``train_dataset`` (default: the full corpus).

        Fitted models are cached by (model name, dataset fingerprint), so
        repeated scans share one training run; ``reuse=False`` forces a
        fresh train (and does not populate the cache).
        """
        train_dataset = self._resolve_train_dataset(train_dataset)
        key = (model_name, train_dataset.fingerprint())
        if reuse and key in self._fitted_models:
            return self._fitted_models[key]
        model = create_model(model_name, seed=self.config.seed)
        model.fit(train_dataset.bytecodes, train_dataset.labels)
        if reuse:
            self._fitted_models[key] = model
        return model

    def classify_address(self, address: str, model_name: str = "Random Forest",
                         train_dataset: Dataset | None = None,
                         model=None, reuse_model: bool = True):
        """Classify a single deployed contract with a fitted model.

        Returns ``(is_phishing, probability)`` — the "scan one contract
        before interacting with it" usage the paper motivates. The fitted
        model is cached by (model name, dataset fingerprint) and reused on
        repeated calls (the seed version retrained from scratch every
        time); pass a pre-fitted ``model`` to skip training entirely, or
        ``reuse_model=False`` to force the old retrain-per-call behavior.

        Raises:
            NoCodeError: If the address has no deployed code.
        """
        if model is None:
            model = self.fitted_model(
                model_name, train_dataset, reuse=reuse_model
            )
        code = self.bem.rpc.get_code(address)
        if not code:
            raise NoCodeError(address)
        probability = float(model.predict_proba([code])[0, 1])
        return probability >= 0.5, probability

    def scan_service(
        self,
        model_name: str = "Random Forest",
        train_dataset: Dataset | None = None,
    ):
        """A batched :class:`~repro.serve.service.ScanService` on this hook.

        Shares the hook's feature cache and fitted-model cache, and scans
        through the hook's RPC client.
        """
        from repro.serve.service import ScanService

        train_dataset = self._resolve_train_dataset(train_dataset)
        return ScanService(
            model_name,
            model=self.fitted_model(model_name, train_dataset),
            rpc=self.bem.rpc,
            cache=self.feature_cache,
            seed=self.config.seed,
            # Stable namespace: services wrapping the same (model, data)
            # share prediction-cache hits across scan_service() calls.
            namespace=ScanService.prediction_namespace(
                model_name, self.config.seed, train_dataset.fingerprint()
            ),
        )
