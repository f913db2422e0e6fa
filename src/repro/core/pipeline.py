"""End-to-end PhishingHook orchestration (all of Fig. 1).

``PhishingHook.run()`` wires a simulated data plane through the four
modules: BEM crawl → dedup/balancing → MEM evaluation → PAM statistics.
This is the programmatic equivalent of the paper's full experimental
workflow and the entry point the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chain.bigquery import BigQueryClient
from repro.chain.rpc import JsonRpcClient, JsonRpcServer
from repro.core.bdm import BytecodeDisassemblerModule
from repro.core.bem import BytecodeExtractionModule, ExtractedContract
from repro.core.mem import EvaluationResult, ModelEvaluationModule
from repro.core.pam import PostHocAnalysisModule, PostHocReport
from repro.core.registry import MODEL_NAMES, create_model
from repro.datagen.corpus import Corpus
from repro.datagen.dataset import Dataset

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
        self.mem = ModelEvaluationModule(
            n_folds=self.config.n_folds,
            n_runs=self.config.n_runs,
            seed=self.config.seed,
        )
        self.pam = PostHocAnalysisModule()

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
