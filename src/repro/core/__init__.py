"""The PhishingHook framework core (Fig. 1).

* :mod:`repro.core.bem` — Bytecode Extraction Module: crawls contract
  lists (BigQuery), scrapes labels (explorer) and pulls bytecode over
  JSON-RPC (``eth_getCode``),
* :mod:`repro.core.bdm` — Bytecode Disassembler Module: bytecode → opcode
  CSV rows,
* :mod:`repro.core.mem` — Model Evaluation Module: k-fold × runs training
  and evaluation with time accounting,
* :mod:`repro.core.pam` — Post-hoc Analysis Module: Shapiro–Wilk,
  Kruskal–Wallis, Dunn with Holm–Bonferroni,
* :mod:`repro.core.registry` — the 16-model registry behind Table II,
* :mod:`repro.core.tuning` — define-by-run hyperparameter search
  (the Optuna substitute),
* :mod:`repro.core.pipeline` — end-to-end orchestration.
"""

from repro.core.bdm import BytecodeDisassemblerModule
from repro.core.bem import BytecodeExtractionModule
from repro.core.mem import EvaluationResult, ModelEvaluationModule, TrialRecord
from repro.core.pam import PostHocAnalysisModule
from repro.core.pipeline import PhishingHook, PipelineConfig
from repro.core.registry import MODEL_CATEGORIES, MODEL_NAMES, create_model
from repro.core.tuning import GridSearch, RandomSearch, SearchSpace

__all__ = [
    "BytecodeDisassemblerModule",
    "BytecodeExtractionModule",
    "EvaluationResult",
    "ModelEvaluationModule",
    "TrialRecord",
    "PostHocAnalysisModule",
    "PhishingHook",
    "PipelineConfig",
    "MODEL_CATEGORIES",
    "MODEL_NAMES",
    "create_model",
    "GridSearch",
    "RandomSearch",
    "SearchSpace",
]
