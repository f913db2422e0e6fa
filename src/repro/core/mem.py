"""Model Evaluation Module (MEM) — Fig. 1 step ➐.

Systematic k-fold × runs training/evaluation of the registered models:
the paper's main protocol is 10-fold cross-validation × 3 runs = 30 trials
per model (§IV-D), with wall-clock accounting for the scalability study
(Fig. 7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.registry import category_of, create_model
from repro.datagen.dataset import Dataset
from repro.ml.flat import precompile
from repro.ml.metrics import Metrics, classification_metrics

__all__ = ["TrialRecord", "EvaluationResult", "ModelEvaluationModule"]


@dataclass(frozen=True)
class TrialRecord:
    """One (model, run, fold) evaluation."""

    model: str
    run: int
    fold: int
    metrics: Metrics
    train_seconds: float
    inference_seconds: float

    @property
    def category(self) -> str:
        return category_of(self.model)


@dataclass
class EvaluationResult:
    """All trials of one evaluation campaign."""

    trials: list[TrialRecord] = field(default_factory=list)

    def for_model(self, model: str) -> list[TrialRecord]:
        return [t for t in self.trials if t.model == model]

    def models(self) -> list[str]:
        ordered: list[str] = []
        for trial in self.trials:
            if trial.model not in ordered:
                ordered.append(trial.model)
        return ordered

    def metric_values(self, model: str, metric: str) -> np.ndarray:
        """All trial values of one metric for one model."""
        return np.array(
            [t.metrics.as_dict()[metric] for t in self.for_model(model)]
        )

    def mean_metrics(self, model: str) -> Metrics:
        trials = self.for_model(model)
        if not trials:
            raise KeyError(f"no trials recorded for {model!r}")
        return Metrics(
            accuracy=float(np.mean([t.metrics.accuracy for t in trials])),
            f1=float(np.mean([t.metrics.f1 for t in trials])),
            precision=float(np.mean([t.metrics.precision for t in trials])),
            recall=float(np.mean([t.metrics.recall for t in trials])),
        )

    def mean_times(self, model: str) -> tuple[float, float]:
        """(train_seconds, inference_seconds) averaged over trials.

        Raises:
            KeyError: If no trials were recorded for ``model`` (matching
                :meth:`mean_metrics`, instead of returning NaN with a
                numpy RuntimeWarning).
        """
        trials = self.for_model(model)
        if not trials:
            raise KeyError(f"no trials recorded for {model!r}")
        return (
            float(np.mean([t.train_seconds for t in trials])),
            float(np.mean([t.inference_seconds for t in trials])),
        )

    def category_mean(self, category: str, metric: str) -> float:
        values = [
            t.metrics.as_dict()[metric]
            for t in self.trials
            if t.category == category
        ]
        if not values:
            raise KeyError(f"no trials in category {category!r}")
        return float(np.mean(values))

    def table(self) -> str:
        """Render the Table II layout (mean metrics per model)."""
        lines = [
            f"{'Model':24s} {'Accuracy (%)':>12s} {'F1 Score':>9s} "
            f"{'Precision':>10s} {'Recall':>8s}"
        ]
        for model in self.models():
            mean = self.mean_metrics(model)
            lines.append(
                f"{model:24s} {mean.accuracy * 100:12.2f} {mean.f1 * 100:9.2f} "
                f"{mean.precision * 100:10.2f} {mean.recall * 100:8.2f}"
            )
        return "\n".join(lines)


class ModelEvaluationModule:
    """Train/evaluate registered models under k-fold × runs.

    Args:
        n_folds: Cross-validation folds (paper: 10).
        n_runs: Independent repetitions (paper: 3).
        seed: Base seed; fold assignments and model seeds derive from it.
        store: Optional :class:`~repro.artifacts.ModelStore`. When given,
            the campaign's best fitted candidate (highest trial accuracy)
            is persisted — 30 trials no longer end with every fitted model
            garbage-collected; the winner is servable immediately.
        persist_tag: Store tag for that candidate (default ``"best"``).
    """

    def __init__(
        self, n_folds: int = 10, n_runs: int = 3, seed: int = 0,
        store=None, persist_tag: str = "best",
    ):
        if n_folds < 2:
            raise ValueError("n_folds must be at least 2")
        if n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        self.n_folds = n_folds
        self.n_runs = n_runs
        self.seed = seed
        self.store = store
        self.persist_tag = persist_tag
        #: Version digest of the last persisted best candidate (or None).
        self.last_persisted: str | None = None

    def evaluate(
        self,
        dataset: Dataset,
        model_names: list[str],
        model_factory=create_model,
    ) -> EvaluationResult:
        """Run the full campaign; returns every trial."""
        result = EvaluationResult()
        best = None  # (accuracy, record, model, train split)
        for run in range(self.n_runs):
            folds = dataset.stratified_kfold(
                self.n_folds, seed=self.seed + 1000 * run
            )
            for fold_index, (train_idx, test_idx) in enumerate(folds):
                train, test = dataset.subset(train_idx), dataset.subset(test_idx)
                for name in model_names:
                    record, model = self._run_trial(
                        name, model_factory, train, test, run, fold_index
                    )
                    result.trials.append(record)
                    best = self._track_best(best, record, model, train)
        self._persist_best(best)
        return result

    def evaluate_single_split(
        self,
        train: Dataset,
        test: Dataset,
        model_names: list[str],
        model_factory=create_model,
        run: int = 0,
        fold: int = 0,
    ) -> EvaluationResult:
        """Evaluate on one fixed split (scalability / time-resistance)."""
        result = EvaluationResult()
        best = None
        for name in model_names:
            record, model = self._run_trial(
                name, model_factory, train, test, run, fold
            )
            result.trials.append(record)
            best = self._track_best(best, record, model, train)
        self._persist_best(best)
        return result

    # ------------------------------------------------------------------ #

    def _track_best(self, best, record, model, train):
        """Keep (only) the strongest fitted candidate when persisting."""
        if self.store is None:
            return None
        if best is None or record.metrics.accuracy > best[0]:
            return (record.metrics.accuracy, record, model, train)
        return best

    def _persist_best(self, best) -> None:
        if self.store is None or best is None:
            return
        __, record, model, train = best
        self.last_persisted = self.store.put(
            model,
            model_name=record.model,
            dataset_fingerprint=train.fingerprint(),
            metrics=record.metrics.as_dict(),
            extra={"run": record.run, "fold": record.fold,
                   "protocol": f"{self.n_folds}-fold x {self.n_runs}"},
            tags=(self.persist_tag,),
        )

    def _run_trial(
        self, name, model_factory, train: Dataset, test: Dataset, run, fold
    ) -> tuple[TrialRecord, object]:
        model = model_factory(name, seed=self.seed + 7919 * run + fold)
        started = time.perf_counter()
        model.fit(train.bytecodes, train.labels)
        # Ensemble models compile to the flat inference engine here, as
        # part of training cost, so inference_seconds times pure
        # vectorized prediction — the figure the Fig. 7 bench reports.
        precompile(model)
        train_seconds = time.perf_counter() - started
        started = time.perf_counter()
        predictions = model.predict(test.bytecodes)
        inference_seconds = time.perf_counter() - started
        record = TrialRecord(
            model=name,
            run=run,
            fold=fold,
            metrics=classification_metrics(test.labels, predictions),
            train_seconds=train_seconds,
            inference_seconds=inference_seconds,
        )
        return record, model
