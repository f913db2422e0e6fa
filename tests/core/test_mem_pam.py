"""Tests for the evaluation and post-hoc modules."""

import numpy as np
import pytest

from repro.core.mem import EvaluationResult, ModelEvaluationModule, TrialRecord
from repro.core.pam import METRICS, PostHocAnalysisModule
from repro.ml.metrics import Metrics

from tests.core.conftest import fast_hsc_factory


@pytest.fixture(scope="module")
def evaluation(small_dataset):
    mem = ModelEvaluationModule(n_folds=3, n_runs=2, seed=0)
    return mem.evaluate(
        small_dataset,
        ["Random Forest", "k-NN", "Logistic Regression"],
        model_factory=fast_hsc_factory,
    )


# A fixture alias usable from this module's signature-based fixtures.
@pytest.fixture(scope="module")
def small_dataset(small_corpus):
    from repro.datagen.dataset import Dataset

    return Dataset.from_corpus(small_corpus, seed=0)


class TestMEM:
    def test_trial_count(self, evaluation):
        # 3 models × 3 folds × 2 runs
        assert len(evaluation.trials) == 18
        assert len(evaluation.for_model("Random Forest")) == 6

    def test_models_listed_in_order(self, evaluation):
        assert evaluation.models() == [
            "Random Forest", "k-NN", "Logistic Regression"
        ]

    def test_metrics_in_unit_interval(self, evaluation):
        for trial in evaluation.trials:
            for value in trial.metrics.as_dict().values():
                assert 0.0 <= value <= 1.0

    def test_models_learn(self, evaluation):
        for model in evaluation.models():
            assert evaluation.mean_metrics(model).accuracy > 0.6

    def test_times_recorded(self, evaluation):
        train_time, inference_time = evaluation.mean_times("Random Forest")
        assert train_time > 0
        assert inference_time > 0

    def test_metric_values_shape(self, evaluation):
        values = evaluation.metric_values("k-NN", "f1")
        assert values.shape == (6,)

    def test_category_mean(self, evaluation):
        assert 0.5 < evaluation.category_mean("HSC", "accuracy") <= 1.0
        with pytest.raises(KeyError):
            evaluation.category_mean("VM", "accuracy")

    def test_table_rendering(self, evaluation):
        table = evaluation.table()
        assert "Random Forest" in table
        assert "Accuracy (%)" in table

    def test_unknown_model_mean_raises(self, evaluation):
        with pytest.raises(KeyError):
            evaluation.mean_metrics("SVM")

    def test_unknown_model_mean_times_raises(self, evaluation):
        # Seed behavior was a NaN pair plus a numpy RuntimeWarning; it must
        # fail like mean_metrics instead.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KeyError):
                evaluation.mean_times("SVM")

    def test_single_split_evaluation(self, small_dataset):
        train, test = small_dataset.train_test_split(0.3, seed=1)
        mem = ModelEvaluationModule(n_folds=2, n_runs=1)
        result = mem.evaluate_single_split(
            train, test, ["Random Forest"], model_factory=fast_hsc_factory
        )
        assert len(result.trials) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelEvaluationModule(n_folds=1)
        with pytest.raises(ValueError):
            ModelEvaluationModule(n_runs=0)


def _synthetic_evaluation(means: dict[str, float], spread=0.01, trials=30):
    """Fabricate an EvaluationResult with controlled per-model metrics."""
    rng = np.random.default_rng(0)
    result = EvaluationResult()
    for model, mean in means.items():
        for index in range(trials):
            value = float(np.clip(rng.normal(mean, spread), 0, 1))
            result.trials.append(
                TrialRecord(
                    model=model,
                    run=index // 10,
                    fold=index % 10,
                    metrics=Metrics(value, value, value, value),
                    train_seconds=0.1,
                    inference_seconds=0.01,
                )
            )
    return result


class TestPAM:
    def test_rejects_with_separated_models(self):
        evaluation = _synthetic_evaluation(
            {"Random Forest": 0.93, "k-NN": 0.90, "ViT+R2D2": 0.80}
        )
        report = PostHocAnalysisModule(exclude=()).analyze(evaluation)
        for metric in METRICS:
            assert report.kruskal[metric].p_value < 0.001
            assert report.kruskal_adjusted_p[metric] < 0.01
        assert report.significant_pair_fraction("accuracy") > 0.5

    def test_cross_category_pairs_more_significant(self):
        evaluation = _synthetic_evaluation(
            {
                "Random Forest": 0.93, "XGBoost": 0.93,  # same category, close
                "ViT+R2D2": 0.80, "ViT+Freq": 0.80,      # same category, close
            }
        )
        report = PostHocAnalysisModule(exclude=()).analyze(evaluation)
        same = report.pair_fraction_by_category("accuracy", same_category=True)
        cross = report.pair_fraction_by_category("accuracy", same_category=False)
        assert cross > same

    def test_exclusions_applied(self):
        evaluation = _synthetic_evaluation(
            {"Random Forest": 0.93, "k-NN": 0.9, "ESCORT": 0.55}
        )
        report = PostHocAnalysisModule().analyze(evaluation)
        models_in_dunn = {
            name
            for result in report.dunn["accuracy"]
            for name in (result.group_a, result.group_b)
        }
        assert "ESCORT" not in models_in_dunn

    def test_normality_bookkeeping(self):
        evaluation = _synthetic_evaluation({"Random Forest": 0.9, "k-NN": 0.8})
        report = PostHocAnalysisModule(exclude=()).analyze(evaluation)
        assert len(report.normality) == 2 * len(METRICS)
        assert report.normality_violations >= 0

    def test_table3_rendering(self):
        evaluation = _synthetic_evaluation({"Random Forest": 0.9, "k-NN": 0.8})
        report = PostHocAnalysisModule(exclude=()).analyze(evaluation)
        table = report.table3()
        assert "accuracy" in table and "p_adj" in table

    def test_needs_two_models(self):
        evaluation = _synthetic_evaluation({"Random Forest": 0.9})
        with pytest.raises(ValueError):
            PostHocAnalysisModule(exclude=()).analyze(evaluation)

    def test_bootstrap_intervals_attached(self):
        evaluation = _synthetic_evaluation({"Random Forest": 0.9, "k-NN": 0.8})
        report = PostHocAnalysisModule(exclude=()).analyze(evaluation)
        assert len(report.intervals) == 2 * len(METRICS)
        interval = report.intervals[("Random Forest", "accuracy")]
        # The interval brackets the configured mean tightly (spread 0.01).
        assert 0.9 in interval
        assert interval.width < 0.05

    def test_interval_separation_mirrors_significance(self):
        evaluation = _synthetic_evaluation(
            {"Random Forest": 0.93, "ViT+R2D2": 0.80}
        )
        report = PostHocAnalysisModule(exclude=()).analyze(evaluation)
        forest = report.intervals[("Random Forest", "accuracy")]
        vit = report.intervals[("ViT+R2D2", "accuracy")]
        # Non-overlapping CIs for clearly separated models.
        assert forest.lower > vit.upper
