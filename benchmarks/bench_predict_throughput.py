"""Ensemble predict throughput: flat inference engine vs per-row traversal.

Not a paper artifact — this is the ROADMAP's "as fast as the hardware
allows" check for the model layer. Three claims are measured and asserted:

* **flat vs reference** — `RandomForestClassifier.predict_proba` (stacked
  node arrays + level-synchronous descent) against the seed per-row,
  per-tree Python traversal: ≥ 10× throughput, **bit-identical**
  probabilities,
* **GBDT path** — the stacked booster `decision_function` is bit-identical
  to the sequential per-tree reference,
* **parallel fit** — `n_jobs=2` training reproduces the serial forest
  exactly (same master seed → same trees, array for array).

Prints one machine-readable JSON summary line (`PREDICT_THROUGHPUT {...}`)
with rows/sec per mode.

Scale knobs (environment):

* ``PHOOK_BENCH_PREDICT_ROWS`` — predict-batch rows (default 4000),
* ``PHOOK_BENCH_PREDICT_TREES`` — forest size (default 60),
* ``PHOOK_BENCH_SMOKE`` — set to 1 in CI smoke runs: keeps every
  bit-identity assertion but drops the 10× wall-clock floor to 1× (tiny
  configs measure overhead, not throughput).
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import env_int, run_once
from repro.ml.flat import reference_apply
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import XGBoostClassifier
from repro.ml.tree import apply_per_row

PREDICT_ROWS = env_int("PHOOK_BENCH_PREDICT_ROWS", 4000)
N_TREES = env_int("PHOOK_BENCH_PREDICT_TREES", 60)
SMOKE = bool(int(os.environ.get("PHOOK_BENCH_SMOKE", "0")))

N_TRAIN = 600
N_FEATURES = 24
MIN_SPEEDUP = 1.0 if SMOKE else 10.0


def _problem(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_TRAIN, N_FEATURES))
    y = (X[:, 0] + 0.5 * X[:, 3] + 0.4 * rng.normal(size=N_TRAIN) > 0).astype(int)
    batch = rng.normal(size=(PREDICT_ROWS, N_FEATURES))
    return X, y, batch


def _seed_predict_proba(forest, X):
    """The seed path: per-row traversal of every tree, sequential sum."""
    probabilities = np.zeros((len(X), 2))
    for tree in forest.trees_:
        probabilities += tree.value_[apply_per_row(tree, X)]
    return probabilities / len(forest.trees_)


def test_predict_throughput(benchmark):
    X, y, batch = _problem()
    forest = RandomForestClassifier(n_estimators=N_TREES, random_state=0).fit(X, y)
    forest.compile_flat()  # pay compilation outside the timed region

    def run():
        started = time.perf_counter()
        reference = _seed_predict_proba(forest, batch)
        reference_seconds = time.perf_counter() - started

        started = time.perf_counter()
        flat = forest.predict_proba(batch)
        flat_seconds = time.perf_counter() - started

        # Parallel fit must reproduce the serial forest exactly.
        serial = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=8, random_state=3, n_jobs=2
        ).fit(X, y)
        parallel_identical = all(
            np.array_equal(a.children_left_, b.children_left_)
            and np.array_equal(a.threshold_, b.threshold_)
            and np.array_equal(a.value_, b.value_)
            for a, b in zip(serial.trees_, parallel.trees_)
        ) and np.array_equal(
            serial.predict_proba(batch), parallel.predict_proba(batch)
        )

        # GBDT: stacked-booster descent vs sequential per-tree reference.
        booster = XGBoostClassifier(n_estimators=10, max_depth=3).fit(X, y)
        raw = np.full(len(batch), booster.base_score_)
        for tree in booster.trees_:
            leaves = reference_apply(
                batch, tree.lefts, tree.rights, tree.features, tree.thresholds
            )
            raw += booster.learning_rate * tree.weights[leaves]
        gbdt_identical = np.array_equal(booster.decision_function(batch), raw)

        return {
            "rows": PREDICT_ROWS,
            "trees": N_TREES,
            "reference_rows_per_second": PREDICT_ROWS / reference_seconds,
            "flat_rows_per_second": PREDICT_ROWS / flat_seconds,
            "speedup": reference_seconds / flat_seconds,
            "bit_identical": bool(np.array_equal(reference, flat)),
            "parallel_fit_identical": bool(parallel_identical),
            "gbdt_identical": bool(gbdt_identical),
            "smoke": SMOKE,
        }

    summary = run_once(benchmark, run)
    print(f"\nPREDICT_THROUGHPUT {json.dumps(summary)}")

    assert summary["bit_identical"], (
        "flat engine diverged from the per-row reference traversal"
    )
    assert summary["parallel_fit_identical"], (
        "parallel forest fit is not bit-identical to the serial fit"
    )
    assert summary["gbdt_identical"], (
        "stacked GBDT descent diverged from the per-tree reference"
    )
    assert summary["speedup"] >= MIN_SPEEDUP, (
        f"flat predict speedup {summary['speedup']:.1f}× "
        f"below the {MIN_SPEEDUP:.0f}× floor"
    )
