"""Continuous-learning loop: warm-start economics + closed-loop latency.

The loop subsystem's two quantitative promises (:mod:`repro.loop`,
docs/operations.md):

* **warm-start speedup** — growing the production forest by ``GROW``
  trees on the drift window (``fit_more``: frozen vocabulary, fitted
  trees kept) must cost a small fraction of refitting an equal-sized
  forest from scratch, at *equal* holdout quality. This is the whole
  reason the loop can retrain on every confirmed drift instead of on a
  nightly schedule: the incremental step is ≥ ``MIN_SPEEDUP``× cheaper
  than the cold one while landing within ``MAX_PARITY_GAP`` holdout
  accuracy of it.
* **drift-to-promotion latency** — replaying a drifted campaign through
  a live loop (detect → subprocess retrain → shadow → promote) completes
  the full cycle in bounded wall-clock, with serving never stalled for
  longer than one micro-batch flush.

Prints one machine-readable JSON summary line (``LOOP {...}``).

Scale knobs (environment):

* ``PHOOK_BENCH_LOOP_TREES`` — production forest size (default 120),
* ``PHOOK_BENCH_LOOP_GROW`` — trees grown per retrain (default 20),
* ``PHOOK_BENCH_SMOKE`` — CI smoke mode: the wall-clock speedup floor is
  relaxed (tiny runs are timer-noise dominated) but holdout parity and
  every loop-correctness assertion stay strict.
"""

import json
import os
import time

from benchmarks.conftest import SEED, env_int, run_once
from repro.artifacts import ModelStore
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.loop import DriftMonitor, LoopOrchestrator, read_history
from repro.loop.retrain import _holdout_split, retrain_candidate
from repro.models.hsc import HSCDetector
from repro.rollout import MetricParityPolicy
from repro.serve.cache import FeatureCache
from repro.serve.service import ScanService
from repro.stream import StreamScanner
from repro.stream.replay import TimelineReplayer

SMOKE = bool(int(os.environ.get("PHOOK_BENCH_SMOKE", "0")))
N_TREES = env_int("PHOOK_BENCH_LOOP_TREES", 120)
GROW = env_int("PHOOK_BENCH_LOOP_GROW", 20)
MIN_SPEEDUP = 1.5 if SMOKE else 3.0
MAX_PARITY_GAP = 0.05
HOLDOUT = 0.25


def _window_corpora():
    """A stationary base campaign and a phishing-heavy drift window.

    Both use the flat deployment profile: the bench induces drift by
    shifting the scam-family *mix*, not by riding the Fig. 2 monthly
    clumping (which would make even the stationary half self-drift).
    Clones deploy in their base's month too, so the corpus default of 30
    per proxied base clumps the same way (the stationary half swings
    between 32 % and 70 % phishing per 160-event drift window); 3 keeps
    it near 50 %, as in the loop tests.
    """
    base = build_corpus(CorpusConfig(
        n_phishing=120, n_benign=120, seed=SEED,
        phishing_profile="uniform", clone_factor=3.0,
    ))
    drifted = build_corpus(CorpusConfig(
        n_phishing=300, n_benign=60, seed=SEED + 1,
        phishing_profile="uniform", clone_factor=3.0,
    ))
    return base, drifted


def _fit_production(records, n_estimators, seed):
    model = HSCDetector(variant="Random Forest", seed=seed)
    model.set_params(clf__n_estimators=n_estimators)
    model.fit([r.bytecode for r in records], [r.label for r in records])
    return model


def test_loop(benchmark, tmp_path):
    def run():
        base, drifted = _window_corpora()
        base_records = [r for r in base.records if r.bytecode]
        drift_records = [r for r in drifted.records if r.bytecode]

        # ---------------------------------------------------------- #
        # Phase 1 — warm-start economics.
        #
        # The retrain window is what the live loop would hold: a slice
        # of recent (drifted) traffic. Warm = production grows GROW
        # trees on it (the loop's actual code path, candidate artifact
        # registration included); cold = an equal-sized forest fitted
        # from scratch on the same window. Both are scored on the same
        # deterministic holdout slice.
        # ---------------------------------------------------------- #
        store = ModelStore(tmp_path / "store")
        production = _fit_production(base_records, N_TREES, seed=SEED)
        store.put(production, model_name="Random Forest",
                  tags=("production",))

        window = sorted(
            drift_records, key=lambda r: (r.timestamp, r.address)
        )[:256]
        window_codes = [r.bytecode for r in window]
        window_labels = [r.label for r in window]

        warm_report = retrain_candidate(
            store=store,
            bytecodes=window_codes,
            labels=window_labels,
            grow=GROW,
            holdout=HOLDOUT,
            seed=SEED,
        )
        warm_seconds = warm_report["seconds"]
        warm_accuracy = warm_report["metrics"]["holdout_accuracy"]

        train_idx, hold_idx = _holdout_split(
            len(window_codes), HOLDOUT, SEED
        )
        cold = HSCDetector(variant="Random Forest", seed=SEED)
        cold.set_params(clf__n_estimators=N_TREES + GROW)
        started = time.perf_counter()
        cold.fit([window_codes[i] for i in train_idx],
                 [window_labels[i] for i in train_idx])
        cold_seconds = time.perf_counter() - started
        hold_codes = [window_codes[i] for i in hold_idx]
        hold_labels = [window_labels[i] for i in hold_idx]
        cold_accuracy = float(
            ((cold.predict_proba(hold_codes)[:, 1] >= 0.5).astype(int)
             == hold_labels).mean()
        )

        # ---------------------------------------------------------- #
        # Phase 2 — the closed loop, wall-clock end to end.
        #
        # The deterministic recipe the loop tests pin down, timed: a
        # stationary replay arms the monitor, then the drifted campaign
        # triggers exactly one detect → subprocess retrain → shadow →
        # promote cycle. The latency metric is the drifted replay's
        # wall time — it contains the whole cycle.
        # ---------------------------------------------------------- #
        loop_store = ModelStore(tmp_path / "loop-store")
        serving = _fit_production(base_records, 40, seed=1)
        loop_store.put(serving, model_name="Random Forest",
                       tags=("production",))
        cache = FeatureCache(max_entries=8192)
        service = ScanService.from_artifact(
            "production", store=loop_store, cache=cache, threshold=0.5
        )
        scanner = StreamScanner(
            service, max_batch=16, max_queue=256,
            policy="block", auto_flush=True,
        )
        labels = {r.address: r.label for r in base_records}
        labels.update({r.address: r.label for r in drift_records})
        loop = LoopOrchestrator(
            scanner, loop_store,
            label_of=labels.get,
            monitor=DriftMonitor(window=160, blocks=8, alpha=0.05,
                                 min_effect=0.2, confirm_checks=2),
            check_every=32,
            grow=GROW,
            holdout=HOLDOUT,
            seed=3,
            policy=MetricParityPolicy(
                min_events=60, promote_agreement=0.90,
                abort_agreement=0.40, max_mean_divergence=0.25,
            ),
            retrain_mode="subprocess",
            store_url=str(tmp_path / "loop-store"),
            wait_for_retrain=True,
        )
        replayer = TimelineReplayer(scanner)
        replayer.replay_chain(base.chain)
        drift_started = time.perf_counter()
        replayer.replay_chain(drifted.chain)
        drift_to_promotion = time.perf_counter() - drift_started
        loop.detach()
        scanner.close()

        history = read_history(loop_store)
        kinds = [entry["event"] for entry in history]
        tags = loop_store.tags()

        return {
            "trees": N_TREES,
            "grow": GROW,
            "window_events": len(window_codes),
            "warm_seconds": warm_seconds,
            "cold_seconds": cold_seconds,
            "warm_speedup": cold_seconds / warm_seconds,
            "warm_accuracy": warm_accuracy,
            "cold_accuracy": cold_accuracy,
            "parity_gap": abs(warm_accuracy - cold_accuracy),
            "loop_events": loop.events_seen,
            "drifts": loop.drifts,
            "promotions": loop.promotions,
            "aborts": loop.aborts,
            "history_events": kinds,
            "promotion_latency": drift_to_promotion,
            "production_is_candidate": tags.get("production")
                                       == tags.get("candidate"),
            "smoke": SMOKE,
        }

    summary = run_once(benchmark, run)
    print(f"\nLOOP {json.dumps(summary)}")

    assert summary["warm_speedup"] >= MIN_SPEEDUP, (
        f"warm-start retrain is only {summary['warm_speedup']:.2f}x "
        f"faster than a cold refit (floor {MIN_SPEEDUP:.1f}x)"
    )
    assert summary["parity_gap"] <= MAX_PARITY_GAP, (
        f"warm-started holdout accuracy diverges from cold refit by "
        f"{summary['parity_gap']:.3f} (band {MAX_PARITY_GAP})"
    )
    assert summary["drifts"] == 1, (
        f"drifted campaign confirmed {summary['drifts']} drifts "
        "(expected exactly 1)"
    )
    assert summary["promotions"] == 1 and summary["aborts"] == 0, (
        "the cycle did not end in exactly one promotion"
    )
    assert summary["history_events"] == ["drift", "retrain", "promote"], (
        f"history recorded {summary['history_events']}"
    )
    assert summary["production_is_candidate"], (
        "promotion did not repoint the production tag at the candidate"
    )
