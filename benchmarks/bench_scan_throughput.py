"""Scan-path throughput: the serve layer vs the seed per-address loop.

Not a paper artifact — this is the ROADMAP's "serve heavy traffic" check.
Three ways to answer the same batch of scan queries:

* **seed loop** — the seed per-address facade, inlined: fetch one
  address's code over RPC, retrain the model from scratch and score that
  one contract, for every address,
* **cold service** — one `ScanService` fit + `scan_many` over a batch the
  cache has never seen,
* **warm service** — the same batch again, served from the
  content-addressed prediction cache.

Prints one machine-readable JSON summary line (`SCAN_THROUGHPUT {...}`)
with contracts/sec per mode. Shape assertions: the warm batched path must
beat the seed loop by ≥ 5×, and cached vs uncached predictions must be
bit-identical.
"""

import json
import time

import numpy as np

from benchmarks.conftest import SEED, run_once
from repro.core.pipeline import PhishingHook, PipelineConfig
from repro.core.registry import create_model
from repro.serve.service import ScanService

#: Addresses in the scan batch (duplicates included — deployed bytecode is
#: heavily duplicated in the wild, §III).
BATCH_SIZE = 96

#: Addresses timed under the seed retrain-per-scan loop (kept small: each
#: one trains a fresh Random Forest).
SEED_LOOP_SIZE = 6


def _scan_addresses(corpus, count):
    records = corpus.records
    return [records[i % len(records)].address for i in range(count)]


def seed_classify(rpc, address, train, model_name="Random Forest"):
    """The seed per-address scan, reproduced: a fresh fit for every
    address, then one single-row ``predict_proba``."""
    model = create_model(model_name, seed=SEED)
    model.fit(train.bytecodes, train.labels)
    probability = float(model.predict_proba([rpc.get_code(address)])[0, 1])
    return probability >= 0.5, probability


def test_scan_throughput(benchmark, corpus):
    hook = PhishingHook(
        corpus, PipelineConfig(run_post_hoc=False, seed=SEED)
    )
    train = hook.build_dataset(hook.gather())
    addresses = _scan_addresses(corpus, BATCH_SIZE)

    def run():
        summary = {}

        # Seed behavior: retrain per scan.
        loop_addresses = addresses[:SEED_LOOP_SIZE]
        started = time.perf_counter()
        loop_verdicts = [
            seed_classify(hook.bem.rpc, a, train) for a in loop_addresses
        ]
        loop_seconds = time.perf_counter() - started
        summary["seed_loop"] = {
            "contracts": len(loop_addresses),
            "seconds": loop_seconds,
            "contracts_per_sec": len(loop_addresses) / loop_seconds,
        }

        # Batched service, cold cache (fit timed separately).
        service = ScanService(
            "Random Forest", train_dataset=train, rpc=hook.bem.rpc,
            seed=SEED,
        ).ensure_fitted()
        started = time.perf_counter()
        cold = service.scan_many(addresses)
        cold_seconds = time.perf_counter() - started
        summary["cold_service"] = {
            "contracts": len(addresses),
            "seconds": cold_seconds,
            "contracts_per_sec": len(addresses) / cold_seconds,
        }

        # Same batch again: pure cache service.
        started = time.perf_counter()
        warm = service.scan_many(addresses)
        warm_seconds = time.perf_counter() - started
        summary["warm_service"] = {
            "contracts": len(addresses),
            "seconds": warm_seconds,
            "contracts_per_sec": len(addresses) / warm_seconds,
        }
        summary["cache"] = service.stats()
        return summary, loop_verdicts, cold, warm

    summary, loop_verdicts, cold, warm = run_once(benchmark, run)

    # Cached and uncached predictions are bit-identical.
    assert [r.probability for r in cold] == [r.probability for r in warm]
    assert all(r.from_cache for r in warm)
    # The service answers match the seed per-address loop exactly (same
    # seed, same training set, same model class).
    for (verdict, probability), result in zip(loop_verdicts, cold):
        assert probability == result.probability
        assert verdict == result.is_phishing

    rate = {mode: summary[mode]["contracts_per_sec"]
            for mode in ("seed_loop", "cold_service", "warm_service")}
    summary["speedup_warm_vs_seed_loop"] = (
        rate["warm_service"] / rate["seed_loop"]
    )
    summary["speedup_cold_vs_seed_loop"] = (
        rate["cold_service"] / rate["seed_loop"]
    )
    print("\nSCAN_THROUGHPUT " + json.dumps(summary, sort_keys=True))
    print(f"seed loop   {rate['seed_loop']:10.1f} contracts/s")
    print(f"cold cache  {rate['cold_service']:10.1f} contracts/s")
    print(f"warm cache  {rate['warm_service']:10.1f} contracts/s")

    # Acceptance: warm batched scan ≥ 5× the seed per-address loop.
    assert summary["speedup_warm_vs_seed_loop"] >= 5.0
