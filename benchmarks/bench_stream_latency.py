"""Streaming detection: event pipeline vs the seed poll loop.

Not a paper artifact — this is the ROADMAP's "keep up with the chain
head" check for the `repro.stream` subsystem. The same historical
campaign (every deployment on the corpus chain, clones included) is
scored three ways:

* **seed poll loop** — the seed live monitor's `poll` behavior, inlined:
  walk all accounts, score each with a per-contract `predict_proba`
  call, and (as the seed did) find each alert's creation transaction by
  scanning the transaction list,
* **stream cold** — `TimelineReplayer` → `StreamScanner` (one
  `scan_bytecodes` call per micro-batch) with an empty prediction cache,
* **stream warm** — the same replay again through fresh scanner state but
  a warm content-addressed cache (steady-state monitoring).

Prints one machine-readable JSON summary line (`STREAM_LATENCY {...}`)
with events/sec and p50/p95/p99 per-event scan latency per mode. Shape
assertions: all three modes flag the identical alert set with identical
probabilities, and warm streaming throughput must be ≥ 5× the seed loop.
"""

import json
import time

from benchmarks.conftest import SEED, run_once
from repro.serve.service import ScanService
from repro.stream import StreamScanner, TimelineReplayer

#: Alert threshold shared by every mode.
THRESHOLD = 0.5

#: Micro-batch flush threshold.
MAX_BATCH = 32


def seed_poll_loop(chain, model, threshold=THRESHOLD):
    """The seed live monitor's `poll`, reproduced: per-contract scoring and
    an O(transactions) linear scan to locate each alert's transaction."""
    alerts = []
    latencies = []
    for account in chain.accounts():
        if not account.code:
            continue
        started = time.perf_counter()
        probability = float(model.predict_proba([account.code])[0, 1])
        latencies.append(time.perf_counter() - started)
        if probability >= threshold:
            transaction = next(
                (
                    t for t in chain.transactions()
                    if t.contract_address == account.address
                ),
                None,
            )
            alerts.append(
                (account.address, probability,
                 transaction.block_number if transaction else 0)
            )
    return alerts, latencies


def percentiles(latencies):
    import numpy as np

    p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


def stream_pass(service, chain):
    scanner = StreamScanner(
        service,
        max_batch=MAX_BATCH,
        max_queue=max(MAX_BATCH * 4, 256),
        threshold=THRESHOLD,
    )
    report = TimelineReplayer(scanner).replay_chain(chain)
    return report


def test_stream_latency(benchmark, corpus, dataset):
    service = ScanService(
        "Random Forest", train_dataset=dataset, seed=SEED,
        threshold=THRESHOLD,
    )
    model = service.model  # fit once; shared by every mode

    def run():
        summary = {"campaign_events": len(corpus.chain)}

        started = time.perf_counter()
        seed_alerts, seed_latencies = seed_poll_loop(corpus.chain, model)
        seed_seconds = time.perf_counter() - started
        summary["seed_poll_loop"] = {
            "events": len(seed_latencies),
            "seconds": seed_seconds,
            "events_per_sec": len(seed_latencies) / seed_seconds,
            "latency_seconds": percentiles(seed_latencies),
        }

        cold = stream_pass(service, corpus.chain)
        summary["stream_cold"] = {
            "events": cold.events,
            "seconds": cold.duration_seconds,
            "events_per_sec": cold.events_per_second,
            "batches": cold.batches,
            "latency_seconds": cold.latency_seconds,
        }

        warm = stream_pass(service, corpus.chain)
        summary["stream_warm"] = {
            "events": warm.events,
            "seconds": warm.duration_seconds,
            "events_per_sec": warm.events_per_second,
            "batches": warm.batches,
            "latency_seconds": warm.latency_seconds,
        }
        summary["cache"] = service.stats()
        return summary, seed_alerts, cold, warm

    summary, seed_alerts, cold, warm = run_once(benchmark, run)

    # Identical alert sets — addresses, probabilities and block numbers —
    # across the seed loop and both streaming passes.
    seed_set = {(a, p, b) for a, p, b in seed_alerts}
    cold_set = {
        (a.address, a.probability, a.block_number) for a in cold.alerts
    }
    warm_set = {
        (a.address, a.probability, a.block_number) for a in warm.alerts
    }
    assert cold_set == seed_set
    assert warm_set == seed_set
    assert all(alert.from_cache for alert in warm.alerts)

    rate = {
        mode: summary[mode]["events_per_sec"]
        for mode in ("seed_poll_loop", "stream_cold", "stream_warm")
    }
    summary["speedup_warm_vs_seed_poll"] = (
        rate["stream_warm"] / rate["seed_poll_loop"]
    )
    summary["speedup_cold_vs_seed_poll"] = (
        rate["stream_cold"] / rate["seed_poll_loop"]
    )
    print("\nSTREAM_LATENCY " + json.dumps(summary, sort_keys=True))
    for mode in ("seed_poll_loop", "stream_cold", "stream_warm"):
        latency = summary[mode]["latency_seconds"]
        print(f"{mode:15s} {rate[mode]:10.1f} events/s   "
              f"p50 {latency['p50'] * 1e3:7.3f}ms  "
              f"p95 {latency['p95'] * 1e3:7.3f}ms  "
              f"p99 {latency['p99'] * 1e3:7.3f}ms")

    # Acceptance: warm-cache streaming ≥ 5× the seed poll loop.
    assert summary["speedup_warm_vs_seed_poll"] >= 5.0
