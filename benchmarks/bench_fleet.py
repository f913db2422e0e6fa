"""Fleet scaling: multi-process serving throughput vs a single worker.

Not a paper artifact — this is the ROADMAP's "scale past one process"
check. The same scan workload is pushed through a real fleet (forked
worker processes, HTTP transport, bytecode shipped inline) at one and
at four workers, by concurrent client threads:

* **1 worker** — every batch funnels through one process: the serving
  floor,
* **4 workers** — address-sharded dispatch across four processes.

Prints one machine-readable JSON summary line (``FLEET {...}``) with
events/sec per fleet size, the 4-vs-1 scaling ratio, parallel
efficiency (scaling / 4) and the client-observed p99 batch latency.

Shape assertions: the fleet's alert set must equal the single-process
reference **bit for bit at both sizes** (sharding may not change a
single verdict), and throughput must scale. The paper-
grade floor — ≥ 0.7× linear at 4 workers — needs 4 free cores; on
smaller machines (``PHOOK_BENCH_SMOKE=1`` or ``os.cpu_count() < 4``)
it relaxes to "adding workers must not collapse throughput" while the
correctness assertions stay strict.
"""

import json
import os
import threading
import time

import numpy as np

from benchmarks.conftest import SEED
from repro.models.hsc import HSCDetector

SMOKE = bool(int(os.environ.get("PHOOK_BENCH_SMOKE", "0")))

#: Scan batches pushed through each fleet size, and addresses per batch.
N_BATCHES = 6 if SMOKE else 16
BATCH_SIZE = 24
#: Concurrent client threads (the coordinator is thread-safe; load must
#: arrive in parallel or a 4-worker fleet idles three workers).
CLIENTS = 4

#: Paper-grade scaling gate (needs >= 4 free cores): throughput at 4
#: workers must reach 0.7 x linear. The smoke fallback only guards
#: against collapse — fleet overhead must not halve throughput.
EFFICIENCY_FLOOR = 0.7
SMOKE_SCALING_FLOOR = 0.4

_CAN_GATE_SCALING = not SMOKE and (os.cpu_count() or 1) >= 4


def _workload(corpus):
    """(addresses, codes) batches with realistic bytecode duplication."""
    records = [r for r in corpus.records if r.bytecode]
    batches = []
    for b in range(N_BATCHES):
        rows = [
            records[(b * BATCH_SIZE + i) % len(records)]
            for i in range(BATCH_SIZE)
        ]
        batches.append((
            [r.address for r in rows], [r.bytecode for r in rows],
        ))
    return batches


def _drive(manager, batches):
    """Push every batch from CLIENTS threads; returns (seconds, p99)."""
    queue = list(enumerate(batches))
    lock = threading.Lock()
    latencies = []
    errors = []

    def client():
        while True:
            with lock:
                if not queue:
                    return
                _, (addresses, codes) = queue.pop()
            started = time.perf_counter()
            try:
                manager.scan(addresses, codes)
            except Exception as error:  # pragma: no cover - diagnostics
                with lock:
                    errors.append(error)
                return
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    assert not errors, f"fleet scan failed under load: {errors[0]}"
    return seconds, float(np.percentile(np.sort(latencies), 99))


def test_fleet_scaling(corpus, dataset, tmp_path_factory):
    from repro.artifacts import ModelStore
    from repro.net import FleetManager
    from repro.serve.service import ScanService
    from repro.stream import MemorySink

    detector = HSCDetector(variant="Random Forest", seed=SEED)
    detector.set_params(clf__n_estimators=16)
    detector.fit(dataset.bytecodes, dataset.labels)
    store_root = tmp_path_factory.mktemp("fleet-bench-store")
    ModelStore.from_url(str(store_root)).put(
        detector, model_name="Random Forest", tags=("production",)
    )

    batches = _workload(corpus)
    events = sum(len(addresses) for addresses, _ in batches)

    # Single-process reference: the ground truth alert set.
    reference = ScanService.from_artifact(
        "production", store=ModelStore.from_url(str(store_root))
    )
    expected_alerts = set()
    for addresses, codes in batches:
        for result in reference.scan_bytecodes(codes, addresses=addresses):
            if result.is_phishing:
                expected_alerts.add(result.address)

    summary = {"events": events, "batches": len(batches),
               "clients": CLIENTS}
    throughput = {}
    for workers in (1, 4):
        sink = MemorySink()
        with FleetManager(
            workers=workers,
            store_url=str(store_root),
            model_ref="production",
            overflow="block",
            sinks=(sink,),
        ) as manager:
            seconds, p99 = _drive(manager, batches)
            status = manager.status()
        fleet_alerts = {alert.address for alert in sink.alerts}
        assert fleet_alerts == expected_alerts, (
            f"{workers}-worker fleet alert set diverged from the "
            f"single-process reference "
            f"(missing {sorted(expected_alerts - fleet_alerts)[:3]}, "
            f"extra {sorted(fleet_alerts - expected_alerts)[:3]})"
        )
        assert status["counters"]["scanned"] == events
        throughput[workers] = events / seconds
        summary[f"throughput_{workers}"] = round(events / seconds, 2)
        summary[f"p99_seconds_{workers}"] = round(p99, 4)

    scaling = throughput[4] / throughput[1]
    efficiency = scaling / 4.0
    summary["scaling"] = round(scaling, 4)
    summary["efficiency"] = round(efficiency, 4)
    summary["p99_seconds"] = summary["p99_seconds_4"]
    summary["cores"] = os.cpu_count() or 1
    summary["gated"] = _CAN_GATE_SCALING
    print(f"\nFLEET {json.dumps(summary, sort_keys=True)}")
    print(f"1 worker:  {throughput[1]:8.1f} events/s  "
          f"p99 {summary['p99_seconds_1'] * 1e3:.1f}ms")
    print(f"4 workers: {throughput[4]:8.1f} events/s  "
          f"p99 {summary['p99_seconds_4'] * 1e3:.1f}ms  "
          f"scaling {scaling:.2f}x  efficiency {efficiency:.2f}")

    if _CAN_GATE_SCALING:
        assert efficiency >= EFFICIENCY_FLOOR, (
            f"4-worker fleet reached {efficiency:.2f}x linear "
            f"(< {EFFICIENCY_FLOOR}); sharded dispatch is not scaling"
        )
    else:
        assert scaling >= SMOKE_SCALING_FLOOR, (
            f"4-worker throughput collapsed to {scaling:.2f}x of one "
            f"worker on a {os.cpu_count()}-core machine"
        )
