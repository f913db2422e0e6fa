"""Fault recovery: time-to-recover and tail latency through a respawn.

Not a paper artifact — this is the ROADMAP's "self-healing fleet"
check. A supervised 2-worker fleet serves a continuous scan load; one
worker is SIGKILLed mid-stream and the benchmark measures:

* **recovery** — seconds from the kill until the supervisor has the
  worker respawned, re-serving and marked alive again (heartbeat
  detection + backoff + spawn cold-start, end to end),
* **p99 during respawn** — client-observed batch latency while the
  fleet is down a worker and traffic reroutes to the survivor,
  against the steady-state p99 measured first.

Prints one machine-readable JSON summary line (``FLEET {...}``) whose
``recovery`` key joins the perf ledger (lower is better, wide band:
it crosses process spawn and scheduler latency). Shape assertions are
strict at every scale: no scan may fail during the outage, the alert
set across steady/outage/recovered phases must equal the
single-process reference exactly, the worker must come back with
``respawns == 1``, and no shared-table slot may stay pinned at the
end (a crash mid-batch may not leak its pin lease).
"""

import itertools
import json
import os
import threading
import time

import numpy as np

from benchmarks.conftest import SEED
from repro.models.hsc import HSCDetector

SMOKE = bool(int(os.environ.get("PHOOK_BENCH_SMOKE", "0")))

#: Steady-state batches (sequential) and addresses per batch.
N_STEADY = 4 if SMOKE else 12
BATCH_SIZE = 16
#: Concurrent client threads during the outage window.
CLIENTS = 2
#: Hard ceiling on recovery: heartbeat (0.1s) + backoff (0.05s) +
#: a spawn cold-start. Generous because CI runners cold-import the
#: model stack; the ledger band is the real gate.
RECOVERY_BUDGET = 60.0


def _workload(corpus):
    records = [r for r in corpus.records if r.bytecode]
    batches = []
    for b in range(N_STEADY):
        rows = [
            records[(b * BATCH_SIZE + i) % len(records)]
            for i in range(BATCH_SIZE)
        ]
        batches.append((
            [r.address for r in rows], [r.bytecode for r in rows],
        ))
    return batches


def test_fault_recovery(corpus, dataset, tmp_path_factory):
    from repro.artifacts import ModelStore
    from repro.net import FleetManager
    from repro.serve.service import ScanService
    from repro.stream import MemorySink

    detector = HSCDetector(variant="Random Forest", seed=SEED)
    detector.set_params(clf__n_estimators=16)
    detector.fit(dataset.bytecodes, dataset.labels)
    store_root = tmp_path_factory.mktemp("fault-bench-store")
    ModelStore.from_url(str(store_root)).put(
        detector, model_name="Random Forest", tags=("production",)
    )

    batches = _workload(corpus)
    reference = ScanService.from_artifact(
        "production", store=ModelStore.from_url(str(store_root))
    )
    expected_alerts = set()
    for addresses, codes in batches:
        for result in reference.scan_bytecodes(codes, addresses=addresses):
            if result.is_phishing:
                expected_alerts.add(result.address)

    sink = MemorySink()
    with FleetManager(
        workers=2,
        store_url=str(store_root),
        model_ref="production",
        overflow="block",
        sinks=(sink,),
        supervise=True,
        heartbeat_seconds=0.1,
        respawn_backoff_seconds=0.05,
        respawn_backoff_max=0.5,
    ) as manager:
        handle = manager.coordinator.workers[0]

        # Steady state: the latency floor the outage is compared to.
        steady = []
        for addresses, codes in batches:
            started = time.perf_counter()
            manager.scan(addresses, codes)
            steady.append(time.perf_counter() - started)
        p99_steady = float(np.percentile(np.sort(steady), 99))

        # Outage window: continuous load from client threads while the
        # worker dies, traffic reroutes, and the supervisor respawns.
        stop = threading.Event()
        lock = threading.Lock()
        outage = []
        errors = []
        rotation = itertools.cycle(batches)

        def client():
            while not stop.is_set():
                with lock:
                    addresses, codes = next(rotation)
                started = time.perf_counter()
                try:
                    manager.scan(addresses, codes)
                except Exception as error:  # pragma: no cover
                    with lock:
                        errors.append(error)
                    return
                with lock:
                    outage.append(time.perf_counter() - started)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)  # load established before the fault

        killed = time.perf_counter()
        manager.kill_worker(0)
        while not (handle.state == "alive" and handle.respawns >= 1):
            if time.perf_counter() - killed > RECOVERY_BUDGET:
                break
            time.sleep(0.01)
        recovery = time.perf_counter() - killed

        time.sleep(0.2)  # a few batches through the respawned worker
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors, f"scan failed during the outage: {errors[0]}"
        assert handle.state == "alive" and handle.respawns == 1, (
            f"worker never recovered: state={handle.state} "
            f"respawns={handle.respawns}"
        )
        assert recovery <= RECOVERY_BUDGET
        p99_respawn = float(np.percentile(np.sort(outage), 99))

        status = manager.status()
        assert status["shared_cache"]["pinned_slots"] == 0, (
            "a crash mid-batch leaked a shared-table pin lease"
        )
        fleet_alerts = {alert.address for alert in sink.alerts}
        assert fleet_alerts == expected_alerts, (
            f"alert set diverged across the outage "
            f"(missing {sorted(expected_alerts - fleet_alerts)[:3]}, "
            f"extra {sorted(fleet_alerts - expected_alerts)[:3]})"
        )

    summary = {
        "recovery": round(recovery, 4),
        "p99_seconds_steady": round(p99_steady, 4),
        "p99_seconds_respawn": round(p99_respawn, 4),
        "outage_batches": len(outage),
        "respawns": handle.respawns,
        "clients": CLIENTS,
        "cores": os.cpu_count() or 1,
    }
    print(f"\nFLEET {json.dumps(summary, sort_keys=True)}")
    print(f"steady p99 {p99_steady * 1e3:.1f}ms  "
          f"respawn-window p99 {p99_respawn * 1e3:.1f}ms  "
          f"recovery {recovery:.2f}s over {len(outage)} batches")
