"""Chaos suite: seeded fault plans driven through a supervised fleet.

Each scenario installs a deterministic :class:`~repro.faults.FaultPlan`
(or SIGKILLs real worker processes), lets the self-healing machinery
react — heartbeat supervision, spawn-context respawn with backoff,
degraded-mode serving, dead-letter spooling — and then asserts the one
invariant every fault must preserve: the **alert set is unchanged** (or
every missing alert is accounted for in a dead-letter spool).

Everything here runs against real processes and real sockets; nothing
is monkeypatched inside a worker. The fault plans propagate to respawned
(spawned) workers via ``PHOOK_FAULT_PLAN`` in the environment.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.net import FleetClient, FleetManager, serve_store
from repro.stream import MemorySink

#: Every plan here is seeded so CI failures replay verbatim locally.
CHAOS_SEED = int(os.environ.get("PHOOK_CHAOS_SEED", "7"))


@pytest.fixture(autouse=True)
def no_leaked_fault_plan():
    clear_plan()
    yield
    clear_plan()


def _supervised(store_root, **kwargs):
    options = dict(
        workers=2,
        store_url=str(store_root),
        model_ref="production",
        sinks=(MemorySink(),),
        supervise=True,
        heartbeat_seconds=0.2,
        respawn_backoff_seconds=0.05,
        respawn_backoff_max=0.2,
    )
    options.update(kwargs)
    return FleetManager(**options)


def _wait_until(predicate, *, timeout=90.0, interval=0.05, what=""):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what or predicate}")


def _serve_backend(root):
    from repro.artifacts import backend_from_url

    backend = backend_from_url(str(root))
    server = serve_store(backend, "127.0.0.1", 0, writable=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _store_server_main(root, ready):
    from repro.artifacts import backend_from_url

    server = serve_store(backend_from_url(root), "127.0.0.1", 0,
                         writable=False)
    ready.send(server.server_address[1])
    ready.close()
    server.serve_forever(poll_interval=0.05)


def _serve_backend_process(root):
    """Publish a store over HTTP from a *separate process*.

    An in-thread server's listening socket is duplicated into every
    fleet worker the manager forks afterwards, so closing it in the
    test process does not actually free the port — connects then hang
    in the kernel backlog instead of being refused. A store outage is
    only realistic (immediate connection-refused) when the server
    process dies and takes its socket with it.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_store_server_main, args=(str(root), sender), daemon=True
    )
    process.start()
    sender.close()
    assert receiver.poll(60), "store server never reported its port"
    port = receiver.recv()
    receiver.close()
    return process, f"http://127.0.0.1:{port}"


def _expected_alerts(reference_results):
    return {r.address for r in reference_results if r.is_phishing}


class TestWorkerCrashRecovery:
    def test_sigkill_three_times_recovers_with_equal_alerts(
            self, store_root, probe_batch, reference_results):
        """The headline scenario: kill the same worker three times
        mid-flight; every scan completes, the alert set never changes,
        and the supervisor respawns it each time."""
        addresses, codes = probe_batch
        expected = _expected_alerts(reference_results)
        with _supervised(store_root) as manager:
            sink = manager.sinks[0]
            handle = manager.coordinator.workers[0]
            for round_number in range(1, 4):
                sink.alerts.clear()
                outcome = {}

                def run():
                    outcome["results"] = manager.scan(addresses, codes)

                scanner = threading.Thread(target=run)
                scanner.start()
                manager.kill_worker(0)
                scanner.join(timeout=60)
                assert "results" in outcome, (
                    f"scan never completed in round {round_number}"
                )
                assert {a.address for a in sink.alerts} == expected, (
                    f"alert set changed in crash round {round_number}"
                )
                _wait_until(
                    lambda: handle.state == "alive"
                    and handle.respawns >= round_number,
                    what=f"respawn {round_number}",
                )
            assert handle.respawns == 3
            # One clean scan through the respawned worker.
            sink.alerts.clear()
            results = manager.scan(addresses, codes)
            assert [r["probability"] for r in results] == [
                r.probability for r in reference_results
            ]
            assert {a.address for a in sink.alerts} == expected

    def test_all_workers_killed_fleet_returns_to_healthy(
            self, store_root, probe_batch, reference_results):
        addresses, codes = probe_batch
        with _supervised(store_root) as manager:
            workers = manager.coordinator.workers
            manager.kill_worker(0)
            manager.kill_worker(1)
            # Healthz flips honest only once the supervisor notices the
            # deaths; recovery means every worker respawned and alive.
            _wait_until(
                lambda: all(w.state == "alive" and w.respawns
                            for w in workers),
                what="full-fleet respawn",
            )
            health = FleetClient(manager.url).healthz()
            assert health["ok"] is True
            assert health["alive_workers"] == 2
            results = manager.scan(addresses, codes)
            assert [r["probability"] for r in results] == [
                r.probability for r in reference_results
            ]

    def test_persistent_start_failure_quarantines_the_worker(
            self, store_root, probe_batch, reference_results):
        """A worker whose cold start keeps failing must be quarantined
        after max_respawns — and the fleet keeps serving without it."""
        addresses, codes = probe_batch
        with _supervised(store_root, max_respawns=2) as manager:
            handle = manager.coordinator.workers[0]
            # Installed *after* start: only respawned (spawned) workers
            # see it, and each new process re-fires the startup fault.
            install_plan(FaultPlan([
                FaultSpec("worker.start", "error", worker=0),
            ], seed=CHAOS_SEED))
            manager.kill_worker(0)
            _wait_until(lambda: handle.state == "quarantined",
                        what="quarantine after repeated respawn failure")
            clear_plan()

            status = FleetClient(manager.url).status()
            worker0 = status["workers"][0]
            assert worker0["state"] == "quarantined"
            assert status["quarantined"] == 1
            health = FleetClient(manager.url).healthz()
            assert health["ok"] is True, (
                "quarantine is a warning, not an outage"
            )
            assert health["degraded"] is True

            results = manager.scan(addresses, codes)
            assert {r["worker"] for r in results} == {1}
            assert [r["probability"] for r in results] == [
                r.probability for r in reference_results
            ]


class TestStoreOutages:
    def test_cold_start_rides_out_a_5xx_storm(
            self, store_root, tmp_path, probe_batch, reference_results):
        """Workers cold-starting through a flapping store mirror retry
        through a bounded 503 storm and still come up bit-identical."""
        server, url = _serve_backend(store_root)
        try:
            plan = FaultPlan([
                FaultSpec("store.get", "error", status=503, count=2),
            ], seed=CHAOS_SEED)
            with plan.installed():
                with _supervised(
                    store_root, store_url=url,
                    cache_dir=str(tmp_path / "spool"),
                ) as manager:
                    assert plan.specs[0].fired == 2, (
                        "the 503 storm never hit the cold-start path"
                    )
                    addresses, codes = probe_batch
                    results = manager.scan(addresses, codes)
                    assert [r["probability"] for r in results] == [
                        r.probability for r in reference_results
                    ]
                    health = FleetClient(manager.url).healthz()
                    assert health["degraded"] is False
        finally:
            server.shutdown()
            server.server_close()

    def test_store_outage_respawn_serves_degraded_from_spool(
            self, store_root, tmp_path, probe_batch, reference_results):
        """Store dies after the fleet is up; a crashed worker respawns
        from the shared cache_dir spool, flags itself degraded, and the
        fleet keeps answering 200 with the degraded flag raised."""
        addresses, codes = probe_batch
        server, url = _serve_backend_process(store_root)
        try:
            with _supervised(
                store_root, store_url=url,
                cache_dir=str(tmp_path / "spool"),
            ) as manager:
                manager.scan(addresses, codes)  # warm the spool path
                server.kill()
                server.join(timeout=10)

                handle = manager.coordinator.workers[0]
                manager.kill_worker(0)
                _wait_until(
                    lambda: handle.state == "alive" and handle.respawns,
                    what="respawn against a dead store",
                )
                assert handle.degraded is True

                health = FleetClient(manager.url).healthz()
                assert health["ok"] is True
                assert health["degraded"] is True
                status = manager.status()
                assert status["degraded"] == 1
                assert status["workers"][0]["degraded"] is True

                sink = manager.sinks[0]
                sink.alerts.clear()
                results = manager.scan(addresses, codes)
                assert [r["probability"] for r in results] == [
                    r.probability for r in reference_results
                ], "degraded-mode results diverged from the reference"
                assert {a.address for a in sink.alerts} == (
                    _expected_alerts(reference_results)
                )
        finally:
            if server.is_alive():
                server.kill()
                server.join(timeout=10)


class TestSinkOutages:
    def test_sink_stall_spools_then_replays_with_full_accounting(
            self, store_root, probe_batch, reference_results, tmp_path):
        """A stalling alert channel: deliveries fail, the breaker opens,
        alerts spool to the dead-letter file, and recovery replays them
        — total delivered + spooled always equals total flagged."""
        from repro.net.retry import CircuitBreaker
        from repro.stream import DeadLetterSink

        inner = MemorySink()
        dead_letter = DeadLetterSink(
            inner, tmp_path / "dead.jsonl",
            breaker=CircuitBreaker(failures=2, reset_seconds=0.2),
        )
        addresses, codes = probe_batch
        expected = _expected_alerts(reference_results)
        with _supervised(store_root, sinks=(dead_letter,)) as manager:
            plan = FaultPlan([
                FaultSpec("sink.emit", "stall", match="memory",
                          delay=0.01, count=2),
            ], seed=CHAOS_SEED)
            with plan.installed():
                manager.scan(addresses, codes)
            stats = dead_letter.stats
            assert stats.failed == 0, "an alert was lost outright"
            assert stats.delivered + stats.spooled == len(expected), (
                "dead-letter accounting does not cover the alert set"
            )
            assert stats.spooled >= 1, "the stall never spooled anything"

            # Channel recovered: the breaker half-opens after its reset
            # window and the next delivery replays the whole spool.
            time.sleep(0.25)
            manager.scan(addresses, codes)
            _wait_until(lambda: not dead_letter.spooled_alerts(),
                        timeout=10, what="dead-letter replay")
        delivered = {
            (a["address"] if isinstance(a, dict) else a.address)
            for a in inner.alerts
        }
        assert delivered == expected, (
            "replay did not restore the exact alert set"
        )
        assert dead_letter.stats.failed == 0
        assert dead_letter.stats.spooled == 0
