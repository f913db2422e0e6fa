"""End-to-end fleet tests over real processes and real sockets.

The module fixture boots a genuine 2-worker fleet (fork + HTTP + the
shared feature table) from the session store; transport-failure tests
boot their own small fleets so they can kill workers and saturate
queues without poisoning the shared one. The
``PHOOK_FLEET_SCAN_DELAY`` env knob (inherited by forked workers) slows
worker scans so crashes and overload land mid-flight deterministically.
"""

import json
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro.net import (
    FleetClient,
    FleetManager,
    FleetRpcError,
    OverloadedError,
    ShuttingDownError,
)
from repro.net.client import http_json, http_request
from repro.net.worker import SCAN_DELAY_ENV
from repro.stream import MemorySink


def _manager(store_root, **kwargs):
    options = dict(
        workers=2,
        store_url=str(store_root),
        model_ref="production",
        sinks=(MemorySink(),),
    )
    options.update(kwargs)
    return FleetManager(**options)


@pytest.fixture(scope="module")
def fleet(store_root):
    with _manager(store_root) as manager:
        yield manager


@pytest.fixture(scope="module")
def inline_fleet(store_root):
    with _manager(store_root, ship_features=False) as manager:
        yield manager


class TestScanPath:
    @pytest.mark.parametrize("ship_features", [True, False],
                             ids=["shared-table", "inline"])
    def test_results_match_single_process_reference(
            self, request, ship_features, probe_batch, reference_results):
        manager = request.getfixturevalue(
            "fleet" if ship_features else "inline_fleet"
        )
        addresses, codes = probe_batch
        results = manager.scan(addresses, codes)
        assert [r["address"] for r in results] == addresses
        assert [r["probability"] for r in results] == [
            r.probability for r in reference_results
        ], "fleet probabilities diverged from the in-process service"
        assert [r["is_phishing"] for r in results] == [
            r.is_phishing for r in reference_results
        ]

    def test_features_travel_through_the_shared_table(
            self, fleet, probe_batch):
        addresses, codes = probe_batch
        before = fleet.status()["shared_cache"]
        fleet.scan(addresses, codes)
        after = fleet.status()["shared_cache"]
        # Every unique code is either stored on first sight or a hit.
        assert (after["hits"] + after["stores"]
                > before["hits"] + before["stores"])
        assert after["entries"] >= 1
        assert after["pinned_slots"] == 0
        assert fleet.status()["counters"]["inline_batches"] == 0

    def test_inline_fleet_has_no_table(self, inline_fleet, probe_batch):
        addresses, codes = probe_batch
        inline_fleet.scan(addresses, codes)
        status = inline_fleet.status()
        assert "shared_cache" not in status
        assert status["counters"]["inline_batches"] >= 1

    def test_repeat_batch_served_from_worker_cache(
            self, fleet, probe_batch):
        addresses, codes = probe_batch
        fleet.scan(addresses, codes)
        again = fleet.scan(addresses, codes)
        assert all(r["from_cache"] for r in again)

    def test_flagged_results_reach_sinks(
            self, fleet, probe_batch, reference_results):
        addresses, codes = probe_batch
        sink = fleet.sinks[0]
        sink.alerts.clear()
        fleet.scan(addresses, codes)
        expected = {
            r.address for r in reference_results if r.is_phishing
        }
        assert {a.address for a in sink.alerts} == expected

    def test_mismatched_lists_rejected(self, fleet):
        with pytest.raises(ValueError):
            fleet.scan(["0x1"], [])


class TestHttpSurface:
    def test_client_scan_matches_in_process(
            self, fleet, probe_batch, reference_results):
        addresses, codes = probe_batch
        client = FleetClient(fleet.url)
        results = client.scan(addresses, codes)
        assert [r["probability"] for r in results] == [
            r.probability for r in reference_results
        ]

    def test_ping_status_healthz(self, fleet):
        client = FleetClient(fleet.url)
        assert client.ping()
        status = client.status()
        assert status["alive"] == 2
        assert len(status["workers"]) == 2
        assert status["counters"]["batches"] >= 1
        assert set(status["batch_latency_seconds"]) == {"p50", "p95",
                                                        "p99"}
        assert client.healthz()["ok"] is True

    def test_unknown_method_is_rpc_error(self, fleet):
        client = FleetClient(fleet.url)
        with pytest.raises(FleetRpcError) as excinfo:
            client.rpc("no_such_method")
        assert excinfo.value.status == 400

    def test_malformed_scan_is_rpc_error(self, fleet):
        client = FleetClient(fleet.url)
        with pytest.raises(FleetRpcError) as excinfo:
            client.rpc("scan", {"addresses": ["0x1"]})  # codes missing
        assert excinfo.value.status == 400


class TestTransportFailures:
    def test_worker_killed_mid_batch_loses_no_alerts(
            self, store_root, probe_batch, reference_results,
            monkeypatch):
        """The acceptance gate: a crash mid-stream drops zero events."""
        monkeypatch.setenv(SCAN_DELAY_ENV, "1.0")
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            outcome = {}

            def run():
                outcome["results"] = manager.scan(addresses, codes)

            scanner = threading.Thread(target=run)
            scanner.start()
            time.sleep(0.3)  # first shard group is now in flight
            manager.kill_worker(0)
            scanner.join(timeout=30)
            assert "results" in outcome, "scan never completed"

            results = outcome["results"]
            assert len(results) == len(addresses)
            assert all(r is not None for r in results)
            assert [r["probability"] for r in results] == [
                r.probability for r in reference_results
            ], "rerouted batch diverged from the reference"

            sink = manager.sinks[0]
            expected = {
                r.address for r in reference_results if r.is_phishing
            }
            assert {a.address for a in sink.alerts} == expected, (
                "alert set changed after a mid-batch worker crash"
            )
            status = manager.status()
            assert status["counters"]["rerouted"] >= 1
            assert status["alive"] == 1

    def test_scan_routes_around_already_dead_worker(
            self, store_root, probe_batch, reference_results):
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            manager.kill_worker(1)
            results = manager.scan(addresses, codes)
            assert [r["probability"] for r in results] == [
                r.probability for r in reference_results
            ]
            # Every sub-batch was scored by the surviving worker.
            assert {r["worker"] for r in results} == {0}

    def test_shed_under_sustained_overload(
            self, store_root, probe_batch, monkeypatch):
        monkeypatch.setenv(SCAN_DELAY_ENV, "0.5")
        addresses, codes = probe_batch
        with _manager(store_root, workers=1, queue_depth=1,
                      overflow="shed") as manager:
            client = FleetClient(manager.url)
            statuses = []

            def run():
                try:
                    client.scan(addresses, codes)
                    statuses.append(200)
                except FleetRpcError as error:
                    statuses.append(error.status)

            threads = [threading.Thread(target=run) for _ in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert 200 in statuses, "overloaded fleet served nothing"
            assert 429 in statuses, "no request was shed at queue_depth=1"
            assert manager.status()["counters"]["shed"] >= 1

    def test_block_overflow_serves_everything(
            self, store_root, probe_batch, monkeypatch):
        monkeypatch.setenv(SCAN_DELAY_ENV, "0.2")
        addresses, codes = probe_batch
        with _manager(store_root, workers=1, queue_depth=1,
                      overflow="block") as manager:
            client = FleetClient(manager.url)
            outcomes = []

            def run():
                outcomes.append(len(client.scan(addresses, codes)))

            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert outcomes == [len(addresses)] * 4
            assert manager.status()["counters"]["shed"] == 0

    def test_drain_refuses_new_work(self, store_root, probe_batch):
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            manager.scan(addresses, codes)
            assert manager.coordinator.drain(timeout=10)
            with pytest.raises(ShuttingDownError):
                manager.scan(addresses, codes)
            assert FleetClient(manager.url).healthz()["ok"] is False


class TestLifecycle:
    def test_stop_unlinks_the_shared_table(self, store_root, probe_batch):
        addresses, codes = probe_batch
        manager = _manager(store_root).start()
        table_name = manager.shared.name
        manager.scan(addresses, codes)
        manager.stop()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=table_name)

    def test_stop_survives_a_crashed_worker(self, store_root):
        """Teardown with a SIGKILLed worker must still clean everything,
        the shared table included."""
        manager = _manager(store_root).start()
        table_name = manager.shared.name
        manager.kill_worker(0)
        manager.stop()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=table_name)
        assert all(not p.is_alive() for p in manager._processes)

    def test_exactly_one_model_source_enforced(self, store_root):
        with pytest.raises(ValueError):
            FleetManager(workers=1)
        with pytest.raises(ValueError):
            FleetManager(workers=1, model_path="m.npz",
                         store_url=str(store_root), model_ref="production")

    def test_http_shutdown_stops_the_manager(self, store_root):
        manager = _manager(store_root).start()
        try:
            assert FleetClient(manager.url).shutdown()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not manager.stopped:
                time.sleep(0.1)
            assert manager.stopped
        finally:
            manager.stop()


def test_shed_error_maps_to_http_429():
    assert issubclass(OverloadedError, RuntimeError)


class TestSharedFeatureCache:
    """Host-wide shared cache + mmap cold starts, end to end.

    A second batch of the *same* bytecodes must extract zero times per
    worker — the ids land in the shared table on batch one and every
    later reference is a zero-copy read.
    """

    @pytest.fixture(scope="class")
    def cached_fleet(self, store_root):
        with _manager(store_root, mmap=True) as manager:
            yield manager

    @staticmethod
    def _worker_ids_misses(manager):
        """Per-worker (ids-namespace misses, shared_reads) from /status."""
        from repro.net.client import http_json

        out = {}
        for worker in manager.coordinator.workers:
            status = http_json(
                "GET", f"{worker.url}/status", timeout=5.0
            ).json()
            ids = status["service"]["by_namespace"].get("ids", {})
            out[worker.index] = (ids.get("misses", 0),
                                 status["shared_reads"])
        return out

    def test_results_match_reference_with_cache_and_mmap(
            self, cached_fleet, probe_batch, reference_results):
        addresses, codes = probe_batch
        results = cached_fleet.scan(addresses, codes)
        assert [r["probability"] for r in results] == [
            r.probability for r in reference_results
        ]

    def test_second_batch_extracts_nothing_per_worker(
            self, cached_fleet, probe_batch):
        addresses, codes = probe_batch
        cached_fleet.scan(addresses, codes)
        before = self._worker_ids_misses(cached_fleet)
        cached_fleet.scan(addresses, codes)
        after = self._worker_ids_misses(cached_fleet)
        for index, (misses, reads) in after.items():
            assert misses == before[index][0], (
                f"worker {index} re-extracted a duplicate bytecode"
            )
            assert reads > before[index][1], (
                f"worker {index} never read the shared table"
            )

    def test_coordinator_counts_hits_and_stores(
            self, cached_fleet, probe_batch):
        addresses, codes = probe_batch
        cached_fleet.scan(addresses, codes)
        status = cached_fleet.status()
        counters = status["counters"]
        shared = status["shared_cache"]
        assert shared["entries"] >= 1
        assert counters["shared_cache_stores"] == shared["stores"]
        assert counters["shared_cache_fallback"] == 0
        # A repeat batch resolves every code from the table: one pin per
        # unique digest per *shard request* (duplicates that land in
        # different shards pin once each), so the hit delta is bounded by
        # [global unique, batch size].
        from repro.serve.cache import bytecode_digest

        unique = len({bytecode_digest(code) for code in codes})
        before = counters["shared_cache_hits"]
        cached_fleet.scan(addresses, codes)
        after = cached_fleet.status()["counters"]["shared_cache_hits"]
        assert unique <= after - before <= len(codes)

    def test_no_lease_leaks_after_scans(self, cached_fleet, probe_batch):
        addresses, codes = probe_batch
        cached_fleet.scan(addresses, codes)
        shared = cached_fleet.status()["shared_cache"]
        assert shared["pinned_slots"] == 0, (
            "a request finished without releasing its shared-cache lease"
        )


class TestNamespaceInvalidation:
    """ISSUE-10 regression: promotion must evict the demoted model's
    prediction namespace on *every* worker's local cache, while the
    digest-keyed host-wide feature table — model-independent by
    construction — survives the sweep untouched.
    """

    @staticmethod
    def _per_worker_entries(manager, namespace):
        """Resident entry count of one namespace in each worker's local
        cache, straight from the per-worker /status accounting."""
        from repro.net.client import http_json

        out = {}
        for worker in manager.coordinator.workers:
            status = http_json(
                "GET", f"{worker.url}/status", timeout=5.0
            ).json()
            ns = status["service"]["by_namespace"].get(namespace, {})
            out[worker.index] = ns.get("entries", 0)
        return out

    def test_prediction_namespace_evicted_fleet_wide(
            self, store_root, probe_batch):
        from repro.artifacts import ModelStore

        digest = ModelStore.from_url(str(store_root)).resolve("production")
        namespace = f"pred:artifact:{digest}"
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            manager.scan(addresses, codes)
            before = self._per_worker_entries(manager, namespace)
            assert all(count > 0 for count in before.values()), (
                "every worker should hold prediction rows after a scan"
            )
            shared_before = manager.status()["shared_cache"]["entries"]
            assert shared_before >= 1

            report = manager.invalidate_namespace(namespace)
            assert set(report["workers"]) == set(before)
            for index, evicted in report["workers"].items():
                assert evicted == before[index], (
                    f"worker {index} reported {evicted} evictions but "
                    f"held {before[index]} prediction rows"
                )
            assert report["total_evicted"] >= sum(before.values())

            after = self._per_worker_entries(manager, namespace)
            assert all(count == 0 for count in after.values()), (
                "stale prediction rows survived the fleet-wide sweep"
            )
            # The shared table holds bytecodes + decoded ids keyed by
            # content digest — valid for any model — so the sweep must
            # not have touched it.
            assert (manager.status()["shared_cache"]["entries"]
                    == shared_before)

            # The fleet still serves: the rescan recomputes predictions
            # (no stale hit can exist) and repopulates the namespace.
            again = manager.scan(addresses, codes)
            assert not any(r["from_cache"] for r in again)
            repopulated = self._per_worker_entries(manager, namespace)
            assert all(count > 0 for count in repopulated.values())

    def test_invalidate_rpc_reaches_every_worker(
            self, store_root, probe_batch):
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            manager.scan(addresses, codes)
            client = FleetClient(manager.url)
            report = client.invalidate("ids")
            assert report["namespace"] == "ids"
            # JSON stringifies the worker indices; both must answer.
            assert set(report["workers"]) == {"0", "1"}
            assert all(count is not None and count > 0
                       for count in report["workers"].values())
            # The coordinator's own decode cache holds the ids blocks it
            # shipped; the sweep covers it too.
            assert report["coordinator_evicted"] > 0


class TestWorkerHttpHardening:
    """A worker answers a malformed body with 400, never 500: garbage on
    the wire is the caller's fault, not a scoring failure."""

    @staticmethod
    def _post_raw(url, body: bytes):
        return http_request(
            "POST", url, body=body,
            headers={"Content-Type": "application/json"}, timeout=5.0,
        )

    def test_garbage_posted_to_a_worker_is_a_400(self, fleet):
        worker = fleet.coordinator.workers[0].url
        too_far = [fleet.shared.slots, 1, 1]
        bodies = {
            "/scan": [
                b"{not json",
                b"\xff\xfe",
                json.dumps([1, 2, 3]).encode(),
                json.dumps({"addresses": ["0x1"]}).encode(),
                json.dumps({"addresses": "0x1", "code_of": [0],
                            "inline_codes": ["60"]}).encode(),
                json.dumps({"addresses": ["0x1"], "code_of": ["0"],
                            "inline_codes": ["60"]}).encode(),
                json.dumps({"addresses": ["0x1"], "code_of": [0],
                            "inline_codes": ["zz"]}).encode(),
                json.dumps({"addresses": ["0x1"], "code_of": [3],
                            "inline_codes": ["60"]}).encode(),
                json.dumps({"addresses": ["0x1"], "code_of": [0],
                            "inline_codes": [], "rest": [],
                            "shared_refs": {"0": too_far}}).encode(),
                json.dumps({"addresses": ["0x1"], "code_of": [0],
                            "inline_codes": [], "rest": [],
                            "shared_refs": {"0": [0, -1, 1]}}).encode(),
            ],
            "/invalidate": [
                b"{not json",
                json.dumps({}).encode(),
                json.dumps({"namespace": 7}).encode(),
            ],
        }
        for path, payloads in bodies.items():
            for body in payloads:
                response = self._post_raw(worker + path, body)
                assert response.status == 400, (
                    f"POST {path} {body!r} answered {response.status}"
                )
                assert "error" in response.json()
        healthy = http_json("POST", worker + "/invalidate",
                            {"namespace": "no-such-namespace"}, timeout=5.0)
        assert healthy.status == 200
