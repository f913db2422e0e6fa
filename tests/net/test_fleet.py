"""End-to-end fleet tests over real processes and real sockets.

The module fixture boots a genuine 2-worker fleet (fork + HTTP) from
the session store; transport-failure tests boot their own small fleets
so they can kill workers and saturate queues without poisoning the
shared one. The
``PHOOK_FLEET_SCAN_DELAY`` env knob (inherited by forked workers) slows
worker scans so crashes and overload land mid-flight deterministically.
"""

import json
import multiprocessing
import os
import socket
import threading
import time
import zipfile

import pytest

from repro.net import (
    FleetClient,
    FleetManager,
    FleetRpcError,
    OverloadedError,
    ShuttingDownError,
)
from repro.net.client import HttpSession, http_json, http_request
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


def _assert_matches_reference(results, addresses, reference_results):
    assert [r["address"] for r in results] == addresses
    assert [r["probability"] for r in results] == [
        r.probability for r in reference_results
    ], "fleet probabilities diverged from the in-process service"
    assert [r["is_phishing"] for r in results] == [
        r.is_phishing for r in reference_results
    ]


class TestScanPath:
    def test_results_match_single_process_reference(
            self, fleet, probe_batch, reference_results):
        addresses, codes = probe_batch
        _assert_matches_reference(fleet.scan(addresses, codes), addresses,
                                  reference_results)

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

    @pytest.mark.parametrize("params", [
        {"addresses": "ab", "codes": ["6080", "6080"]},
        {"addresses": ["0xa", "0xb"], "codes": "6080"},
        {"addresses": [1, 2], "codes": ["6080", "6080"]},
        {"addresses": ["0xa"], "codes": [None]},
    ], ids=["addresses-string", "codes-string", "int-address", "null-code"])
    def test_scan_params_must_be_lists_of_strings(self, fleet, params):
        # A JSON string is a sequence too: "ab" must not scan "a" and "b".
        client = FleetClient(fleet.url)
        before = client.status()["counters"]["scanned"]
        with pytest.raises(FleetRpcError) as excinfo:
            client.rpc("scan", params)
        assert (excinfo.value.status, excinfo.value.code) == (400, -32602)
        assert client.status()["counters"]["scanned"] == before

    @pytest.mark.parametrize("body", [b"[1, 2]", b"{\"method\": \"ping\", "
                                      b"\"params\": [1]}"],
                             ids=["array", "params-array"])
    def test_non_object_rpc_is_a_400(self, fleet, body):
        response = http_request("POST", f"{fleet.url}/rpc", body=body,
                                timeout=5.0)
        assert response.status == 400

    @pytest.mark.parametrize("code", ["zz", "0x6080", "608"],
                             ids=["non-hex", "0x-prefix", "odd-length"])
    def test_malformed_hex_is_invalid_params(self, fleet, code):
        # The coordinator ships hex undecoded: the worker's one decode
        # refuses it with a 400, which must not cost the worker its
        # place in rotation or count as a scan.
        client = FleetClient(fleet.url)
        before = client.status()["counters"]["scanned"]
        with pytest.raises(FleetRpcError) as excinfo:
            client.scan(["0xabc"], [code])
        assert (excinfo.value.status, excinfo.value.code) == (400, -32602)
        status = client.status()
        assert status["counters"]["scanned"] == before
        assert status["alive"] == len(status["workers"]) == 2
        assert all(w["state"] == "alive" for w in status["workers"])

    def test_empty_bytecode_is_invalid_params(self, fleet):
        # Nothing deployed means nothing to score: the fleet refuses the
        # batch instead of alerting on the empty-histogram probability.
        client = FleetClient(fleet.url)
        sink = fleet.sinks[0]
        sink.alerts.clear()
        with pytest.raises(FleetRpcError) as excinfo:
            client.scan(["0xabc"], [""])
        assert excinfo.value.status == 400
        assert "0xabc" in excinfo.value.message
        assert sink.alerts == []
        status = client.status()
        assert status["alive"] == len(status["workers"]) == 2


class TestKeepAlive:
    """Fleet servers keep connections open, so every request body must
    be read even on routes that ignore it."""

    @staticmethod
    def _reused(session, first, second):
        """Send two requests on ``session``; assert both used one
        connection and return the second response."""
        first()
        (connection,) = session._idle
        response = second()
        assert session._idle == [connection], "connection was not reused"
        return response

    def test_coordinator_drains_an_unrouted_body(self, fleet):
        session = HttpSession(fleet.url)
        response = self._reused(
            session,
            lambda: session.json("POST", "/no-such-route", {"x": "y" * 64}),
            lambda: session.json("POST", "/rpc", {"jsonrpc": "2.0", "id": 1,
                                                  "method": "ping"}),
        )
        assert response.json()["result"] == {"pong": True}
        session.close()

    def test_worker_drains_an_unrouted_body(self, fleet):
        session = HttpSession(fleet.coordinator.workers[0].url)
        response = self._reused(
            session,
            lambda: session.json("POST", "/no-such-route", {"x": "y" * 64}),
            lambda: session.json("POST", "/invalidate",
                                 {"namespace": "no-such-namespace"}),
        )
        assert response.status == 200
        session.close()

    def test_unusable_content_length_closes_the_connection(self, fleet):
        session = HttpSession(fleet.url)
        response = session.request("POST", "/rpc", body=b"{}",
                                   headers={"Content-Length": "-5"})
        assert response.status == 400
        assert response.headers["connection"] == "close"
        assert session._idle == []
        session.close()


def _scan_concurrently(manager, addresses, codes, batches=2):
    """Send ``batches`` copies of one batch at once; return the results
    of each, in submission order."""
    outcomes: list = [None] * batches

    def run(slot):
        outcomes[slot] = manager.scan(addresses, codes)

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(batches)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert all(outcome is not None for outcome in outcomes), (
        "a concurrent scan never completed"
    )
    return outcomes


def _populate_both_workers(manager, addresses, codes):
    """Scan the batch once on each worker of a 2-worker fleet whose
    scans are delayed: two concurrent batches take one worker each."""
    outcomes = _scan_concurrently(manager, addresses, codes)
    # Lists, not sets: sets compare by inclusion, so ``sorted`` leaves
    # [{1}, {0}] as it is.
    assert sorted(
        sorted({r["worker"] for r in results}) for results in outcomes
    ) == [[0], [1]]
    return [result for results in outcomes for result in results]


class TestRouting:
    """Each batch goes whole to the least-loaded worker."""

    def test_concurrent_batches_go_to_different_workers(
            self, store_root, probe_batch, monkeypatch):
        monkeypatch.setenv(SCAN_DELAY_ENV, "1.0")
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            started = time.perf_counter()
            outcomes = _scan_concurrently(manager, addresses, codes)
            elapsed = time.perf_counter() - started
        assert sorted(
            sorted({r["worker"] for r in results}) for results in outcomes
        ) == [[0], [1]]
        # One delayed batch per worker: both on one worker take 2 s.
        assert elapsed < 1.8, f"two concurrent batches took {elapsed:.2f}s"


class TestWorkerState:
    """A worker's scan path, in-process (no fork, no socket)."""

    def test_batch_is_one_service_call_over_both_crc32_halves(
            self, store_root, probe_batch, reference_results,
            monkeypatch):
        from repro.net.worker import WorkerSpec, _WorkerState

        addresses, codes = probe_batch
        state = _WorkerState(WorkerSpec(index=0, store_url=str(store_root),
                                        model_ref="production"))
        calls = []
        scan_bytecodes = state.service.scan_bytecodes

        def spy(*args, **kwargs):
            calls.append(args)
            return scan_bytecodes(*args, **kwargs)

        monkeypatch.setattr(state.service, "scan_bytecodes", spy)
        unique = list(dict.fromkeys(codes))
        response = state.scan({
            "addresses": addresses,
            "code_of": [unique.index(code) for code in codes],
            "inline_codes": [code.hex() for code in unique],
        })
        assert len(calls) == 1
        results = response["results"]
        assert all(set(result) == {"address", "probability", "is_phishing",
                                   "from_cache"} for result in results)
        _assert_matches_reference(results, addresses, reference_results)
        assert "shards" not in state.status()


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
            time.sleep(0.3)  # the batch is now in flight on worker 0
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
            # The batch was scored by the surviving worker.
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


def _live_children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


class TestLifecycle:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm on this platform")
    def test_default_fleet_leaves_dev_shm_unchanged(
            self, store_root, probe_batch):
        before = set(os.listdir("/dev/shm"))
        addresses, codes = probe_batch
        manager = _manager(store_root, supervise=True,
                           heartbeat_seconds=0.1).start()
        try:
            manager.scan(addresses, codes)
            assert set(os.listdir("/dev/shm")) == before
            manager.kill_worker(0)
            deadline = time.monotonic() + 30
            handle = manager.coordinator.workers[0]
            while time.monotonic() < deadline and not handle.respawns:
                time.sleep(0.1)
            assert handle.respawns == 1, "killed worker never respawned"
            manager.scan(addresses, codes)
        finally:
            manager.stop()
        assert set(os.listdir("/dev/shm")) == before

    def test_stop_survives_a_crashed_worker(self, store_root):
        """Teardown with a SIGKILLed worker must still clean everything."""
        manager = _manager(store_root).start()
        manager.kill_worker(0)
        manager.stop()
        assert all(not p.is_alive() for p in manager._processes)

    def test_start_failure_after_fork_kills_the_workers(self, store_root):
        """A port already in use fails ``start()`` after both workers
        cold-started; none of them may outlive the error."""
        before = _live_children()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            manager = _manager(store_root, port=taken.getsockname()[1])
            with pytest.raises(OSError):
                manager.start()
        assert len(manager._processes) == 2
        assert all(not p.is_alive() for p in manager._processes)
        assert manager.stopped
        assert _live_children() <= before

    @pytest.mark.parametrize("overrides", [
        {"queue_depth": 0},
        {"overflow": "bogus"},
    ], ids=["queue_depth", "overflow"])
    def test_bad_admission_knobs_fail_before_forking(
            self, store_root, overrides):
        before = _live_children()
        with pytest.raises(ValueError):
            _manager(store_root, **overrides).start()
        assert _live_children() <= before

    def test_ship_features_only_accepts_false(self, store_root):
        _manager(store_root, ship_features=False)
        with pytest.raises(ValueError, match="shared feature table"):
            _manager(store_root, ship_features=True)

    def test_exactly_one_model_source_enforced(self, store_root):
        with pytest.raises(ValueError):
            FleetManager(workers=1)
        with pytest.raises(ValueError):
            FleetManager(workers=1, model_path="m.npz",
                         store_url=str(store_root), model_ref="production")

    def test_stop_waits_for_the_stop_a_shutdown_started(
            self, store_root, probe_batch, reference_results, tmp_path):
        """``POST /shutdown`` stops the fleet on a server thread. A
        ``stop()`` racing it (the CLI loop that saw ``stopped`` flip)
        must not return before the sinks are flushed and closed."""
        from repro.stream import JsonlSink

        expected = {r.address for r in reference_results if r.is_phishing}
        assert expected
        path = tmp_path / "alerts.jsonl"
        manager = _manager(store_root, sinks=(JsonlSink(path),)).start()
        try:
            manager.scan(*probe_batch)
            assert FleetClient(manager.url).shutdown()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not manager.stopped:
                time.sleep(0.01)
            manager.stop()
            delivered = {json.loads(line)["address"]
                         for line in path.read_text().splitlines()}
            assert delivered == expected
        finally:
            manager.stop()

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


class TestMmapFleet:
    """Workers that map the model artifact read-only (``mmap=True``)."""

    @pytest.fixture(scope="class")
    def mmap_fleet(self, store_root):
        with _manager(store_root, mmap=True) as manager:
            yield manager

    @staticmethod
    def _worker_misses(manager):
        """Per-worker cache misses from /status."""
        return {
            worker.index: http_json(
                "GET", f"{worker.url}/status", timeout=5.0
            ).json()["service"]["misses"]
            for worker in manager.coordinator.workers
        }

    def test_results_match_reference_with_mmap(
            self, mmap_fleet, probe_batch, reference_results):
        addresses, codes = probe_batch
        _assert_matches_reference(mmap_fleet.scan(addresses, codes),
                                  addresses, reference_results)

    def test_second_batch_extracts_nothing_per_worker(
            self, mmap_fleet, probe_batch):
        addresses, codes = probe_batch
        mmap_fleet.scan(addresses, codes)
        before = self._worker_misses(mmap_fleet)
        mmap_fleet.scan(addresses, codes)
        assert self._worker_misses(mmap_fleet) == before, (
            "a worker re-extracted a bytecode it had already scanned"
        )


    def test_worker_caches_predictions_only(
            self, mmap_fleet, store_root, probe_batch):
        """A worker's cache holds one prediction per distinct code it
        scored, and no decoded-opcode (``ids``) namespace."""
        from repro.artifacts import ModelStore

        digest = ModelStore.from_url(str(store_root)).resolve("production")
        namespace = f"pred:artifact:{digest}"
        addresses, codes = probe_batch
        results = mmap_fleet.scan(addresses, codes)
        scored = {result["worker"] for result in results}
        for worker in mmap_fleet.coordinator.workers:
            service = http_json(
                "GET", f"{worker.url}/status", timeout=5.0
            ).json()["service"]
            assert "ids" not in service["by_namespace"]
            if worker.index in scored:
                assert set(service["by_namespace"]) == {namespace}
                assert service["cache_entries"] == len(set(codes))

    def test_unverified_model_path_is_refused_before_any_fork(
            self, net_detector, tmp_path, monkeypatch):
        """A mapped load skips the per-array hashes, so a fleet that will
        map a user's ``model_path`` verifies it once, before forking."""
        from repro.artifacts import (
            IntegrityError,
            load_artifact,
            save_artifact,
        )

        path = tmp_path / "model.npz"
        save_artifact(net_detector, path, compression="stored")
        # Flip the last byte of the largest array and re-zip with fresh
        # CRCs: only the manifest's SHA-256 can tell.
        with zipfile.ZipFile(path) as archive:
            members = {info.filename: archive.read(info.filename)
                       for info in archive.infolist()}
        name = max((n for n in members if n.startswith("a")),
                   key=lambda n: len(members[n]))
        members[name] = members[name][:-1] + bytes([members[name][-1] ^ 1])
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            for member, data in members.items():
                archive.writestr(member, data)
        load_artifact(path, mmap_mode="r")  # the mapped load cannot tell

        spawned = []

        def spawn(self, index, context):
            spawned.append(index)
            raise RuntimeError("forked a worker")

        monkeypatch.setattr(FleetManager, "_spawn_worker", spawn)
        manager = FleetManager(workers=2, model_path=str(path), mmap=True)
        with pytest.raises(IntegrityError, match=name.removesuffix(".npy")):
            manager.start()
        assert spawned == []


class TestNamespaceInvalidation:
    """Promotion must evict the demoted model's prediction namespace
    on *every* worker's local cache."""

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
            self, store_root, probe_batch, monkeypatch):
        from repro.artifacts import ModelStore

        monkeypatch.setenv(SCAN_DELAY_ENV, "0.5")
        digest = ModelStore.from_url(str(store_root)).resolve("production")
        namespace = f"pred:artifact:{digest}"
        # One address per bytecode: a repeat inside a batch is served by
        # the batch's own dedup (from_cache) and would mask a stale hit.
        first_of = {}
        for address, code in zip(*probe_batch):
            first_of.setdefault(code, address)
        codes, addresses = list(first_of), list(first_of.values())
        with _manager(store_root) as manager:
            _populate_both_workers(manager, addresses, codes)
            before = self._per_worker_entries(manager, namespace)
            assert all(count > 0 for count in before.values()), (
                "every worker should hold prediction rows after a scan"
            )

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

            # The fleet still serves: the rescan recomputes predictions
            # (no stale hit can exist) and repopulates the namespace.
            again = _populate_both_workers(manager, addresses, codes)
            assert not any(r["from_cache"] for r in again)
            repopulated = self._per_worker_entries(manager, namespace)
            assert all(count > 0 for count in repopulated.values())

    def test_invalidate_rpc_reaches_every_worker(
            self, store_root, probe_batch, monkeypatch):
        from repro.artifacts import ModelStore

        monkeypatch.setenv(SCAN_DELAY_ENV, "0.5")
        digest = ModelStore.from_url(str(store_root)).resolve("production")
        namespace = f"pred:artifact:{digest}"
        addresses, codes = probe_batch
        with _manager(store_root) as manager:
            _populate_both_workers(manager, addresses, codes)
            client = FleetClient(manager.url)
            report = client.invalidate(namespace)
            assert report["namespace"] == namespace
            # JSON stringifies the worker indices; both must answer.
            assert set(report["workers"]) == {"0", "1"}
            assert all(count is not None and count > 0
                       for count in report["workers"].values())
            assert report["total_evicted"] == sum(
                report["workers"].values()
            )


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
                json.dumps({"addresses": ["0x1"], "code_of": [-1],
                            "inline_codes": ["60"]}).encode(),
                json.dumps({"addresses": ["0x1", "0x2"], "code_of": [0],
                            "inline_codes": ["60"]}).encode(),
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


class TestFleetStateFile:
    """``fleet status|scan|stop`` on a corrupt state file print one
    error line and exit 2, never a traceback."""

    @pytest.mark.parametrize("body", [
        '{"url": 5}',
        '"a string that mentions url"',
        '["url"]',
        "null",
        "{}",
        '{"url": ""}',
        "{not json",
    ], ids=["url-int", "json-string", "json-list", "null", "no-url",
            "empty-url", "not-json"])
    @pytest.mark.parametrize("command", [
        ["status"], ["scan", "0x1"], ["stop"],
    ], ids=["status", "scan", "stop"])
    def test_corrupt_state_is_a_one_line_error(
            self, tmp_path, capsys, body, command):
        import repro.cli

        state = tmp_path / "fleet.json"
        state.write_text(body, encoding="utf-8")
        assert repro.cli.main(["fleet", *command, "--state",
                               str(state)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err


class TestFleetStop:
    """``fleet stop`` returns once the daemon has drained: the daemon
    removes its state file after its sinks are closed, so alert files
    are complete when the command returns."""

    @staticmethod
    def _stub_daemon(state, linger: float):
        """A coordinator stand-in whose ``/shutdown`` removes ``state``
        after ``linger`` seconds, as a draining daemon does."""
        from repro.net.server import JsonHandler, KeepAliveServer

        class Daemon(JsonHandler):
            shutdowns = 0

            def do_GET(self):  # noqa: N802
                self._reply(200, {"ok": True, "alive_workers": 2})

            def do_POST(self):  # noqa: N802
                type(self).shutdowns += 1
                self._reply(200, {"ok": True})
                threading.Timer(linger, state.unlink,
                                kwargs={"missing_ok": True}).start()

        server = KeepAliveServer(("127.0.0.1", 0), Daemon)
        threading.Thread(target=server.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True).start()
        return server, Daemon, f"http://127.0.0.1:{server.server_address[1]}"

    def test_stop_waits_until_the_daemon_removed_its_state(
            self, tmp_path, capsys):
        import repro.cli
        from repro.net import save_fleet_state

        state = tmp_path / "fleet.json"
        server, daemon, url = self._stub_daemon(state, linger=0.5)
        save_fleet_state(state, url=url)
        try:
            assert repro.cli.main(["fleet", "stop", "--state",
                                   str(state)]) == 0
            assert not state.exists()
            assert daemon.shutdowns == 1
            out = capsys.readouterr().out.splitlines()
            assert out[-1] == "fleet stopped"
        finally:
            server.shutdown()
            server.server_close()

    def test_stop_by_url_without_a_state_file_does_not_wait(
            self, tmp_path, capsys):
        import repro.cli

        state = tmp_path / "fleet.json"
        server, daemon, url = self._stub_daemon(state, linger=0.0)
        try:
            assert repro.cli.main(["fleet", "stop", "--url", url, "--state",
                                   str(tmp_path / "absent.json")]) == 0
            assert daemon.shutdowns == 1
            out = capsys.readouterr().out.splitlines()
            assert out == [f"fleet at {url} stopping (2 worker(s) draining)"]
        finally:
            server.shutdown()
            server.server_close()
