"""Coordinator dispatch against stub workers (no forked processes).

Each stub is an in-thread HTTP server standing in for a worker at a
:class:`~repro.net.coordinator.WorkerHandle`'s URL, so a test can make a
worker refuse a batch, drop its kept-alive connection or hold a batch
on cue and check how the coordinator treats it and where it routes the
next one.
"""

import json
import threading
import time

import pytest

from repro.net import FleetClient, FleetCoordinator, FleetRpcError
from repro.net.coordinator import WorkerHandle, WorkerRejectedError
from repro.net.server import JsonHandler, KeepAliveServer


class _StubWorker(JsonHandler):
    """Scores every address 0.1 and records each request's client port
    and body.

    ``reject`` answers every batch with HTTP 400 instead; ``hangup``
    closes the connection after each answer without announcing it;
    ``gate``, when given, holds every answer until the event is set;
    ``flag`` scores every address 0.9, a phishing verdict.
    """

    reject = False
    flag = False
    hangup = False
    gate = None
    ports: list
    requests: list

    def do_POST(self):  # noqa: N802
        request = json.loads(self._read_body())
        type(self).ports.append(self.client_address[1])
        type(self).requests.append(request)
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.reject:
            self._reply(400, {"error": "stub refuses this batch"})
            return
        self._reply(200, {"results": [
            {"address": address, "probability": 0.9 if self.flag else 0.1,
             "is_phishing": self.flag, "from_cache": False}
            for address in request["addresses"]
        ]})
        if self.hangup:
            self.close_connection = True


def _serve(handler, **attrs):
    stub = type("Stub", (handler,), {"ports": [], "requests": [], **attrs})
    server = KeepAliveServer(("127.0.0.1", 0), stub)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, stub


@pytest.fixture()
def stub_fleets():
    """Factory: ``(coordinator, stubs)`` over ``workers`` stub workers
    (coordinator-side ``handle`` class) whose class attributes are the
    other keyword arguments."""
    servers, coordinators = [], []

    def make(workers=2, queue_depth=2, handle=WorkerHandle, **attrs):
        stubs, handles = [], []
        for index in range(workers):
            server, stub = _serve(_StubWorker, **attrs)
            servers.append(server)
            stubs.append(stub)
            handles.append(
                handle(index, "127.0.0.1", server.server_address[1])
            )
        coordinator = FleetCoordinator(handles, queue_depth=queue_depth,
                                       overflow="block", timeout=5.0)
        coordinators.append(coordinator)
        return coordinator, stubs

    yield make
    for coordinator in coordinators:
        coordinator.close()
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def stub_fleet(stub_fleets):
    """Factory: ``(coordinator, stub)`` over one stub worker."""

    def make(**attrs):
        coordinator, (stub,) = stub_fleets(workers=1, **attrs)
        return coordinator, stub

    return make


def _scan(coordinator):
    return coordinator.scan(["0xabc", "0xdef"], ["6080", "6080"])


def test_worker_4xx_is_a_bad_request_not_a_dead_worker(stub_fleet):
    coordinator, stub = stub_fleet(reject=True)
    for _ in range(2):
        with pytest.raises(WorkerRejectedError,
                           match="stub refuses this batch"):
            _scan(coordinator)
    worker = coordinator.workers[0]
    assert worker.alive and worker.state == "alive"
    assert coordinator.counters["rerouted"] == 0
    # Both refusals arrived on the one kept-alive connection.
    assert len(stub.ports) == 2 and len(set(stub.ports)) == 1


@pytest.mark.parametrize("code", ["", "  ", "\t\n"],
                         ids=["empty", "spaces", "tab-newline"])
def test_blank_code_is_no_code_before_anything_is_sent(stub_fleet, code):
    from repro.chain.rpc import NoCodeError

    coordinator, stub = stub_fleet()
    with pytest.raises(NoCodeError, match="0xdef"):
        coordinator.scan(["0xabc", "0xdef"], ["6080", code])
    assert stub.requests == []
    assert coordinator.counters["scanned"] == 0


def test_worker_4xx_is_a_json_rpc_400_with_its_message(stub_fleet):
    coordinator, _ = stub_fleet(reject=True)
    server = coordinator.serve("127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        with FleetClient(f"http://127.0.0.1:{server.server_address[1]}",
                         timeout=5.0) as client:
            with pytest.raises(FleetRpcError) as excinfo:
                client.scan(["0xabc"], ["6080"])
            assert excinfo.value.status == 400
            assert excinfo.value.code == -32602
            assert "stub refuses this batch" in excinfo.value.message
            assert client.status()["alive"] == 1
    finally:
        server.shutdown()
        server.server_close()


def test_connection_the_worker_closed_is_retried_and_worker_stays_alive(
        stub_fleet):
    coordinator, stub = stub_fleet(hangup=True)
    for _ in range(3):
        results = _scan(coordinator)
        assert [r["address"] for r in results] == ["0xabc", "0xdef"]
    worker = coordinator.workers[0]
    assert worker.alive and worker.failed == 0
    assert coordinator.counters["rerouted"] == 0
    assert len(stub.ports) == 3 and len(set(stub.ports)) == 3


def test_idle_connections_are_bounded_by_queue_depth(stub_fleet):
    coordinator, _ = stub_fleet()
    threads = [threading.Thread(target=_scan, args=(coordinator,))
               for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    handle = coordinator.workers[0]
    assert handle.completed == 8
    assert 1 <= len(handle.session._idle) <= coordinator.queue_depth


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class _YieldingHandle(WorkerHandle):
    """A handle whose ``inflight`` read sleeps briefly, handing the GIL
    to any other thread that is routing a batch."""

    @property
    def inflight(self):
        time.sleep(0.001)
        return self._inflight

    @inflight.setter
    def inflight(self, value):
        self._inflight = value


#: Eight addresses, with one bytecode deployed twice.
ADDRESSES = [f"0x{i:040x}" for i in range(8)]
CODES = ["6080", "6080", "6001", "6002", "6003", "6004", "6005", "6006"]


class TestRouting:
    def test_batch_reaches_one_stub_as_one_request(self, stub_fleets):
        coordinator, stubs = stub_fleets()
        results = coordinator.scan(ADDRESSES, CODES)
        assert [r["address"] for r in results] == ADDRESSES
        assert {r["worker"] for r in results} == {0}
        (request,) = stubs[0].requests
        assert stubs[1].requests == []
        assert request["addresses"] == ADDRESSES
        assert [request["inline_codes"][i] for i in request["code_of"]] == (
            CODES
        )
        assert len(request["inline_codes"]) == len(set(CODES))

    def test_ties_go_to_the_lowest_index(self, stub_fleets):
        coordinator, stubs = stub_fleets(workers=3)
        for _ in range(3):
            coordinator.scan(ADDRESSES, CODES)
        assert [len(stub.requests) for stub in stubs] == [3, 0, 0]

    def test_busy_worker_is_passed_over(self, stub_fleets):
        coordinator, stubs = stub_fleets()
        gate = threading.Event()
        stubs[0].gate = gate
        held = threading.Thread(target=coordinator.scan,
                                args=(ADDRESSES, CODES))
        held.start()
        try:
            _wait_for(lambda: stubs[0].requests)
            results = coordinator.scan(ADDRESSES, CODES)
            assert {r["worker"] for r in results} == {1}
        finally:
            gate.set()
            held.join(timeout=10)
        assert [len(stub.requests) for stub in stubs] == [1, 1]

    def test_alert_shard_is_the_scoring_worker(self, stub_fleets):
        from repro.stream.sinks import MemorySink

        coordinator, _stubs = stub_fleets(flag=True)
        coordinator.sinks = [sink := MemorySink()]
        coordinator.mark_dead(coordinator.workers[0])
        coordinator.scan(ADDRESSES, CODES)
        assert [alert.address for alert in sink.alerts] == ADDRESSES
        assert {alert.shard for alert in sink.alerts} == {1}

    def test_dead_worker_is_skipped(self, stub_fleets):
        coordinator, stubs = stub_fleets()
        coordinator.mark_dead(coordinator.workers[0])
        results = coordinator.scan(ADDRESSES, CODES)
        assert {r["worker"] for r in results} == {1}
        assert stubs[0].requests == []
        assert coordinator.counters["rerouted"] == 0

    def test_racing_scans_split_evenly_at_queue_depth(self, stub_fleets):
        # Reading a handle's in-flight count yields the GIL, so racing
        # threads interleave inside the pick: a pick that read the
        # counts and reserved a slot in separate steps would put a fifth
        # batch on one worker, or leave it waiting there while the other
        # has room.
        coordinator, stubs = stub_fleets(queue_depth=4,
                                         handle=_YieldingHandle)
        for _ in range(3):
            gate = threading.Event()
            for stub in stubs:
                stub.gate = gate
                stub.requests.clear()
            start = threading.Barrier(8)

            def scan():
                start.wait()
                coordinator.scan(ADDRESSES, CODES)

            threads = [threading.Thread(target=scan) for _ in range(8)]
            for thread in threads:
                thread.start()
            try:
                _wait_for(lambda: sum(len(s.requests) for s in stubs) == 8,
                          timeout=5.0)
                assert [len(stub.requests) for stub in stubs] == [4, 4]
            finally:
                gate.set()
                for thread in threads:
                    thread.join(timeout=10)
        assert [w.completed for w in coordinator.workers] == [12, 12]
