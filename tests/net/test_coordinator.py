"""Coordinator dispatch against stub workers (no forked processes).

Each stub is an in-thread HTTP server standing in for a worker at a
:class:`~repro.net.coordinator.WorkerHandle`'s URL, so a test can make a
worker refuse a batch or drop its kept-alive connection on cue and
check how the coordinator treats it.
"""

import json
import threading

import pytest

from repro.net import FleetClient, FleetCoordinator, FleetRpcError
from repro.net.coordinator import WorkerHandle, WorkerRejectedError
from repro.net.server import JsonHandler, KeepAliveServer


class _StubWorker(JsonHandler):
    """Scores every address 0.1 and records each request's client port.

    ``reject`` answers every batch with HTTP 400 instead; ``hangup``
    closes the connection after each answer without announcing it.
    """

    reject = False
    hangup = False
    ports: list

    def do_POST(self):  # noqa: N802
        request = json.loads(self._read_body())
        type(self).ports.append(self.client_address[1])
        if self.reject:
            self._reply(400, {"error": "stub refuses this batch"})
            return
        self._reply(200, {"results": [
            {"address": address, "probability": 0.1,
             "is_phishing": False, "from_cache": False}
            for address in request["addresses"]
        ]})
        if self.hangup:
            self.close_connection = True


def _serve(handler, **attrs):
    stub = type("Stub", (handler,), {"ports": [], **attrs})
    server = KeepAliveServer(("127.0.0.1", 0), stub)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, stub


@pytest.fixture()
def stub_fleet():
    """Factory: ``(coordinator, stub)`` over one stub worker whose class
    attributes are the keyword arguments."""
    servers, coordinators = [], []

    def make(**attrs):
        server, stub = _serve(_StubWorker, **attrs)
        handle = WorkerHandle(0, "127.0.0.1", server.server_address[1])
        coordinator = FleetCoordinator([handle], queue_depth=2,
                                       overflow="block", timeout=5.0)
        servers.append(server)
        coordinators.append(coordinator)
        return coordinator, stub

    yield make
    for coordinator in coordinators:
        coordinator.close()
    for server in servers:
        server.shutdown()
        server.server_close()


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
