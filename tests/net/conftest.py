"""Shared fixtures for the fleet/network tests.

One small Random Forest is trained once per session and published into
a session-scoped ``file://`` store under the ``production`` tag — the
exact cold-start path fleet workers take. ``probe_batch`` carries real
(address, bytecode) pairs from the same corpus so fleet results can be
compared bit-for-bit against a single-process reference service.
``live_servers`` runs a real coordinator and worker handler in threads,
for tests that speak raw HTTP to them.
"""

import threading

import pytest

from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.dataset import Dataset
from repro.models.hsc import HSCDetector


@pytest.fixture(scope="session")
def net_corpus():
    return build_corpus(
        CorpusConfig(n_phishing=30, n_benign=30, seed=13, clone_factor=2.0)
    )


@pytest.fixture(scope="session")
def net_dataset(net_corpus):
    return Dataset.from_corpus(net_corpus, seed=0)


@pytest.fixture(scope="session")
def net_detector(net_dataset):
    detector = HSCDetector(variant="Random Forest", seed=0)
    detector.set_params(clf__n_estimators=10)
    detector.fit(net_dataset.bytecodes, net_dataset.labels)
    return detector


@pytest.fixture(scope="session")
def store_root(tmp_path_factory, net_detector):
    """A ``file://`` store holding the fitted model as ``production``."""
    from repro.artifacts import ModelStore

    root = tmp_path_factory.mktemp("net-store")
    store = ModelStore.from_url(str(root))
    store.put(net_detector, model_name="Random Forest",
              tags=("production",))
    return root


@pytest.fixture(scope="session")
def probe_batch(net_corpus):
    """(addresses, codes) for 16 real deployments, duplicates included."""
    records = [r for r in net_corpus.records if r.bytecode][:16]
    addresses = [r.address for r in records]
    codes = [r.bytecode for r in records]
    return addresses, codes


@pytest.fixture(scope="session")
def reference_results(store_root, probe_batch):
    """Single-process ScanService verdicts for ``probe_batch``."""
    from repro.artifacts import ModelStore
    from repro.serve.service import ScanService

    service = ScanService.from_artifact(
        "production", store=ModelStore.from_url(str(store_root))
    )
    addresses, codes = probe_batch
    return service.scan_bytecodes(codes, addresses=addresses)


def _serve_in_thread(server):
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server


@pytest.fixture(scope="module")
def live_servers(store_root):
    """``{"coordinator": server, "worker": server}``: a real worker
    handler over the session store and a coordinator routing to it, both
    serving in threads of this process (no fork)."""
    from repro.net.coordinator import FleetCoordinator, WorkerHandle
    from repro.net.server import KeepAliveServer
    from repro.net.worker import WorkerSpec, _make_handler, _WorkerState

    state = _WorkerState(WorkerSpec(index=0, store_url=str(store_root),
                                    model_ref="production"))
    box: dict = {}
    worker = KeepAliveServer(("127.0.0.1", 0), _make_handler(state, box))
    box["server"] = worker
    _serve_in_thread(worker)
    coordinator = FleetCoordinator(
        [WorkerHandle(0, "127.0.0.1", worker.server_address[1])],
        overflow="block", timeout=5.0,
    )
    front = _serve_in_thread(coordinator.serve("127.0.0.1", 0))
    yield {"coordinator": front, "worker": worker}
    for server in (front, worker):
        server.shutdown()
        server.server_close()
    coordinator.close()
