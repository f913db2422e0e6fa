"""The workloads: how each one sets up a serving path and drives it.

Every workload is a closed loop with one client: the next request is
sent when the previous one has been answered. A request is one batch of
:data:`inputs.BATCH` contracts. One client is what a serving path has in
a deployment: a scanner's flush thread calls its service (or the fleet)
with one micro-batch at a time. It also lets the host-speed readings
around each request (below) run on an otherwise idle host. For
the fleet it means a request's latency includes the coordinator sending
the request's shard groups to their workers one after the other; how
throughput grows with concurrent clients and workers is what
``benchmarks/bench_fleet.py`` measures.

* ``warm`` — in-process ``ScanService.scan_bytecodes``; the traffic pool
  repeats, so after one warm-up pass the prediction cache answers every
  contract.
* ``cold`` — in-process ``ScanService.scan_bytecodes``; every contract is
  a fresh deployment, so each one is normalized, hashed, decoded,
  histogrammed and scored by the forest.
* ``stream`` — ``EventBus`` → ``StreamScanner`` → sink; fresh base
  contracts with repeating clones. A request is one block of deploy
  events, timed from publishing its first event until the scanner has
  scored them all.
* ``fleet`` — ``FleetClient`` → HTTP coordinator → forked HTTP workers;
  same mixed traffic as the stream.

Shard, micro-batch and worker counts are the shipped defaults of
``repro.deploy.config``.

The measured time is cut into :data:`SETUP_ROUNDS` chunks. After each
chunk the serving path is set up :data:`SETUPS_PER_ROUND` more times from
the artifact, and :data:`FIRST_SETUPS` times before the first, all timed
outside the measured time. Set-up times are therefore sampled across the
whole run, not in one burst.

The reported times are those taken at the host's full speed. On a shared
virtual machine a thread runs at one of two speeds about 1.5× apart,
switching every few tens of milliseconds, and the share of time spent at
each drifts over minutes, so any statistic over all requests follows that
share. Each request and each set-up is therefore bracketed by two runs
of :func:`kernel_seconds`, a fixed kernel of interpreter, numpy and
hashing work that calls no PhishingHook code. Its time tells the two
speeds apart, and :func:`at_full_speed` keeps the timings whose kernels
both ran at the faster one.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

import numpy as np

from inputs import Requests
from repro.deploy.config import FleetConfig, StreamConfig

#: Chunks of the measured time, and set-ups timed after each.
SETUP_ROUNDS = 10
SETUPS_PER_ROUND = 4
#: Set-ups timed before the run; the last one serves the requests.
FIRST_SETUPS = 5
#: Every ``SAMPLE_EVERY``-th request is kept and checked after the run.
SAMPLE_EVERY = 8
#: At most this many requests are kept for checking.
MAX_SAMPLES = 1500
#: Requests sent before timing starts in the ``cold`` workload (the
#: other workloads warm up with one full pass over the traffic pool).
COLD_WARMUP = 10
#: Verdict threshold of every serving path (the ``ScanService`` default).
THRESHOLD = 0.5
#: Worker processes of the ``fleet`` workload.
FLEET_WORKERS = FleetConfig.workers
#: Kernel times below this were taken at the host's full speed. Run
#: right after a request, the kernel takes 0.27-0.35 ms at full speed
#: and about 0.5 ms at the slower one on a 2-vCPU x86-64 virtual machine
#: (CPython 3, numpy). A cut in the trough between (0.42 ms) still let
#: the selected latencies follow the slow share; this one, near the top
#: of the fast mode, halved the spread across seeds on ``stream`` and
#: ``warm``.
FULL_SPEED_KERNEL_SECONDS = 3.4e-4
#: Fewest timings a statistic is taken over. When fewer ran at full
#: speed, the run was mostly at the slower speed, and the timings with
#: the fastest kernels make up the number.
MIN_TIMINGS = {"latency": 100, "setup": 10}

_KERNEL_ARRAY = np.linspace(0.0, 1.0, 2048)
_KERNEL_BYTES = bytes(range(256)) * 64


def _kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    values = _KERNEL_ARRAY
    for _ in range(16):
        values = np.sqrt(values * values + 1.0)
    hashlib.blake2b(_KERNEL_BYTES).digest()


def kernel_seconds() -> float:
    """Time of one calibration kernel run: how fast the host runs now."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def at_full_speed(timings, kernels, kind: str) -> np.ndarray:
    """The ``timings`` whose slower bracketing kernel ran at full speed,
    topped up to ``MIN_TIMINGS[kind]`` by those with the fastest kernels."""
    kernels = np.asarray(kernels, dtype=np.float64)
    full = int(np.count_nonzero(kernels < FULL_SPEED_KERNEL_SECONDS))
    keep = np.argsort(kernels, kind="stable")[:max(full, MIN_TIMINGS[kind])]
    return np.asarray(timings, dtype=np.float64)[keep]


@dataclass
class Run:
    """What one run produced."""

    #: Set-up times and the slower of the two kernels bracketing each.
    setup_seconds: list[float] = field(default_factory=list)
    setup_kernels: list[float] = field(default_factory=list)
    #: Request latencies and the slower of the two kernels bracketing each.
    latencies: array = field(default_factory=lambda: array("d"))
    kernels: array = field(default_factory=lambda: array("d"))
    requests: int = 0
    failed: int = 0
    contracts: int = 0
    measured_seconds: float = 0.0
    #: ``(codes, labels, probabilities, verdicts)`` of sampled requests.
    samples: list = field(default_factory=list)

    def keep(self, codes, labels, probabilities, verdicts) -> None:
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append((codes, labels, probabilities, verdicts))

    def failure(self) -> None:
        self.failed += 1
        if self.failed == 1:
            traceback.print_exc(file=sys.stderr)

    def add_latency(self, seconds: float, kernel: float) -> None:
        """Record a request timed after a ``kernel``-second kernel run;
        runs the kernel once more to bracket it."""
        self.latencies.append(seconds)
        self.kernels.append(max(kernel, kernel_seconds()))

    def timed_setup(self, build):
        """Build the serving path once, timed; returns ``(system, close)``."""
        kernel = kernel_seconds()
        started = time.perf_counter()
        built = build()
        self.setup_seconds.append(time.perf_counter() - started)
        self.setup_kernels.append(max(kernel, kernel_seconds()))
        return built

    def first_setups(self, build):
        """:data:`FIRST_SETUPS` timed set-ups; keeps the last one open."""
        for _ in range(FIRST_SETUPS - 1):
            _system, close = self.timed_setup(build)
            close()
        return self.timed_setup(build)

    def measure(self, seconds: float, build, send) -> None:
        """Call ``send`` back to back for ``seconds`` of measured time.

        ``send`` sends one request and records it. More set-ups are timed
        after each of the :data:`SETUP_ROUNDS` chunks.
        """
        perf_counter = time.perf_counter
        for _ in range(SETUP_ROUNDS):
            started = perf_counter()
            deadline = started + seconds / SETUP_ROUNDS
            while perf_counter() < deadline:
                send()
            self.measured_seconds += perf_counter() - started
            for _ in range(SETUPS_PER_ROUND):
                _system, close = self.timed_setup(build)
                close()


# ---------------------------------------------------------------------- #
# Batch workloads: in-process service and fleet
# ---------------------------------------------------------------------- #


class _InProcess:
    def __init__(self, artifact):
        self.artifact = str(artifact)

    def build(self):
        from repro.serve.service import ScanService

        return ScanService.from_artifact(self.artifact), lambda: None

    @staticmethod
    def scan(service, addresses, codes):
        return service.scan_bytecodes(codes, addresses=addresses)

    @staticmethod
    def verdicts(results):
        return ([r.probability for r in results],
                [r.is_phishing for r in results])


class _Fleet:
    def __init__(self, artifact):
        self.artifact = str(artifact)

    def build(self):
        from repro.net.fleet import FleetClient, FleetManager
        from repro.stream.sinks import MemorySink

        sink = MemorySink()
        # Feature blocks go inline over HTTP, not through the shared
        # memory ring, so the benchmark writes nothing outside its
        # checkout.
        manager = FleetManager(
            workers=FLEET_WORKERS,
            model_path=self.artifact,
            ship_features=False,
            sinks=(sink,),
        ).start()
        return (FleetClient(manager.url), sink), manager.stop

    @staticmethod
    def scan(system, addresses, codes):
        client, sink = system
        results = client.scan(addresses, codes)
        sink.alerts.clear()
        return results

    @staticmethod
    def verdicts(results):
        return ([r["probability"] for r in results],
                [r["is_phishing"] for r in results])


def _drive_batches(path, requests: Requests, seconds: float, warmup: int,
                   on_measure) -> Run:
    run = Run()
    system, close = run.first_setups(path.build)
    perf_counter = time.perf_counter

    def send():
        addresses, codes, labels = requests.next()
        run.requests += 1
        kernel = kernel_seconds()
        sent = perf_counter()
        try:
            results = path.scan(system, addresses, codes)
        except Exception:  # counted, reported, and the loop goes on
            run.failure()
            return
        run.add_latency(perf_counter() - sent, kernel)
        run.contracts += len(codes)
        if run.requests % SAMPLE_EVERY == 0:
            run.keep(codes, labels, *path.verdicts(results))

    try:
        for _ in range(warmup):
            addresses, codes, _labels = requests.next()
            path.scan(system, addresses, codes)
        on_measure()
        run.measure(seconds, path.build, send)
    finally:
        close()
    return run


def run_warm(inputs, artifact, seconds, on_measure) -> Run:
    requests = Requests(inputs, "repeat")
    return _drive_batches(_InProcess(artifact), requests, seconds,
                          requests.pass_length(), on_measure)


def run_cold(inputs, artifact, seconds, on_measure) -> Run:
    return _drive_batches(_InProcess(artifact), Requests(inputs, "novel"),
                          seconds, COLD_WARMUP, on_measure)


def run_fleet(inputs, artifact, seconds, on_measure) -> Run:
    requests = Requests(inputs, "mixed")
    return _drive_batches(_Fleet(artifact), requests, seconds,
                          requests.pass_length(), on_measure)


# ---------------------------------------------------------------------- #
# Stream workload
# ---------------------------------------------------------------------- #

class _VerdictObserver:
    """Scanner observer counting scored events and collecting the
    verdicts of the events the benchmark asked for."""

    def __init__(self):
        self.observed = 0
        self.pending: set[str] = set()
        self.verdicts: dict[str, tuple[float, bool]] = {}

    def observe(self, *, shard, events, results, elapsed_seconds):
        self.observed += len(events)
        if not self.pending:
            return
        for event, result in zip(events, results):
            if event.address in self.pending:
                self.pending.discard(event.address)
                self.verdicts[event.address] = (
                    result.probability, result.is_phishing
                )


def run_stream(inputs, artifact, seconds, on_measure) -> Run:
    from repro.stream import EventBus, StreamScanner
    from repro.stream.events import ContractEvent
    from repro.stream.sinks import MemorySink

    run = Run()
    requests = Requests(inputs, "mixed")
    observer = _VerdictObserver()

    def build():
        sink = MemorySink()
        scanner = StreamScanner.from_artifact(
            str(artifact), shards=StreamConfig.shards,
            max_batch=StreamConfig.batch_size, sinks=[sink],
        )
        bus = EventBus()
        scanner.attach(bus)
        scanner.add_observer(observer)
        return (bus, scanner, sink), scanner.close

    (bus, scanner, sink), close = run.first_setups(build)
    block = 0
    sampled = []
    perf_counter = time.perf_counter

    def publish(addresses, codes):
        nonlocal block
        block += 1
        for sequence, (address, code) in enumerate(zip(addresses, codes)):
            bus.publish(ContractEvent(
                address=address, code=code, block_number=block,
                timestamp=block * 12, tx_hash="", sequence=sequence,
            ))
        scanner.flush()
        scanner.alerts.clear()
        sink.alerts.clear()

    def send():
        addresses, codes, labels = requests.next()
        run.requests += 1
        if run.requests % SAMPLE_EVERY == 0 and len(sampled) < MAX_SAMPLES:
            sampled.append((addresses, codes, labels))
            observer.pending.update(addresses)
        kernel = kernel_seconds()
        sent = perf_counter()
        try:
            publish(addresses, codes)
        except Exception:  # counted, reported, and the loop goes on
            run.failure()
            return
        run.add_latency(perf_counter() - sent, kernel)
        run.contracts += len(codes)

    try:
        for _ in range(requests.pass_length()):
            addresses, codes, _labels = requests.next()
            publish(addresses, codes)
        on_measure()
        observer.observed = 0
        run.measure(seconds, build, send)
    finally:
        close()

    if observer.observed != run.contracts:
        print(f"stream: {run.contracts} events published, "
              f"{observer.observed} scored", file=sys.stderr)
        run.failed += 1
    for addresses, codes, labels in sampled:
        scored = [observer.verdicts.get(a) for a in addresses]
        if None in scored:
            print("stream: a sampled event was never scored", file=sys.stderr)
            run.failed += 1
            continue
        run.keep(codes, labels, [p for p, _ in scored], [v for _, v in scored])
    return run


WORKLOADS = {
    "warm": run_warm,
    "cold": run_cold,
    "stream": run_stream,
    "fleet": run_fleet,
}


# ---------------------------------------------------------------------- #
# Checking and statistics
# ---------------------------------------------------------------------- #


def check(run: Run, reference, accuracy_floor: float) -> tuple[bool, str]:
    """Compare sampled verdicts with a cache-free reference model.

    Each sampled probability must equal the reference model's probability
    for the same bytecode, each verdict must be that probability against
    :data:`THRESHOLD`, and the verdicts on base contracts must match the
    ground-truth labels at least ``accuracy_floor`` of the time.
    """
    if not run.samples:
        return False, "no request was sampled for checking"
    memo: dict[bytes, float] = {}
    checked = mismatched = labeled = agreed = 0
    for codes, labels, probabilities, verdicts in run.samples:
        missing = list(dict.fromkeys(c for c in codes if c not in memo))
        if missing:
            memo.update(zip(missing, reference.predict_proba(missing)[:, 1]))
        for code, label, probability, verdict in zip(
                codes, labels, probabilities, verdicts):
            expected = float(memo[code])
            checked += 1
            if (abs(probability - expected) > 1e-9
                    or bool(verdict) != (expected >= THRESHOLD)):
                mismatched += 1
            if label is not None:
                labeled += 1
                agreed += int(bool(verdict) == bool(label))
    accuracy = agreed / labeled if labeled else 0.0
    summary = (f"checked {checked} contracts in {len(run.samples)} requests: "
               f"{mismatched} differ from the reference, "
               f"accuracy {accuracy:.3f} on {labeled} base contracts")
    return mismatched == 0 and accuracy >= accuracy_floor, summary


def p90_ms(run: Run) -> float:
    """90th percentile of the full-speed latencies, in milliseconds."""
    latencies = at_full_speed(run.latencies, run.kernels, "latency")
    return float(np.percentile(latencies, 90)) * 1e3


def setup_s(run: Run) -> float:
    """Median full-speed set-up time, in seconds."""
    return float(np.median(
        at_full_speed(run.setup_seconds, run.setup_kernels, "setup")
    ))
