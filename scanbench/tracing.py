"""Per-layer costs for a traced run, recorded from outside the program.

A traced run wraps the entry point of each layer of the scan path — a
module function or a class method, listed in :data:`SITES` — with a span
recorder. Spans nest per thread, so each layer's *self* time is its span
duration minus the spans it caused. Two hand-offs leave the thread: a
fleet client's request is served by the coordinator's HTTP thread, and a
coordinator's worker exchange by a worker process; :data:`HANDOFFS`
subtracts the callee's time from the caller's after the run.

Spans are aggregated as they close, into per-layer totals (calls,
inclusive seconds, self seconds, cache hits) kept in an anonymous shared
memory map with one row per process. Fleet workers are forked after the
wrappers are installed, inherit them, and write their own row; the
benchmark sums the rows when the run ends. Untraced runs install nothing.
"""

from __future__ import annotations

import mmap
import sys
import threading
import time
from importlib import import_module

from workloads import FLEET_WORKERS

#: Layers of the scan path, in the order the metrics report them.
LAYERS = (
    "normalize", "digest", "lookup", "put", "decode", "features",
    "descent", "service", "bus", "stream", "sink", "client",
    "coordinator", "transport", "worker",
)

#: ``(layer, module, attribute)`` entry points wrapped in a traced run.
SITES = (
    ("normalize", "repro.evm.disassembler", "normalize_bytecode"),
    ("normalize", "repro.serve.cache", "normalize_bytecode"),
    ("normalize", "repro.serve.service", "normalize_bytecode"),
    ("digest", "repro.serve.cache", "bytecode_digest"),
    ("digest", "repro.serve.service", "bytecode_digest"),
    ("lookup", "repro.serve.cache", "FeatureCache.lookup"),
    ("put", "repro.serve.cache", "FeatureCache.put"),
    ("decode", "repro.serve.cache", "decode_mnemonic_ids"),
    ("decode", "repro.features.histogram", "decode_mnemonic_ids"),
    ("features", "repro.features.histogram",
     "OpcodeHistogramExtractor.transform"),
    ("descent", "repro.ml.flat", "FlatEnsemble.predict_proba_mean"),
    ("descent", "repro.ml.flat", "FlatEnsemble.decision_sum"),
    ("service", "repro.serve.service", "ScanService.scan_bytecodes"),
    ("bus", "repro.stream.events", "EventBus.publish"),
    ("stream", "repro.stream.scanner", "StreamScanner.on_event"),
    ("stream", "repro.stream.scanner", "StreamScanner.flush_batch"),
    ("sink", "repro.stream.sinks", "AlertSink.emit"),
    ("client", "repro.net.fleet", "FleetClient.scan"),
    ("coordinator", "repro.net.coordinator", "FleetCoordinator.scan"),
    ("transport", "repro.net.coordinator", "FleetCoordinator._send"),
    ("worker", "repro.net.worker", "_WorkerState.scan"),
)

#: ``(caller, callee)`` pairs whose callee runs on another thread or in
#: another process while the caller waits for it.
HANDOFFS = (("client", "coordinator"), ("transport", "worker"))

#: Accumulator rows: this process plus one per fleet worker.
ROWS = 1 + FLEET_WORKERS

_FIELDS = 4  # calls, inclusive seconds, self seconds, hits


def _resolve(module_name: str, attribute: str):
    """``(owner, name)`` for ``module.attr`` or ``module.Class.method``."""
    owner = import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs the layer wrappers and owns their accumulators."""

    def __init__(self):
        self._map = mmap.mmap(-1, ROWS * len(LAYERS) * _FIELDS * 8)
        self._acc = memoryview(self._map).cast("d")
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.row = 0

    # ------------------------------------------------------------------ #

    def _wrap(self, layer: str, original):
        acc = self._acc
        local = self._local
        index = LAYERS.index(layer)
        count_hits = layer == "lookup"
        perf_counter = time.perf_counter
        width = len(LAYERS) * _FIELDS
        tracer = self

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                base = tracer.row * width + index * _FIELDS
                acc[base] += 1.0
                acc[base + 1] += elapsed
                acc[base + 2] += elapsed - children
            if count_hits and result[0]:
                acc[base + 3] += 1.0
            return result

        return traced

    def install(self) -> None:
        """Wrap every site in :data:`SITES`; warn about missing ones.

        Every site is resolved — and so every module imported — before
        any is patched: a module imported after a patch would bind the
        wrapper under its own name, and wrapping that again would count
        each call twice.
        """
        resolved = []
        for layer, module_name, attribute in SITES:
            try:
                owner, name = _resolve(module_name, attribute)
                resolved.append((layer, owner, name, getattr(owner, name)))
            except (ImportError, AttributeError):
                print(f"trace: no site {module_name}.{attribute}",
                      file=sys.stderr)
        wrappers: dict[int, object] = {}
        for layer, owner, name, original in resolved:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(layer, original)
            self._restore.append((owner, name, original))
            setattr(owner, name, wrappers[id(original)])
        self._install_worker_rows()

    def _install_worker_rows(self) -> None:
        """Give each forked fleet worker its own accumulator row."""
        try:
            from repro.net.fleet import FleetManager
        except ImportError:
            return
        original = FleetManager._spawn_worker
        tracer = self

        def spawn(manager, index, context):
            tracer.row = 1 + index
            try:
                return original(manager, index, context)
            finally:
                tracer.row = 0

        self._restore.append((FleetManager, "_spawn_worker", original))
        FleetManager._spawn_worker = spawn

    def close(self) -> None:
        """Put every wrapped site back and release the accumulators."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._acc.release()
        self._map.close()

    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Zero every row (call before the measured window)."""
        self._map[:] = bytes(len(self._map))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``/``inclusive``/``self``/``hits`` over all
        processes, with :data:`HANDOFFS` applied."""
        totals = {}
        width = len(LAYERS) * _FIELDS
        for index, layer in enumerate(LAYERS):
            sums = [0.0] * _FIELDS
            for row in range(ROWS):
                base = row * width + index * _FIELDS
                for field in range(_FIELDS):
                    sums[field] += self._acc[base + field]
            totals[layer] = dict(zip(("calls", "inclusive", "self", "hits"),
                                     sums))
        for caller, callee in HANDOFFS:
            totals[caller]["self"] -= totals[callee]["inclusive"]
        return totals
