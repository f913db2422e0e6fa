"""End-to-end benchmark of PhishingHook's scan paths.

Run from the root of a checkout:

    python3 scanbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

The seed makes the inputs: a training corpus and a traffic corpus, from
which a Random Forest artifact is trained and saved. The workload then
sets its serving path up from that artifact, warms it, and drives it in a
closed loop for ``--seconds`` of measured time, setting the path up again
between chunks of it (``setup_s`` is the median set-up time).
Sampled verdicts are checked against a cache-free copy of the model and
against the ground-truth labels.

The last line of standard output is one JSON object. With ``--trace 0``
its metrics are the end-to-end ones (90th percentile request latency
and median set-up time, both at the host's full speed; see
``workloads.py``); with ``--trace 1`` the run
wraps each layer of the scan path (see ``tracing.py``) and reports each
layer's self time and call count per contract instead. Progress and
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Lowest share of sampled verdicts that must match the ground truth.
ACCURACY_FLOOR = 0.8


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm", "cold", "stream", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run) -> dict:
    from workloads import p90_ms, setup_s

    return {
        "p90_ms": _metric(p90_ms(run), "ms"),
        "setup_s": _metric(setup_s(run), "s"),
    }


def per_layer(run, totals: dict) -> dict:
    contracts = run.contracts

    def us(*layers):
        return _metric(
            sum(totals[layer]["self"] for layer in layers) * 1e6 / contracts,
            "us",
        )

    def calls(layer):
        return _metric(totals[layer]["calls"] / contracts, "count")

    lookups = totals["lookup"]["calls"]
    hit_rate = totals["lookup"]["hits"] / lookups if lookups else 0.0
    return {
        "normalize_us": us("normalize"),
        "normalize_calls": calls("normalize"),
        "digest_us": us("digest"),
        "cache_us": us("lookup", "put"),
        "cache_hit_rate": _metric(hit_rate, "ratio"),
        "decode_us": us("decode"),
        "decode_calls": calls("decode"),
        "features_us": us("features"),
        "descent_us": us("descent"),
        "service_us": us("service"),
        "bus_us": us("bus"),
        "stream_us": us("stream"),
        "sink_us": us("sink"),
        "client_us": us("client"),
        "coordinator_us": us("coordinator"),
        "transport_us": us("transport"),
        "worker_us": us("worker"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no PhishingHook sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from inputs import build_inputs, train_artifact
    from tracing import Tracer
    from workloads import FULL_SPEED_KERNEL_SECONDS, WORKLOADS, check

    scratch = ROOT / ".scanbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    tracer = None
    try:
        inputs = build_inputs(args.seed)
        artifact = workdir / "model.npz"
        train_artifact(inputs, artifact)
        if args.trace:
            tracer = Tracer()
            tracer.install()
        run = WORKLOADS[args.workload](
            inputs, artifact, args.seconds,
            tracer.reset if tracer is not None else (lambda: None),
        )
        totals = None
        if tracer is not None:
            totals = tracer.totals()
            tracer.close()
            tracer = None

        from repro.artifacts import load_artifact

        reference, _manifest = load_artifact(artifact)
        correct, summary = check(run, reference, ACCURACY_FLOOR)
        full = sum(k < FULL_SPEED_KERNEL_SECONDS for k in run.kernels)
        print(f"{args.workload} seed {args.seed}: {run.requests} requests, "
              f"{run.contracts} contracts, {len(run.latencies)} latency "
              f"samples in {run.measured_seconds:.2f}s, {full} at full "
              f"speed; {summary}", file=sys.stderr)
        if run.contracts == 0:
            print("no request completed", file=sys.stderr)
            return 1
        metrics = (per_layer(run, totals) if totals is not None
                   else end_to_end(run))
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(json.dumps({
        "correct": correct,
        "attempted": max(run.requests, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
