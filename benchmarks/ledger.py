"""Perf ledger: committed baselines for the benchmark gate metrics.

Every gate benchmark prints one machine-readable line, ``TAG {json}``
(e.g. ``PREDICT_THROUGHPUT {"speedup": 31.2, ...}``). This module turns
those lines into a regression gate:

* ``record`` parses one or more bench logs and writes the tracked
  metrics to a baseline file (the committed ``BENCH_10.json``),
* ``check`` parses fresh logs and fails (exit 1) if any tracked metric
  regressed more than the tolerance (default 20%) against the baseline.

The tracked metrics are deliberately *machine-relative ratios*
(speedup of one code path over another measured in the same process,
shadow overhead as a multiple of primary scoring time), not absolute
wall-clock — so the committed baseline transfers across machines and
CI runners, and a regression means *the relationship between code
paths changed*, which is the thing a refactor can actually break.

Usage::

    PYTHONPATH=src:. python -m pytest -q -s benchmarks/bench_cold_start.py | tee cold.log
    python benchmarks/ledger.py record cold.log ... --out BENCH_10.json
    python benchmarks/ledger.py check  cold.log ... --baseline BENCH_10.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys

#: ``TAG {json}`` — tag is SHOUTING_SNAKE, payload is one JSON object.
_SUMMARY_LINE = re.compile(r"^([A-Z][A-Z0-9_]+) (\{.*\})\s*$")


@dataclasses.dataclass(frozen=True)
class Metric:
    """One tracked ratio: ``tag.key``, and which direction is better."""

    tag: str        # summary line tag, e.g. "PREDICT_THROUGHPUT"
    key: str        # key inside the JSON payload, e.g. "speedup"
    direction: str  # "higher" (speedup) or "lower" (overhead)
    #: Per-metric tolerance override. Ratios spanning four orders of
    #: magnitude (train-per-scan vs warm-cache-hit) jitter far beyond
    #: the default band run to run; a regression there means the ratio
    #: *collapsed*, not that it moved 20%.
    tolerance: float | None = None

    @property
    def name(self) -> str:
        return f"{self.tag}.{self.key}"


#: The gate metrics. Additions are cheap; removals/renames should bump
#: the committed baseline file in the same PR.
TRACKED = (
    Metric("SCAN_THROUGHPUT", "speedup_warm_vs_seed_loop", "higher",
           tolerance=0.90),
    Metric("STREAM_LATENCY", "speedup_warm_vs_seed_poll", "higher",
           tolerance=0.50),
    Metric("PREDICT_THROUGHPUT", "speedup", "higher"),
    Metric("COLD_START", "speedup", "higher"),
    # Stored-layout mmap load vs full read+verify of the same cached
    # file. Crosses the page cache and the map setup, so the
    # band is wide: the gate catches the map degenerating into a copy.
    Metric("COLD_START", "mmap", "higher", tolerance=0.50),
    Metric("SHADOW_ROLLOUT", "overhead", "lower"),
    # 4-worker vs 1-worker fleet throughput, measured in one run over
    # identical workloads. Crosses process scheduling, so the band is
    # wide: the gate exists to catch dispatch serializing (ratio
    # collapsing toward the per-request overhead floor), not OS jitter.
    Metric("FLEET", "scaling", "higher", tolerance=0.50),
    # Seconds from SIGKILL to a respawned, re-serving worker. Absolute
    # wall-clock (the one non-ratio metric): it crosses heartbeat
    # detection, backoff and a full process spawn, so the band is the
    # widest — the gate catches recovery *stalling*, not jitter.
    Metric("FLEET", "recovery", "lower", tolerance=1.00),
    # Warm-start retrain (fit_more on the drift window) vs cold refit of
    # an equal-sized forest on the same window, same process. The loop's
    # economics rest on this ratio staying well above 1; the wide band
    # catches it collapsing toward parity, not fit-time jitter.
    Metric("LOOP", "warm_speedup", "higher", tolerance=0.50),
    # Wall seconds for the drifted replay that contains one full
    # detect -> forked retrain -> shadow -> promote cycle. Absolute
    # wall-clock (like FLEET.recovery): it crosses a process fork and a
    # forest fit, so the band is the widest — the gate catches the loop
    # *stalling*, not scheduler noise.
    Metric("LOOP", "promotion_latency", "lower", tolerance=1.00),
)

DEFAULT_TOLERANCE = 0.20


def parse_summaries(text: str) -> dict[str, dict]:
    """Extract every ``TAG {json}`` summary line; last occurrence wins."""
    summaries: dict[str, dict] = {}
    for line in text.splitlines():
        match = _SUMMARY_LINE.match(line.strip())
        if not match:
            continue
        try:
            payload = json.loads(match.group(2))
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict):
            summaries[match.group(1)] = payload
    return summaries


def collect(paths: list[str]) -> dict[str, dict]:
    """Merge summaries across logs, *per key* within each tag.

    Two benches may legitimately share a tag while owning different
    keys (``bench_fleet`` prints ``FLEET {"scaling": ...}``,
    ``bench_fault_recovery`` prints ``FLEET {"recovery": ...}``); a
    tag-level overwrite would silently drop whichever log came first.
    """
    merged: dict[str, dict] = {}
    for path in paths:
        for tag, payload in parse_summaries(
            pathlib.Path(path).read_text()
        ).items():
            merged.setdefault(tag, {}).update(payload)
    return merged


def extract_tracked(summaries: dict[str, dict]) -> tuple[dict, list[str]]:
    """(metric name -> value) for every tracked metric found; missing list."""
    values: dict[str, float] = {}
    missing: list[str] = []
    for metric in TRACKED:
        payload = summaries.get(metric.tag)
        if payload is None or metric.key not in payload:
            missing.append(metric.name)
            continue
        values[metric.name] = float(payload[metric.key])
    return values, missing


def cmd_record(args) -> int:
    values, missing = extract_tracked(collect(args.logs))
    if missing and not args.allow_missing:
        print("record: missing tracked metric(s): " + ", ".join(missing),
              file=sys.stderr)
        print("run the corresponding bench_*.py and pass its log "
              "(or --allow-missing to record a partial baseline)",
              file=sys.stderr)
        return 1
    baseline = {
        "note": (
            "Perf ledger baseline — machine-relative ratios recorded by "
            "benchmarks/ledger.py; regenerate with "
            "'python benchmarks/ledger.py record <bench logs> --out "
            + args.out + "'"
        ),
        "tolerance": args.tolerance,
        "metrics": {
            metric.name: {
                "value": round(values[metric.name], 4),
                "direction": metric.direction,
                **(
                    {"tolerance": metric.tolerance}
                    if metric.tolerance is not None else {}
                ),
            }
            for metric in TRACKED if metric.name in values
        },
    }
    pathlib.Path(args.out).write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    print(f"recorded {len(values)} metric(s) -> {args.out}")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.4f}")
    return 0


def cmd_check(args) -> int:
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    tolerance = (
        args.tolerance if args.tolerance is not None
        else float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    )
    values, missing = extract_tracked(collect(args.logs))

    failures: list[str] = []
    for name, entry in sorted(baseline.get("metrics", {}).items()):
        recorded = float(entry["value"])
        direction = entry.get("direction", "higher")
        if name in missing or name not in values:
            failures.append(
                f"{name}: tracked in {args.baseline} but absent from the "
                "provided logs — did a bench stop printing its summary "
                "line?"
            )
            continue
        current = values[name]
        band = float(entry.get("tolerance", tolerance))
        if direction == "lower":
            limit = recorded * (1.0 + band)
            regressed = current > limit
            verdict = f"<= {limit:.4f}"
        else:
            limit = recorded * (1.0 - band)
            regressed = current < limit
            verdict = f">= {limit:.4f}"
        status = "REGRESSED" if regressed else "ok"
        print(f"{status:9s} {name}: current {current:.4f} vs baseline "
              f"{recorded:.4f} (needs {verdict}, {direction} is better)")
        if regressed:
            failures.append(
                f"{name}: {current:.4f} vs baseline {recorded:.4f} "
                f"(> {band:.0%} regression)"
            )
    if failures:
        print(f"\nperf ledger: {len(failures)} regression(s) beyond "
              f"{tolerance:.0%} tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("if the change is intentional, re-record the baseline: "
              f"python benchmarks/ledger.py record <logs> --out "
              f"{args.baseline}", file=sys.stderr)
        return 1
    print(f"\nperf ledger: all {len(baseline.get('metrics', {}))} tracked "
          f"metric(s) within {tolerance:.0%} of {args.baseline}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledger", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="parse bench logs and write the baseline file"
    )
    record.add_argument("logs", nargs="+", help="bench output log file(s)")
    record.add_argument("--out", default="BENCH_10.json")
    record.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE)
    record.add_argument(
        "--allow-missing", action="store_true",
        help="record whatever tracked metrics the logs contain",
    )
    record.set_defaults(func=cmd_record)

    check = sub.add_parser(
        "check", help="fail if any tracked metric regressed vs baseline"
    )
    check.add_argument("logs", nargs="+", help="bench output log file(s)")
    check.add_argument("--baseline", default="BENCH_10.json")
    check.add_argument(
        "--tolerance", type=float, default=None,
        help="override the tolerance stored in the baseline",
    )
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
