"""Perf-ledger gate: parsing, regression detection, committed baseline.

``benchmarks/ledger.py`` has no package on ``PYTHONPATH=src`` runs, so
it is loaded from its file path.
"""

import importlib.util
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "perf_ledger", REPO / "benchmarks" / "ledger.py"
)
ledger = importlib.util.module_from_spec(_spec)
# dataclasses resolves string annotations through sys.modules, so the
# module must be registered before exec.
sys.modules["perf_ledger"] = ledger
_spec.loader.exec_module(ledger)


def test_parse_summaries_extracts_tagged_json_lines():
    text = "\n".join([
        "collected 1 item",
        'COLD_START {"speedup": 40.0, "bit_identical": true}',
        "1 passed in 1.2s",
        'COLD_START {"speedup": 42.5}',  # later line wins
        "NOT_JSON {broken",
        "lower_case {\"ignored\": 1}",
    ])
    summaries = ledger.parse_summaries(text)
    assert summaries == {"COLD_START": {"speedup": 42.5}}


def test_tracked_metrics_cover_the_seven_gate_benches():
    tags = {metric.tag for metric in ledger.TRACKED}
    assert tags == {
        "SCAN_THROUGHPUT", "STREAM_LATENCY", "PREDICT_THROUGHPUT",
        "COLD_START", "SHADOW_ROLLOUT", "FLEET", "LOOP",
    }


def write_logs(tmp_path, **values):
    defaults = {
        "SCAN_THROUGHPUT": {"speedup_warm_vs_seed_loop": 50000.0},
        "STREAM_LATENCY": {"speedup_warm_vs_seed_poll": 70.0},
        "PREDICT_THROUGHPUT": {"speedup": 6.0},
        "COLD_START": {"speedup": 45.0, "mmap": 4.0},
        "SHADOW_ROLLOUT": {"overhead": 1.7},
        "FLEET": {"scaling": 1.8, "recovery": 1.2},
        "LOOP": {"warm_speedup": 7.0, "promotion_latency": 0.2},
    }
    for tag, payload in values.items():
        defaults[tag].update(payload)
    log = tmp_path / "bench.log"
    log.write_text("\n".join(
        f"{tag} {json.dumps(payload)}" for tag, payload in defaults.items()
    ))
    return log


def test_record_then_clean_check(tmp_path, capsys):
    log = write_logs(tmp_path)
    out = tmp_path / "baseline.json"
    assert ledger.main(["record", str(log), "--out", str(out)]) == 0
    assert ledger.main(
        ["check", str(log), "--baseline", str(out)]
    ) == 0
    baseline = json.loads(out.read_text())
    assert len(baseline["metrics"]) == len(ledger.TRACKED)


def test_check_fails_on_speedup_regression(tmp_path, capsys):
    out = tmp_path / "baseline.json"
    ledger.main(["record", str(write_logs(tmp_path)), "--out", str(out)])
    regressed = write_logs(
        tmp_path, COLD_START={"speedup": 45.0 * 0.7}  # -30% vs 20% band
    )
    assert ledger.main(
        ["check", str(regressed), "--baseline", str(out)]
    ) == 1
    assert "COLD_START.speedup" in capsys.readouterr().err


def test_check_fails_on_overhead_increase(tmp_path, capsys):
    out = tmp_path / "baseline.json"
    ledger.main(["record", str(write_logs(tmp_path)), "--out", str(out)])
    regressed = write_logs(
        tmp_path, SHADOW_ROLLOUT={"overhead": 1.7 * 1.3}
    )
    assert ledger.main(
        ["check", str(regressed), "--baseline", str(out)]
    ) == 1


def test_check_fails_when_a_tracked_metric_vanishes(tmp_path, capsys):
    out = tmp_path / "baseline.json"
    ledger.main(["record", str(write_logs(tmp_path)), "--out", str(out)])
    partial = tmp_path / "partial.log"
    partial.write_text('COLD_START {"speedup": 45.0}')
    assert ledger.main(
        ["check", str(partial), "--baseline", str(out)]
    ) == 1


def test_record_refuses_partial_logs_by_default(tmp_path, capsys):
    partial = tmp_path / "partial.log"
    partial.write_text('COLD_START {"speedup": 45.0}')
    out = tmp_path / "baseline.json"
    assert ledger.main(["record", str(partial), "--out", str(out)]) == 1
    assert ledger.main(
        ["record", str(partial), "--out", str(out), "--allow-missing"]
    ) == 0


def test_collect_merges_shared_tags_per_key(tmp_path):
    """bench_fleet and bench_fault_recovery both print ``FLEET {...}``
    (different keys, different logs); neither may clobber the other."""
    scaling = tmp_path / "fleet.log"
    scaling.write_text('FLEET {"scaling": 1.8, "clients": 4}')
    recovery = tmp_path / "fault.log"
    recovery.write_text('FLEET {"recovery": 1.2, "clients": 2}')
    merged = ledger.collect([str(scaling), str(recovery)])
    assert merged == {
        "FLEET": {"scaling": 1.8, "recovery": 1.2, "clients": 2},
    }


def test_committed_baseline_tracks_every_metric():
    baseline = json.loads((REPO / "BENCH_10.json").read_text())
    names = {metric.name for metric in ledger.TRACKED}
    assert set(baseline["metrics"]) == names
    for entry in baseline["metrics"].values():
        assert entry["value"] > 0
        assert entry["direction"] in ("higher", "lower")
