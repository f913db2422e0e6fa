"""The loop as a config launches it, on an in-process ``memory://`` store.

A retrain runs in a forked child, but the parent registers the
candidate, so a store only the parent process can see works like any
other: the config passes verification and one drift → retrain → promote
cycle lands in that store.
"""

from repro.deploy import (
    build_loop,
    build_scanner,
    build_service,
    ensure_launchable,
    open_store,
    parse_config,
)
from repro.loop import read_history
from repro.stream import TimelineReplayer
from tests.loop.conftest import fit_production


def memory_loop_config(tmp_path):
    """The deterministic recipe of ``conftest.loop_harness`` as a config."""
    return parse_config({
        "store": {"url": f"memory://loop-{tmp_path.name}"},
        "model": {"tag": "production"},
        "serve": {"threshold": 0.5, "cache_entries": 8192},
        "stream": {"batch_size": 16, "queue": 256, "policy": "block",
                   "deadline_seconds": 0.25},
        "sinks": [{"kind": "jsonl",
                   "path": str(tmp_path / "loop-alerts.jsonl")}],
        "source": {"mode": "replay", "contracts": 240, "seed": 7},
        "rollout": {"candidate": "candidate", "production": "production",
                    "policy": "parity", "min_events": 60,
                    "promote_agreement": 0.90, "abort_agreement": 0.40,
                    "max_divergence": 0.25},
        "loop": {"window": 160, "blocks": 8, "check_every": 32,
                 "alpha": 0.05, "min_effect": 0.2, "confirm_checks": 2,
                 "grow": 20, "holdout": 0.25,
                 "model_family": "Random Forest"},
    }, origin="<memory-loop>")


def test_memory_store_loop_passes_check_and_promotes(
        tmp_path, base_corpus, drift_corpus, label_oracle):
    config = memory_loop_config(tmp_path)
    assert config.store.scheme == "memory"
    ensure_launchable(config)

    store = open_store(config)
    store.put(fit_production(base_corpus), model_name="Random Forest",
              tags=("production",))
    production_before = store.resolve("production")
    scanner = build_scanner(config, build_service(config, store=store))
    loop = build_loop(config, scanner, store, label_of=label_oracle.get)
    replayer = TimelineReplayer(scanner, rate=None)
    try:
        replayer.replay_records(
            [r for r in base_corpus.records if r.bytecode])
        replayer.replay_records(
            [r for r in drift_corpus.records if r.bytecode])
        scanner.flush()
    finally:
        loop.detach()
        scanner.close()

    history = read_history(store)
    assert [entry["event"] for entry in history] == [
        "drift", "retrain", "promote",
    ]
    candidate = history[1]["candidate"]
    assert history[1]["base"] == production_before
    assert store.resolve("candidate") == candidate
    assert store.resolve("production") == candidate
    assert scanner.service.artifact_digest == candidate
