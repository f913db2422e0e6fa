"""Rule-engine coverage: every rule has a trigger and a pass fixture.

``FIXTURES`` maps each rule ID to a (triggering, passing) pair of
override dicts over the clean base config; a completeness test pins
the map to the catalog so adding a rule without fixtures fails here.
"""

import pathlib

import pytest

from repro.deploy import ERROR, RULES, WARN, check_config, parse_config
from tests.deploy.conftest import base_config, clean_rollout

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def rollout(**overrides) -> dict:
    section = clean_rollout()
    section.update(overrides)
    return section


#: rule_id -> (overrides that trigger it, overrides that do not).
FIXTURES = {
    # drop_newest sheds the freshest deployments in front of a durable sink
    "D001": (
        dict(stream={"policy": "drop_newest"},
             sinks=[{"kind": "webhook", "url": "https://example.com/h"}]),
        dict(stream={"policy": "block"},
             sinks=[{"kind": "webhook", "url": "https://example.com/h"}]),
    ),
    # drop_oldest sheds history out of an append-only audit trail
    "D002": (
        dict(stream={"policy": "drop_oldest"},
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
        dict(stream={"policy": "drop_oldest"},
             sinks=[{"kind": "memory"}]),
    ),
    # feature cache smaller than one flush cycle's working set
    "D003": (
        dict(serve={"cache_entries": 12}, stream={"batch_size": 16}),
        dict(serve={"cache_entries": 8192}, stream={"batch_size": 16}),
    ),
    # cache holds barely one flush cycle (>= working set, < 2x)
    "D004": (
        dict(serve={"cache_entries": 24}, stream={"batch_size": 16}),
        dict(serve={"cache_entries": 64}, stream={"batch_size": 16}),
    ),
    # candidate and production name the same ref: no-op rollout
    "D005": (
        dict(rollout=rollout(candidate="production")),
        dict(rollout=rollout()),
    ),
    # bucket:// store, worker fleet, no local artifact cache
    "D006": (
        dict(store={"url": "bucket://phook-prod"}, fleet={"workers": 3}),
        dict(store={"url": "bucket://phook-prod",
                    "cache_dir": "./phook-cache"},
             fleet={"workers": 3}),
    ),
    # sample backpressure on a replay timeline is nondeterministic
    "D007": (
        dict(stream={"policy": "sample"},
             source={"mode": "replay"}),
        dict(stream={"policy": "drop_oldest"},
             source={"mode": "replay"}),
    ),
    # block policy can never fill a batch bigger than the queue
    "D008": (
        dict(stream={"policy": "block", "queue": 8, "batch_size": 16}),
        dict(stream={"policy": "block", "queue": 16, "batch_size": 16}),
    ),
    # drop policy sheds before a batch can fill
    "D009": (
        dict(stream={"policy": "drop_oldest", "queue": 8,
                     "batch_size": 16}),
        dict(stream={"policy": "drop_oldest", "queue": 256,
                     "batch_size": 16}),
    ),
    # drop policy with deadline flushing disabled: unbounded latency
    "D010": (
        dict(stream={"policy": "drop_oldest", "deadline_seconds": 0.0}),
        dict(stream={"policy": "drop_oldest", "deadline_seconds": 0.25}),
    ),
    # deadline shorter than one inter-event gap at the replay rate
    "D011": (
        dict(stream={"deadline_seconds": 0.25}, source={"rate": 1.0}),
        dict(stream={"deadline_seconds": 0.25}, source={"rate": 100.0}),
    ),
    # abort floor at/above the promote bar: no decision band
    "D012": (
        dict(rollout=rollout(abort_agreement=0.99,
                             promote_agreement=0.98)),
        dict(rollout=rollout()),
    ),
    # evidence floor above the campaign size: rollout can never decide
    "D013": (
        dict(rollout=rollout(min_events=500),
             source={"contracts": 200}),
        dict(rollout=rollout(min_events=100),
             source={"contracts": 200}),
    ),
    # promotion through a memory:// store dies with the process
    "D014": (
        dict(store={"url": "memory://x"}, rollout=rollout()),
        dict(store={"url": "./phook-models"}, rollout=rollout()),
    ),
    # no sinks: alerts are computed and discarded
    "D015": (
        dict(sinks=[]),
        dict(sinks=[{"kind": "memory"}]),
    ),
    # batch_size=1: every event its own flush, no vectorization
    "D016": (
        dict(stream={"batch_size": 1}),
        dict(stream={"batch_size": 16}),
    ),
    # worker processes cannot reach an in-process memory:// store
    "D017": (
        dict(store={"url": "memory://x"}, fleet={"workers": 3}),
        dict(store={"url": "./phook-models"}, fleet={"workers": 3}),
    ),
    # shed overflow silently drops alerts from a lossless topology
    "D019": (
        dict(fleet={"workers": 3, "overflow": "shed"},
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
        dict(fleet={"workers": 3, "overflow": "block"},
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
    ),
    # supervised respawn cold-pulls a remote store on every restart
    "D021": (
        dict(fleet={"workers": 3},
             store={"url": "bucket://phook-prod"},
             fault_tolerance={"respawn": True}),
        dict(fleet={"workers": 3},
             store={"url": "bucket://phook-prod",
                    "cache_dir": "./phook-cache"},
             fault_tolerance={"respawn": True}),
    ),
    # dead-letter spool inside the (often read-only) store root
    "D022": (
        dict(fault_tolerance={
            "dead_letter_path": "./phook-models/dead.jsonl"}),
        dict(fault_tolerance={
            "dead_letter_path": "./spool/dead.jsonl"}),
    ),
    # heartbeat slower than the request timeout detects nothing first
    "D023": (
        dict(fleet={"workers": 3, "request_timeout": 5.0},
             fault_tolerance={"heartbeat_seconds": 5.0}),
        dict(fleet={"workers": 3, "request_timeout": 5.0},
             fault_tolerance={"heartbeat_seconds": 0.5}),
    ),
    # circuit-open webhook deliveries vanish without a dead-letter path
    "D024": (
        dict(sinks=[{"kind": "webhook", "url": "https://example.com/h"}],
             fault_tolerance={}),
        dict(sinks=[{"kind": "webhook", "url": "https://example.com/h"}],
             fault_tolerance={
                 "dead_letter_path": "./spool/dead.jsonl"}),
    ),
    # autonomous promotions with no durable channel telling anyone
    "D026": (
        dict(loop={}, sinks=[{"kind": "memory"}]),
        dict(loop={}, sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
    ),
    # drift window below the shadow's evidence floor: loop stalls
    "D027": (
        dict(loop={"window": 64, "blocks": 8},
             rollout=rollout(min_events=100),
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
        dict(loop={"window": 256, "blocks": 8},
             rollout=rollout(min_events=100),
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
    ),
    # declared model family has no fitted state to warm-start
    "D028": (
        dict(loop={"model_family": "k-NN"},
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
        dict(loop={"model_family": "Random Forest"},
             sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}]),
    ),
}


def fired(overrides) -> set[str]:
    config = parse_config(base_config(**overrides), origin="<fixture>")
    return {v.rule_id for v in check_config(config).violations}


def test_catalog_and_fixtures_agree():
    assert set(FIXTURES) == {rule.rule_id for rule in RULES}


def test_catalog_has_at_least_twelve_distinct_rules():
    ids = [rule.rule_id for rule in RULES]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 12
    assert all(rule.severity in (ERROR, WARN) for rule in RULES)


def test_base_config_is_clean():
    assert fired({}) == set()


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_triggers_on_its_fixture(rule_id):
    trigger, _ = FIXTURES[rule_id]
    assert rule_id in fired(trigger)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_passes_on_its_counter_fixture(rule_id):
    _, passing = FIXTURES[rule_id]
    assert rule_id not in fired(passing)


def test_cache_rules_size_one_flush_not_one_per_shard():
    """A flush scores ``batch_size`` events in one service call, so 40
    entries hold 2.5 flushes of 16: D003 and D004 both pass (the
    scanner test ``test_d003_fires_exactly_where_the_hit_rate_falls``
    measures the boundary)."""
    assert not {"D003", "D004"} & fired(dict(
        serve={"cache_entries": 40}, stream={"batch_size": 16}))


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_batches_of_one_warn_at_any_shard_count(shards):
    """A shard is now a scoring process: one in-process scanner, or a
    fleet of ``shards`` workers. Each still flushes ``batch_size``
    events per call, so batches of one warn on every topology."""
    overrides = dict(stream={"batch_size": 1, "queue": 256})
    if shards > 1:
        overrides["fleet"] = {"workers": shards}
    assert "D016" in fired(overrides)


def test_report_orders_errors_first():
    config = parse_config(
        base_config(
            stream={"policy": "drop_newest", "deadline_seconds": 0.0},
            sinks=[{"kind": "jsonl", "path": "a.jsonl"}],
        ),
        origin="<fixture>",
    )
    report = check_config(config)
    severities = [v.severity for v in report.violations]
    assert ERROR in severities
    first_warn = severities.index(WARN) if WARN in severities else len(
        severities)
    assert all(s == ERROR for s in severities[:first_warn])
    assert not report.ok
    as_dict = report.as_dict()
    assert as_dict["errors"] == len(report.errors)
    assert {v["rule_id"] for v in as_dict["violations"]} == {
        v.rule_id for v in report.violations
    }


def test_every_rule_is_documented():
    catalog = (REPO / "docs" / "configuration.md").read_text()
    for rule in RULES:
        assert rule.rule_id in catalog, (
            f"{rule.rule_id} missing from docs/configuration.md"
        )
        assert rule.title in catalog, (
            f"{rule.rule_id} title {rule.title!r} missing from "
            "docs/configuration.md"
        )
