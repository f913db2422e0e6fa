"""The ``phishinghook rollout`` workflow across CLI process boundaries."""

import json

import pytest

from repro.artifacts import ModelStore
from repro.cli import main


@pytest.fixture(scope="module")
def stocked(tmp_path_factory):
    """Three real ``train`` runs: production, a parity candidate (same
    corpus, smaller holdout), and a distribution-shifted regression
    candidate (different corpus seed)."""
    root = tmp_path_factory.mktemp("rollout-cli") / "store"
    url = str(root)
    runs = (
        (["--seed", "0"], "production"),
        (["--seed", "0", "--holdout", "0.15"], "parity"),
        (["--seed", "1"], "shifted"),
    )
    for extra, tag in runs:
        code = main([
            "train", "--model", "Random Forest", "--contracts", "80",
            "--tag", tag, "--store", url, *extra,
        ])
        assert code == 0
    store = ModelStore(url)
    tags = store.tags()
    return url, tags["production"], tags["parity"], tags["shifted"]


def reset_tags(url, production, candidate):
    store = ModelStore(url)
    store.tag("production", production)
    store.tag("candidate", candidate)


def test_start_with_manual_policy_holds(stocked, capsys):
    url, production, parity, __ = stocked
    reset_tags(url, production, parity)
    code = main([
        "rollout", "--store", url, "start",
        "--contracts", "80", "--policy", "manual",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "shadow-scored" in out
    assert "0 dropped" in out
    assert "state      shadowing" in out
    assert "holding" in out
    assert ModelStore(url).tags()["production"] == production


def test_status_reads_persisted_record(stocked, capsys):
    url, production, parity, __ = stocked
    reset_tags(url, production, parity)
    main([
        "rollout", "--store", url, "start",
        "--contracts", "80", "--policy", "manual",
    ])
    capsys.readouterr()
    code = main(["rollout", "--store", url, "status", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["state"] == "shadowing"
    assert record["candidate_version"] == parity
    assert record["comparison"]["events"] > 0
    assert record["policy"]["policy"] == "ManualHoldPolicy"


def test_operator_promote_retags_production(stocked, capsys):
    url, production, parity, __ = stocked
    reset_tags(url, production, parity)
    main([
        "rollout", "--store", url, "start",
        "--contracts", "80", "--policy", "manual",
    ])
    capsys.readouterr()
    code = main(["rollout", "--store", url, "promote"])
    out = capsys.readouterr().out
    assert code == 0
    assert "production ->" in out
    assert ModelStore(url).tags()["production"] == parity
    # A decided rollout cannot be decided again.
    assert main(["rollout", "--store", url, "abort"]) == 2


def test_parity_policy_auto_promotes_with_defaults(stocked, capsys):
    url, production, parity, __ = stocked
    reset_tags(url, production, parity)
    code = main(["rollout", "--store", url, "start", "--contracts", "80"])
    out = capsys.readouterr().out
    assert code == 0
    assert "promoted: tag 'production'" in out
    assert "zero dropped batches" in out
    assert ModelStore(url).tags()["production"] == parity


def test_regressed_candidate_auto_aborts(stocked, capsys):
    url, production, __, shifted = stocked
    reset_tags(url, production, shifted)
    code = main(["rollout", "--store", url, "start", "--contracts", "80"])
    out = capsys.readouterr().out
    assert code == 0
    assert "state      aborted" in out
    assert "regression" in out
    assert "production serving untouched" in out
    assert ModelStore(url).tags()["production"] == production


def test_start_resumes_evidence_for_same_pair(stocked, capsys):
    url, production, parity, __ = stocked
    reset_tags(url, production, parity)
    main([
        "rollout", "--store", url, "start",
        "--contracts", "80", "--policy", "manual",
    ])
    capsys.readouterr()
    main(["rollout", "--store", url, "status", "--json"])
    first = json.loads(capsys.readouterr().out)["comparison"]["events"]
    code = main([
        "rollout", "--store", url, "start",
        "--contracts", "80", "--policy", "manual",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"resuming shadow evidence: {first} events" in out
    main(["rollout", "--store", url, "status", "--json"])
    second = json.loads(capsys.readouterr().out)["comparison"]["events"]
    assert second == 2 * first  # the reruns accumulate, not restart


def test_abort_leaves_production_untouched(stocked, capsys):
    url, production, parity, __ = stocked
    reset_tags(url, production, parity)
    main([
        "rollout", "--store", url, "start",
        "--contracts", "80", "--policy", "manual",
    ])
    capsys.readouterr()
    assert main(["rollout", "--store", url, "abort"]) == 0
    assert "aborted" in capsys.readouterr().out
    assert ModelStore(url).tags()["production"] == production


def test_status_without_rollout_fails(tmp_path, capsys):
    empty = tmp_path / "empty-store"
    assert main(["rollout", "--store", str(empty), "status"]) == 1
    assert "no rollout" in capsys.readouterr().err
