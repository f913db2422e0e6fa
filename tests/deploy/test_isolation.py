"""Property: ``check-config`` is pure — it reads its input file and
nothing else. No filesystem writes, no sockets, no store connections,
even when the config *names* stores, sinks and webhooks that would
touch all three at launch.
"""

import builtins
import json
import socket

import pytest

import repro.cli
from tests.deploy.conftest import base_config, clean_rollout


@pytest.fixture
def config_file(tmp_path):
    data = base_config(
        # Name every externally-visible resource a config can name:
        # a remote store, a durable file sink, a network webhook.
        store={"url": "bucket://phook-prod", "cache_dir": "./cache"},
        sinks=[
            {"kind": "jsonl", "path": "alerts.jsonl"},
            {"kind": "webhook", "url": "https://alerts.example.com/h"},
        ],
        rollout=clean_rollout(),
    )
    path = tmp_path / "deploy.json"
    path.write_text(json.dumps(data))
    return path


def snapshot(root):
    return {p: p.stat().st_size for p in root.rglob("*") if p.is_file()}


def test_check_config_has_no_side_effects(
    config_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)

    # Any socket construction is a hard failure (webhook sinks, bucket
    # backends, anything network).
    def no_socket(*args, **kwargs):
        raise AssertionError("check-config opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)

    # Any store construction is a hard failure: the analyser must judge
    # store.url textually, never connect to it.
    from repro.artifacts import store as store_module

    def no_store(*args, **kwargs):
        raise AssertionError("check-config constructed a ModelStore")

    monkeypatch.setattr(store_module.ModelStore, "__init__", no_store)
    monkeypatch.setattr(store_module.ModelStore, "from_url", no_store)

    # Any write/append/create open() is a hard failure.
    real_open = builtins.open
    writes = []

    def guarded_open(file, mode="r", *args, **kwargs):
        if any(flag in str(mode) for flag in ("w", "a", "x", "+")):
            writes.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)

    before = snapshot(tmp_path)
    exit_code = repro.cli.main(["check-config", str(config_file)])
    out = capsys.readouterr().out
    after = snapshot(tmp_path)

    assert exit_code == 0
    assert "topology is clean" in out
    assert writes == [], f"check-config opened files for writing: {writes}"
    assert after == before, "check-config changed the filesystem"


def test_check_config_on_violating_config_is_still_pure(
    tmp_path, monkeypatch, capsys
):
    data = base_config(
        store={"url": "bucket://phook-prod"},
        stream={"policy": "drop_newest", "deadline_seconds": 0.0},
        sinks=[{"kind": "webhook", "url": "https://alerts.example.com/h"}],
        rollout=clean_rollout(candidate="production"),
    )
    path = tmp_path / "deploy.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)

    def no_socket(*args, **kwargs):
        raise AssertionError("check-config opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)

    before = snapshot(tmp_path)
    exit_code = repro.cli.main(["check-config", "--json", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert report["ok"] is False
    assert {"D001", "D005", "D010"} <= {
        v["rule_id"] for v in report["violations"]
    }
    assert snapshot(tmp_path) == before
