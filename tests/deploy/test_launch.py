"""Config-driven launch: verified files start, ERROR files refuse.

End-to-end through ``repro.cli.main`` — the same entry points CI and
the runbook exercise — plus the argparse-level knob validation.
"""

import dataclasses
import json
import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.deploy import (
    DeploymentBlockedError,
    check_config,
    ensure_launchable,
    load_config,
    parse_config,
)
from tests.deploy.conftest import base_config, clean_rollout


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """A file store with production + candidate tags, trained once."""
    store_dir = tmp_path_factory.mktemp("store")
    exit_code = repro.cli.main([
        "train", "--contracts", "80", "--store", str(store_dir),
        "--tag", "production", "--tag", "candidate",
    ])
    assert exit_code == 0
    return store_dir


def write_config(tmp_path, **overrides):
    path = tmp_path / "deploy.json"
    path.write_text(json.dumps(base_config(**overrides)))
    return path


class TestEnsureLaunchable:
    def test_clean_config_returns_report(self):
        config = parse_config(base_config(), origin="<test>")
        report = ensure_launchable(config)
        assert report.ok

    def test_error_config_raises_with_report(self):
        config = parse_config(
            base_config(stream={"policy": "drop_newest"},
                        sinks=[{"kind": "jsonl", "path": "a.jsonl"}]),
            origin="<test>",
        )
        with pytest.raises(DeploymentBlockedError) as excinfo:
            ensure_launchable(config)
        assert "D001" in str(excinfo.value)
        assert not excinfo.value.report.ok


class TestMonitorConfig:
    def test_monitor_launches_from_clean_config(
        self, tmp_path, trained_store, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path,
            store={"url": str(trained_store)},
            source={"contracts": 80},
            sinks=[{"kind": "memory"},
                   {"kind": "jsonl", "path": "alerts.jsonl"}],
        )
        exit_code = repro.cli.main(["monitor", "--config", str(config)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "replayed" in out
        assert "sink jsonl" in out
        assert (tmp_path / "alerts.jsonl").exists()

    def test_monitor_refuses_error_config(
        self, tmp_path, trained_store, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path,
            store={"url": str(trained_store)},
            serve={"cache_entries": 4},  # D003 vs a 16-event flush
            sinks=[{"kind": "jsonl", "path": "alerts.jsonl"}],
        )
        exit_code = repro.cli.main(["monitor", "--config", str(config)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "D003" in captured.err
        assert "refusing to launch" in captured.err
        assert not (tmp_path / "alerts.jsonl").exists(), (
            "refused launch must not touch sinks"
        )

    @pytest.mark.parametrize("flags, rule", [
        # queue 256 < batch 512 under block: today's flags must not be
        # silently rewritten to queue = max(batch, queue).
        (["--batch-size", "512"], "D008"),
        (["--policy", "drop_oldest", "--deadline", "0"], "D010"),
    ])
    def test_monitor_refuses_error_flags(
        self, flags, rule, tmp_path, trained_store, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        exit_code = repro.cli.main([
            "monitor", "--store", str(trained_store),
            "--model-tag", "production", "--jsonl", "alerts.jsonl", *flags,
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert rule in captured.err
        assert "refusing to launch" in captured.err
        assert not (tmp_path / "alerts.jsonl").exists()

    def test_sharded_monitor_pulls_its_artifact_once(
        self, tmp_path, trained_store, monkeypatch, capsys
    ):
        """Why rule D006 needs a [fleet]: a monitor is one process with
        one scan service, so on a bucket:// store without a cache_dir it
        still pulls the artifact exactly once."""
        from repro.artifacts import ModelStore
        from repro.artifacts.backends import ObjectStoreBackend

        model, manifest = ModelStore.from_url(str(trained_store)).load(
            "production")
        bucket = f"bucket://{tmp_path / 'bucket'}"
        version = ModelStore.from_url(bucket).put(
            model, model_name=manifest["model_name"], tags=("production",))
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path,
            store={"url": bucket},
            source={"contracts": 80},
        )
        assert "D006" not in {
            v.rule_id for v in check_config(load_config(config)).violations
        }

        pulls = []
        get = ObjectStoreBackend.get

        def spy(backend, key):
            pulls.append(key)
            return get(backend, key)

        monkeypatch.setattr(ObjectStoreBackend, "get", spy)
        exit_code = repro.cli.main(["monitor", "--config", str(config)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "micro-batches" in out
        assert [key for key in pulls if key.endswith(".npz")] == [
            f"objects/{version}.npz"
        ]

    def test_monitor_reports_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "broken.toml"
        bad.write_text("[stream\nbatch_size = ")
        exit_code = repro.cli.main(["monitor", "--config", str(bad)])
        assert exit_code == 2
        assert "broken.toml" in capsys.readouterr().err


class TestRolloutConfig:
    def test_rollout_start_from_config(
        self, tmp_path, trained_store, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        config = write_config(
            tmp_path,
            store={"url": str(trained_store)},
            source={"contracts": 80},
            rollout=clean_rollout(min_events=10, promote_agreement=0.9,
                                  abort_agreement=0.5,
                                  max_divergence=0.5),
        )
        exit_code = repro.cli.main(
            ["rollout", "start", "--config", str(config)]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "shadow-scored" in out
        assert "production" in out

    def test_rollout_start_refuses_inverted_band_flags(
        self, trained_store, capsys
    ):
        exit_code = repro.cli.main([
            "rollout", "--store", str(trained_store), "start",
            "--abort-agreement", "0.99",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "D012" in captured.err
        assert "refusing to launch" in captured.err

    def test_rollout_start_requires_rollout_section(
        self, tmp_path, trained_store, capsys
    ):
        config = write_config(
            tmp_path, store={"url": str(trained_store)}
        )
        exit_code = repro.cli.main(
            ["rollout", "start", "--config", str(config)]
        )
        assert exit_code == 2
        assert "[rollout]" in capsys.readouterr().err

    def test_rollout_start_refuses_noop_rollout(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            rollout=clean_rollout(candidate="production"),
        )
        exit_code = repro.cli.main(
            ["rollout", "start", "--config", str(config)]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "D005" in captured.err


class TestKnobValidation:
    @pytest.mark.parametrize("argv", [
        ["monitor", "--threshold", "0"],
        ["monitor", "--queue", "0"],
        ["monitor", "--batch-size", "0"],
        ["monitor", "--queue", "-1"],
        ["monitor", "--contracts", "0"],
        ["monitor", "--deadline", "-0.5"],
        ["monitor", "--rate", "-1"],
        ["rollout", "start", "--threshold", "0"],
        ["rollout", "start", "--batch-size", "-4"],
        ["rollout", "start", "--contracts", "0"],
        ["rollout", "start", "--min-events", "0"],
        # --contracts/--seed take source.contracts/source.seed's domain
        # on every command that builds a corpus.
        ["dataset", "--seed", "-1"],
        ["demo", "--seed", "-1"],
        ["train", "--seed", "-1"],
        ["scan", "random-phishing", "--seed", "-1"],
        ["monitor", "--seed", "-1"],
        ["rollout", "start", "--seed", "-1"],
        ["attack", "--seed", "-1"],
        ["calibrate", "--seed", "-1"],
        ["fleet", "scan", "random-phishing", "--seed", "-1"],
        ["dataset", "--contracts", "-4"],
        # Floats outside the knob's domain, NaN included.
        ["monitor", "--threshold", "nan"],
        ["monitor", "--threshold", "1.5"],
        ["rollout", "start", "--max-divergence", "nan"],
    ])
    def test_non_positive_knobs_rejected_at_parse_time(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected a" in err

    @pytest.mark.parametrize("argv", [
        ["monitor", "--batch-size", "8"],
        ["rollout", "start", "--batch-size", "1"],
    ])
    def test_positive_knobs_accepted(self, argv):
        args = repro.cli.build_parser().parse_args(argv)
        assert args.batch_size >= 1

    @pytest.mark.parametrize("argv", [
        ["monitor", "--shards", "2"],
        ["rollout", "start", "--shards", "2"],
    ])
    def test_shards_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "deploy"


class TestFlagConfigEquivalence:
    """A shipped example and the flag invocation its header names
    describe the same topology."""

    @pytest.mark.parametrize("name", ["monitor.toml", "rollout.toml"])
    def test_header_invocation_parses_to_the_file(self, name, monkeypatch):
        monkeypatch.delenv("PHOOK_MODEL_STORE", raising=False)
        path = EXAMPLES / name
        header = re.search(r"`phishinghook ([^`]+)`", path.read_text())
        args = repro.cli.build_parser().parse_args(
            shlex.split(header.group(1))
        )
        from_flags = parse_config(repro.cli._flag_config(args))
        from_file = load_config(path)
        assert dataclasses.replace(from_flags, origin="") == (
            dataclasses.replace(from_file, origin="")
        )

    def test_store_flag_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv("PHOOK_MODEL_STORE", "memory://env")
        parser = repro.cli.build_parser()
        args = parser.parse_args(["monitor", "--model-tag", "production"])
        assert repro.cli._flag_config(args)["store"] == {
            "url": "memory://env"
        }
        args = parser.parse_args(
            ["rollout", "--store", "./here", "start"]
        )
        assert repro.cli._flag_config(args)["store"] == {"url": "./here"}
