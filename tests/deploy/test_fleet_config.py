"""[fleet] section parsing, sink delivery timeouts, launch refusal."""

import pytest

import repro.cli
from repro.deploy import ConfigError, parse_config
from tests.deploy.conftest import base_config


def problems_of(excinfo) -> list[str]:
    return [f"{p.path}: {p.message}" for p in excinfo.value.problems]


class TestFleetSection:
    def test_absent_section_parses_to_none(self):
        assert parse_config(base_config()).fleet is None

    def test_defaults(self):
        fleet = parse_config(base_config(fleet={})).fleet
        assert fleet.workers == 2
        assert fleet.queue_depth == 4
        assert fleet.overflow == "shed"
        assert fleet.host == "127.0.0.1"
        assert fleet.port == 0

    def test_full_section_roundtrips(self):
        config = parse_config(base_config(
            stream={"batch_size": 8},
            fleet={"workers": 4, "queue_depth": 8, "overflow": "block",
                   "mmap": True, "host": "0.0.0.0",
                   "port": 8900},
        ))
        assert config.fleet.workers == 4
        assert config.fleet.overflow == "block"
        again = parse_config(config.as_dict(), origin="<roundtrip>")
        assert again.as_dict() == config.as_dict()

    @pytest.mark.parametrize("overrides, needle", [
        ({"workers": 0}, "fleet.workers"),
        ({"queue_depth": 0}, "fleet.queue_depth"),
        ({"overflow": "explode"}, "fleet.overflow"),
        # Retired feature-plane knobs are unknown keys now.
        ({"slots": 64}, "fleet.slots"),
        ({"slot_bytes": 65536}, "fleet.slot_bytes"),
        ({"host": ""}, "fleet.host"),
        ({"port": 70000}, "fleet.port"),
        ({"wrokers": 2}, "fleet.wrokers"),
        ({"shared_cache": True}, "fleet.shared_cache"),
        ({"ship_features": True}, "fleet.ship_features"),
    ])
    def test_domain_violations_rejected(self, overrides, needle):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base_config(fleet=overrides))
        assert any(needle in p for p in problems_of(excinfo))

    def test_non_table_section_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base_config(fleet="yes please"))
        assert any("fleet" in p for p in problems_of(excinfo))


class TestSinkTimeout:
    def test_webhook_timeout_accepted(self):
        config = parse_config(base_config(
            sinks=[{"kind": "webhook", "url": "https://example.com/h",
                    "timeout": 0.5}],
        ))
        assert config.sinks[0].timeout == 0.5

    def test_webhook_timeout_defaults(self):
        config = parse_config(base_config(
            sinks=[{"kind": "webhook", "url": "https://example.com/h"}],
        ))
        assert config.sinks[0].timeout == 2.0

    @pytest.mark.parametrize("kind, extra", [
        ("memory", {}),
        ("jsonl", {"path": "alerts.jsonl"}),
    ])
    def test_non_webhook_timeout_rejected(self, kind, extra):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base_config(
                sinks=[{"kind": kind, "timeout": 1.0, **extra}],
            ))
        assert any("delivery timeout" in p for p in problems_of(excinfo))

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base_config(
                sinks=[{"kind": "webhook", "url": "https://x.example/h",
                        "timeout": 0.0}],
            ))
        assert any("timeout" in p for p in problems_of(excinfo))


class TestLaunchRefusal:
    """Fleet ERROR rules must block launch with exit 2, before anything
    forks, binds, or loads a model."""

    @pytest.fixture
    def fleet_error_config(self, tmp_path):
        path = tmp_path / "bad-fleet.toml"
        path.write_text(
            '[store]\nurl = "memory://x"\n\n'
            '[model]\ntag = "production"\n\n'
            '[[sinks]]\nkind = "memory"\n\n'
            '[fleet]\nworkers = 3\n',
            encoding="utf-8",
        )
        return path

    def test_check_config_reports_the_error(self, fleet_error_config,
                                            capsys):
        exit_code = repro.cli.main(
            ["check-config", str(fleet_error_config)]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "D017" in out

    def test_fleet_serve_refuses_with_exit_2(self, fleet_error_config,
                                             capsys):
        exit_code = repro.cli.main(
            ["fleet", "serve", "--config", str(fleet_error_config)]
        )
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "D017" in err
        assert "refusing to launch" in err

    def test_fleet_serve_requires_a_fleet_section(self, tmp_path,
                                                  capsys):
        path = tmp_path / "no-fleet.toml"
        path.write_text(
            '[model]\ntag = "production"\n\n'
            '[[sinks]]\nkind = "memory"\n',
            encoding="utf-8",
        )
        exit_code = repro.cli.main(["fleet", "serve", "--config",
                                    str(path)])
        assert exit_code == 2
        assert "[fleet] section" in capsys.readouterr().err
