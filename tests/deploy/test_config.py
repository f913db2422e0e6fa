"""Parsing and per-knob domain validation of deployment files."""

import json
import textwrap

import pytest

from repro.deploy import ConfigError, load_config, parse_config
from tests.deploy.conftest import base_config, clean_rollout


def problems_of(excinfo) -> list[str]:
    return [f"{p.path}: {p.message}" for p in excinfo.value.problems]


class TestHappyPath:
    def test_defaults_fill_unset_sections(self, parsed):
        config = parsed()
        assert config.store.url == "./phook-models"
        assert config.store.scheme == "file"
        assert config.model.tag == "production"
        assert config.serve.cache_entries == 8192
        assert config.stream.policy == "block"
        assert config.stream.dedup_addresses is True
        assert config.source.mode == "replay"
        assert config.rollout is None

    def test_rollout_section_parsed_when_present(self, parsed):
        config = parsed(rollout=clean_rollout())
        assert config.rollout is not None
        assert config.rollout.candidate == "candidate"
        assert config.rollout.max_divergence == 0.05

    def test_as_dict_roundtrips_through_parse(self, parsed):
        config = parsed(rollout=clean_rollout())
        again = parse_config(config.as_dict(), origin="<roundtrip>")
        assert again.as_dict() == config.as_dict()

    def test_store_scheme_property(self, parsed):
        assert parsed(store={"url": "memory://x"}).store.scheme == "memory"
        assert parsed(store={"url": "bucket://b"}).store.scheme == "bucket"
        assert parsed(store={"url": "file:///tmp/s"}).store.scheme == "file"
        assert parsed(store={"url": "./plain/path"}).store.scheme == "file"


class TestRejections:
    def test_unknown_key_is_a_parse_error(self, parsed):
        with pytest.raises(ConfigError) as excinfo:
            parsed(serve={"cache_entires": 64})
        assert any("cache_entires" in p for p in problems_of(excinfo))

    def test_unknown_section_is_a_parse_error(self):
        data = base_config()
        data["srvee"] = {}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(data, origin="<test>")
        assert any("srvee" in p for p in problems_of(excinfo))

    def test_model_requires_tag_xor_path(self, parsed):
        with pytest.raises(ConfigError):
            parsed(model={"tag": "production", "path": "model.npz"})
        with pytest.raises(ConfigError):
            parsed(model={"tag": ""})

    @pytest.mark.parametrize(
        "section, bad",
        [
            ("serve", {"threshold": 0.0}),
            ("serve", {"threshold": 1.0}),
            ("serve", {"cache_entries": 0}),
            ("stream", {"shards": 2}),  # retired knob: unknown key
            ("stream", {"batch_size": -1}),
            ("stream", {"queue": 0}),
            ("stream", {"policy": "dropp_newest"}),
            ("stream", {"deadline_seconds": -0.5}),
            ("source", {"mode": "streaming"}),
            ("source", {"contracts": 1}),
            ("source", {"rate": -1.0}),
            ("loop", {"retrain": "subprocess"}),  # retired knob
        ],
    )
    def test_domain_violations(self, parsed, section, bad):
        with pytest.raises(ConfigError):
            parsed(**{section: bad})

    @pytest.mark.parametrize(
        "bad",
        [
            {"min_events": 0},
            {"promote_agreement": 1.0},
            {"abort_agreement": 0.0},
            {"max_divergence": 1.5},
            {"policy": "auto"},
        ],
    )
    def test_rollout_domain_violations(self, parsed, bad):
        section = clean_rollout()
        section.update(bad)
        with pytest.raises(ConfigError):
            parsed(rollout=section)

    def test_sink_cross_field_misuse(self, parsed):
        with pytest.raises(ConfigError):
            parsed(sinks=[{"kind": "jsonl"}])  # path required
        with pytest.raises(ConfigError):
            parsed(sinks=[{"kind": "webhook"}])  # url required
        with pytest.raises(ConfigError):
            parsed(sinks=[{"kind": "memory", "path": "x.jsonl"}])
        with pytest.raises(ConfigError):
            parsed(sinks=[{"kind": "jsonl", "path": "x", "url": "http://x"}])
        with pytest.raises(ConfigError):
            parsed(sinks=[{"kind": "kafka"}])

    def test_unknown_store_scheme(self, parsed):
        with pytest.raises(ConfigError):
            parsed(store={"url": "s3://bucket"})

    def test_all_problems_reported_in_one_pass(self):
        data = base_config(
            serve={"threshold": 2.0},
            stream={"batch_size": 0, "policy": "bogus"},
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(data, origin="<test>")
        paths = {p.path for p in excinfo.value.problems}
        assert {"serve.threshold", "stream.batch_size",
                "stream.policy"} <= paths
        as_dict = excinfo.value.as_dict()
        assert as_dict["ok"] is False
        assert len(as_dict["problems"]) >= 3


class TestLoopSection:
    def test_absent_section_means_no_loop(self, parsed):
        assert parsed().loop is None

    def test_defaults_fill_unset_keys(self, parsed):
        config = parsed(loop={})
        assert config.loop is not None
        assert config.loop.window == 256
        assert config.loop.blocks == 8
        assert config.loop.check_every == 64
        assert config.loop.alpha == 0.05
        assert config.loop.confirm_checks == 2
        assert config.loop.grow == 40
        assert config.loop.candidate == "candidate"

    def test_as_dict_roundtrips_loop(self, parsed):
        config = parsed(loop={"window": 320, "blocks": 8, "grow": 25})
        again = parse_config(config.as_dict(), origin="<roundtrip>")
        assert again.loop == config.loop

    @pytest.mark.parametrize(
        "bad",
        [
            {"window": 2},                     # below the minimum
            {"window": 10, "blocks": 8},       # window < 2 x blocks
            {"window": 100, "blocks": 8},      # not divisible by blocks
            {"blocks": 1},
            {"check_every": 0},
            {"alpha": 0.0},                    # exclusive bounds
            {"alpha": 1.0},
            {"min_effect": 1.5},
            {"min_effect": -0.1},
            {"confirm_checks": 0},
            {"grow": 0},
            {"holdout": 0.0},
            {"holdout": 1.0},
            {"candidate": ""},
            {"retrain": "thread"},             # retired knob
            {"unknown_knob": 1},
        ],
    )
    def test_loop_domain_violations(self, parsed, bad):
        with pytest.raises(ConfigError):
            parsed(loop=bad)

    def test_window_blocks_violation_names_the_constraint(self, parsed):
        with pytest.raises(ConfigError) as excinfo:
            parsed(loop={"window": 10, "blocks": 8})
        assert any("2 x loop.blocks" in p for p in problems_of(excinfo))

    def test_non_table_section_rejected(self):
        data = base_config()
        data["loop"] = "yes please"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(data, origin="<test>")
        assert any(p.startswith("loop:") for p in problems_of(excinfo))


class TestLoadConfig:
    def test_toml_and_json_parse_identically(self, tmp_path):
        toml_file = tmp_path / "deploy.toml"
        toml_file.write_text(textwrap.dedent("""\
            [store]
            url = "./phook-models"

            [model]
            tag = "production"

            [stream]
            batch_size = 8

            [[sinks]]
            kind = "jsonl"
            path = "alerts.jsonl"
        """))
        json_file = tmp_path / "deploy.json"
        json_file.write_text(json.dumps({
            "store": {"url": "./phook-models"},
            "model": {"tag": "production"},
            "stream": {"batch_size": 8},
            "sinks": [{"kind": "jsonl", "path": "alerts.jsonl"}],
        }))
        from_toml, from_json = load_config(toml_file), load_config(json_file)
        assert from_toml.stream.batch_size == from_json.stream.batch_size == 8
        assert from_toml.sinks[0].path == from_json.sinks[0].path
        assert from_toml.origin.endswith("deploy.toml")

    def test_toml_syntax_error_is_config_error(self, tmp_path):
        bad = tmp_path / "broken.toml"
        bad.write_text("[store\nurl = nope")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.toml")

    def test_unsupported_suffix_is_config_error(self, tmp_path):
        other = tmp_path / "deploy.yaml"
        other.write_text("store: {}")
        with pytest.raises(ConfigError):
            load_config(other)
