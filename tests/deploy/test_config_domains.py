"""Exact problem text per check kind, non-finite floats, undecodable
files, and the domain constants the parser mirrors from other layers."""

import json

import pytest

import repro.cli
from repro.deploy import ConfigError, load_config, parse_config
from repro.deploy.config import STREAM_POLICIES, WARM_START_FAMILIES
from tests.deploy.conftest import base_config


def problems_of(excinfo) -> list[str]:
    return [f"{p.path}: {p.message}" for p in excinfo.value.problems]


# One violation per check kind; operators and scripts read these
# strings, so they are pinned word for word.
PINNED = [
    ("wrong-type-int", {"serve": {"cache_entries": "64"}},
     "serve.cache_entries: expected an integer, got '64'"),
    ("wrong-type-float", {"serve": {"threshold": True}},
     "serve.threshold: expected a number, got True"),
    ("wrong-type-bool", {"stream": {"dedup_addresses": 1}},
     "stream.dedup_addresses: expected true/false, got 1"),
    ("wrong-type-string", {"sinks": [{"kind": "memory", "path": 3}]},
     "sinks[0].path: expected a string, got 3"),
    ("below-minimum", {"stream": {"batch_size": 0}},
     "stream.batch_size: must be >= 1, got 0"),
    ("below-minimum-float", {"source": {"rate": -1}},
     "source.rate: must be >= 0.0, got -1.0"),
    ("above-maximum", {"fleet": {"port": 70000}},
     "fleet.port: must be <= 65535, got 70000"),
    ("above-maximum-float", {"loop": {"min_effect": 1.5}},
     "loop.min_effect: must be <= 1.0, got 1.5"),
    ("exclusive-upper", {"serve": {"threshold": 1}},
     "serve.threshold: must be < 1.0, got 1.0"),
    ("exclusive-lower",
     {"sinks": [{"kind": "webhook", "url": "https://x.example/h",
                 "timeout": 0}]},
     "sinks[0].timeout: must be > 0.0, got 0.0"),
    ("bad-choice", {"stream": {"policy": "bogus"}},
     "stream.policy: 'bogus' is not one of 'block', 'drop_oldest', "
     "'drop_newest', 'sample'"),
    ("missing-sink-kind", {"sinks": [{}]},
     "sinks[0].kind: '' is not one of 'memory', 'jsonl', 'webhook'"),
    ("empty-string", {"fleet": {"host": ""}},
     "fleet.host: must not be empty"),
    ("unknown-key", {"serve": {"cache_entires": 64}},
     "serve.cache_entires: unknown key"),
    ("unknown-section", {"srvee": {}}, "srvee: unknown section"),
    ("retired-shards-knob", {"stream": {"shards": 2}},
     "stream.shards: unknown key"),
    ("retired-retrain-knob", {"loop": {"retrain": "subprocess"}},
     "loop.retrain: unknown key"),
    ("live-source", {"source": {"mode": "live"}},
     "source.mode: 'live' is not one of 'replay'"),
    ("non-table-section", {"loop": "yes please"},
     "loop: expected a table/object, got 'yes please'"),
    ("non-array-sinks", {"sinks": {"kind": "memory"}},
     "sinks: expected an array of tables, got {'kind': 'memory'}"),
    ("non-table-sink", {"sinks": ["memory"]},
     "sinks[0]: expected a table/object, got 'memory'"),
    ("store-scheme", {"store": {"url": "s3://bucket"}},
     "store.url: unknown scheme 's3'; supported: file://, memory://, "
     "bucket://, http://, https://"),
    ("model-tag-and-path", {"model": {"tag": "production",
                                      "path": "model.npz"}},
     "model.tag: mutually exclusive with model.path — pick one source"),
    ("model-unnamed", {"model": {"tag": ""}},
     "model.tag: a deployment must name its model: set tag or path"),
    ("sink-needs-path", {"sinks": [{"kind": "jsonl"}]},
     "sinks[0].path: jsonl sink needs a file path"),
    ("sink-timeout-not-webhook", {"sinks": [{"kind": "memory",
                                             "timeout": 1.0}]},
     "sinks[0].timeout: only webhook sinks take a delivery timeout"),
    ("loop-window-below-blocks", {"loop": {"window": 10, "blocks": 8}},
     "loop.window: must be >= 2 x loop.blocks (16), got 10"),
    ("loop-window-indivisible", {"loop": {"window": 100, "blocks": 8}},
     "loop.window: must be divisible by loop.blocks=8, got 100"),
]


@pytest.mark.parametrize(
    "overrides, expected", [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_problem_text_is_pinned(overrides, expected):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(base_config(**overrides))
    assert problems_of(excinfo) == [expected]


class TestNonFiniteFloats:
    """NaN passes every ``<``/``>`` bound; a NaN threshold would make
    ``p >= threshold`` false for every contract and lose every alert."""

    @pytest.mark.parametrize("name, text, expected", [
        ("deploy.toml",
         '[model]\ntag = "production"\n\n[serve]\nthreshold = nan\n',
         "serve.threshold: must be a finite number, got nan"),
        ("deploy.json",
         '{"model": {"tag": "production"}, "serve": {"threshold": NaN}}',
         "serve.threshold: must be a finite number, got nan"),
        ("deploy.toml",
         '[model]\ntag = "production"\n\n[stream]\ndeadline_seconds = inf\n',
         "stream.deadline_seconds: must be a finite number, got inf"),
        ("deploy.json",
         '{"model": {"tag": "production"}, "loop": {"alpha": NaN}}',
         "loop.alpha: must be a finite number, got nan"),
    ])
    def test_file_with_non_finite_float_is_rejected(
        self, tmp_path, name, text, expected
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert problems_of(excinfo) == [expected]

    def test_bounded_knob_keeps_its_bound_message_for_infinity(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base_config(
                rollout={"promote_agreement": float("inf")}
            ))
        assert problems_of(excinfo) == [
            "rollout.promote_agreement: must be < 1.0, got inf"
        ]

    def test_integer_beyond_float_range_is_a_problem(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base_config(source={"rate": 10**400}))
        assert problems_of(excinfo) == [
            "source.rate: must be a finite number, got inf"
        ]


class TestUndecodableFile:
    @pytest.fixture
    def binary_config(self, tmp_path):
        path = tmp_path / "deploy.toml"
        path.write_bytes(b'[model]\ntag = "\xff"\n')
        return path

    def test_load_config_raises_config_error(self, binary_config):
        with pytest.raises(ConfigError) as excinfo:
            load_config(binary_config)
        [problem] = excinfo.value.problems
        assert problem.path == ""
        assert "can't decode byte 0xff" in problem.message

    def test_check_config_exits_2_with_one_problem(
        self, binary_config, capsys
    ):
        assert repro.cli.main(["check-config", str(binary_config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[0].startswith("invalid deployment config")
        assert len(err.splitlines()) == 2

        assert repro.cli.main(
            ["check-config", "--json", str(binary_config)]
        ) == 2
        report = json.loads(capsys.readouterr().out)
        assert len(report["problems"]) == 1


def test_monitor_on_a_live_source_exits_2_with_one_problem(tmp_path,
                                                            capsys):
    """No launcher drives ``source.mode = "live"``; it is refused at
    parse time, not in corpus construction after the checks pass."""
    path = tmp_path / "deploy.json"
    path.write_text(json.dumps(base_config(source={"mode": "live"})))
    for argv in (["check-config", str(path)],
                 ["monitor", "--config", str(path)]):
        assert repro.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"invalid deployment config {path}:",
            "  source.mode: 'live' is not one of 'replay'",
        ]


class TestMirroredConstants:
    """The parser copies these domains to stay import-light; pin each
    copy to the layer it mirrors."""

    def test_stream_policies(self):
        from repro.stream.scanner import SCANNER_POLICIES

        assert STREAM_POLICIES == SCANNER_POLICIES

    def test_warm_start_families_are_hsc_variants(self):
        from repro.models.hsc import HSC_VARIANTS

        assert set(WARM_START_FAMILIES) <= set(HSC_VARIANTS)
