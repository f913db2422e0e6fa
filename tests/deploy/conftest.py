"""Shared fixtures for the deploy-layer tests.

``base_config()`` is the canonical *clean* topology: every rule in the
catalog passes on it, so per-rule fixtures can express themselves as
minimal overrides and the triggering knob combination stays legible in
the test.
"""

import copy

import pytest


def base_config(**overrides) -> dict:
    """A deployment dict with zero rule violations; override per test.

    Overrides use section names as keyword arguments and replace the
    whole section mapping entry-by-entry (``stream={"policy": "sample"}``
    keeps the other stream knobs).
    """
    config = {
        "store": {"url": "./phook-models"},
        "model": {"tag": "production"},
        "serve": {"threshold": 0.5, "cache_entries": 8192},
        "stream": {
            "batch_size": 16,
            "queue": 256,
            "policy": "block",
            "deadline_seconds": 0.25,
        },
        "sinks": [{"kind": "memory"}],
        "source": {"mode": "replay", "contracts": 200, "seed": 0},
    }
    for section, value in overrides.items():
        if (
            section in config
            and isinstance(config[section], dict)
            and isinstance(value, dict)
        ):
            merged = copy.deepcopy(config[section])
            merged.update(value)
            config[section] = merged
        else:
            config[section] = copy.deepcopy(value)
    return config


def clean_rollout(**overrides) -> dict:
    """A ``[rollout]`` section that trips no rollout rule on its own."""
    section = {
        "candidate": "candidate",
        "production": "production",
        "policy": "parity",
        "min_events": 100,
        "promote_agreement": 0.98,
        "abort_agreement": 0.90,
        "max_divergence": 0.05,
    }
    section.update(overrides)
    return section


@pytest.fixture
def parsed():
    """Parse an override dict straight into a DeployConfig."""
    from repro.deploy import parse_config

    def build(**overrides):
        return parse_config(base_config(**overrides), origin="<test>")

    return build
