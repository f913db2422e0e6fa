"""Smoke tests: every example script runs to completion.

Examples are executed in-process (import + ``main()``) with their output
captured, asserting the key artifacts appear.
"""

import importlib
import sys
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    for name in ("quickstart", "model_comparison", "time_resistance",
                 "wallet_guard", "explain_detection", "shadow_rollout",
                 "adversarial_robustness"):
        sys.modules.pop(name, None)


def run_example(name: str, capsys) -> str:
    module = importlib.import_module(name)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "crawled" in out
    assert "PHISHING" in out or "benign" in out


@pytest.mark.slow
def test_model_comparison(capsys):
    out = run_example("model_comparison", capsys)
    assert "Random Forest" in out
    assert "Kruskal" in out or "p_adj" in out


@pytest.mark.slow
def test_time_resistance(capsys):
    out = run_example("time_resistance", capsys)
    assert "AUT(F1)" in out


def test_wallet_guard(capsys):
    out = run_example("wallet_guard", capsys)
    assert "latency" in out
    assert "blocked" in out


def test_explain_detection(capsys):
    out = run_example("explain_detection", capsys)
    assert "base rate" in out
    assert "local accuracy" in out


def test_adversarial_robustness(capsys):
    out = run_example("adversarial_robustness", capsys)
    assert "recall lost at max strength" in out
    assert "hardened model" in out


def test_shadow_rollout(capsys):
    out = run_example("shadow_rollout", capsys)
    # The parity candidate is promoted with zero dropped batches …
    assert "state=promoted" in out
    assert "promoted=True, dropped=0" in out
    # … and the label-flipped candidate is aborted, production untouched.
    assert "state=aborted" in out
    assert "decision: abort — regression" in out
    assert "production untouched" in out
