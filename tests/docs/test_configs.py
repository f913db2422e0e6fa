"""Every shipped deployment config must verify clean — strictly.

Mirrors the CI ``check-config`` job in-process so `pytest` alone
catches a drifting example, and pins the guarantees the docs claim:
zero violations (WARNs included) on everything under
``examples/deploy/``, and machine-readable JSON output. The knob tables
in ``docs/configuration.md`` are rendered from the field metadata the
parser checks against, so a default, bound or choice cannot drift
between the two; its flag table is rendered from the CLI's flag-to-knob
mapping the same way.
"""

import dataclasses
import itertools
import json
import pathlib
import re

import pytest

import repro.cli
from repro.deploy import check_config, load_config
from repro.deploy.config import _TABLES

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SHIPPED = sorted(
    [
        *(REPO / "examples" / "deploy").glob("*.toml"),
        *(REPO / "examples" / "deploy").glob("*.json"),
    ],
    key=lambda p: p.name,
)


def test_examples_exist_in_both_formats():
    suffixes = {path.suffix for path in SHIPPED}
    assert ".toml" in suffixes and ".json" in suffixes
    assert len(SHIPPED) >= 3


@pytest.mark.parametrize(
    "path", SHIPPED, ids=[p.name for p in SHIPPED]
)
def test_shipped_config_is_strictly_clean(path):
    report = check_config(load_config(path))
    assert report.violations == (), (
        f"{path.name} ships with violations: "
        + ", ".join(v.rule_id for v in report.violations)
    )


@pytest.mark.parametrize(
    "path", SHIPPED, ids=[p.name for p in SHIPPED]
)
def test_cli_strict_exit_zero(path, capsys):
    exit_code = repro.cli.main(
        ["check-config", "--strict", "--json", str(path)]
    )
    report = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert report["ok"] is True
    assert report["violations"] == []


def test_bucket_example_demonstrates_cache_dir():
    config = load_config(REPO / "examples" / "deploy" / "bucket-fleet.toml")
    assert config.store.scheme == "bucket"
    assert config.store.cache_dir, (
        "the bucket example exists to demonstrate cache_dir (rule D006)"
    )


# ---- knob tables: docs/configuration.md is rendered from the metadata ----

CONFIGURATION = REPO / "docs" / "configuration.md"
TYPE_NAMES = {str: "string", int: "int", float: "float", bool: "bool"}


def render_default(value) -> str:
    if isinstance(value, bool):
        return "`true`" if value else "`false`"
    return f"`{value}`" if value != "" else '`""`'


def render_domain(meta) -> str:
    parts = []
    if meta["choices"]:
        parts.append(", ".join(f"`{choice}`" for choice in meta["choices"]))
    low, high = meta["minimum"], meta["maximum"]
    if low is not None and high is not None:
        parts.append(
            f"strictly between {low:g} and {high:g}" if meta["exclusive"]
            else f"{low:g}–{high:g}"
        )
    elif low is not None:
        parts.append(f"{'>' if meta['exclusive'] else '≥'} {low:g}")
    if meta["nonempty"]:
        parts.append("non-empty")
    return "; ".join(
        text for text in (", ".join(parts), meta["doc"]) if text
    ) or "—"


def render_knob_table(table) -> str:
    rows = [
        "| knob | type | default | domain |",
        "| --- | --- | --- | --- |",
    ]
    for field in dataclasses.fields(table):
        rows.append(
            f"| `{field.name}` | {TYPE_NAMES[field.type]} "
            f"| {render_default(field.default)} "
            f"| {render_domain(field.metadata)} |"
        )
    return "\n".join(rows)


def documented_tables() -> dict[str, str]:
    """``section name -> knob table`` under each ``### `[section]` `` head."""
    reference = CONFIGURATION.read_text(encoding="utf-8").split(
        "## Knob reference", 1
    )[1].split("\n## ", 1)[0]
    tables = {}
    for block in reference.split("\n### ")[1:]:
        heading, _, body = block.partition("\n")
        name = re.match(r"`\[\[?(\w+)\]?\]`", heading).group(1)
        rows = itertools.takewhile(
            lambda line: line.startswith("|"), body.strip().splitlines()
        )
        tables[name] = "\n".join(rows)
    return tables


def test_every_section_has_a_knob_table():
    assert set(documented_tables()) == {field.name for field, _ in _TABLES}


@pytest.mark.parametrize(
    "name, table", [(field.name, table) for field, table in _TABLES],
    ids=[field.name for field, _ in _TABLES],
)
def test_knob_table_matches_metadata(name, table):
    expected = render_knob_table(table)
    assert documented_tables().get(name) == expected, (
        f"docs/configuration.md's [{name}] knob table drifted from the "
        f"field metadata in repro/deploy/config.py; it should read:\n\n"
        f"{expected}"
    )


# ---- flag table: the CLI's flag -> knob mapping ----


def render_flag_table() -> str:
    rows = ["| command | flag | knob |", "| --- | --- | --- |"]
    for command, flags in repro.cli._TOPOLOGY_FLAGS.items():
        rows.extend(
            f"| `{command}` | `{flag}` | `{knob}` |" for flag, knob in flags
        )
    return "\n".join(rows)


def test_flag_table_matches_cli():
    section = CONFIGURATION.read_text(encoding="utf-8").split(
        "\n## Flag launches\n", 1
    )[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    start = lines.index("| command | flag | knob |")
    rows = itertools.takewhile(
        lambda line: line.startswith("|"), lines[start:]
    )
    expected = render_flag_table()
    assert "\n".join(rows) == expected, (
        "docs/configuration.md's flag table drifted from "
        "repro.cli._TOPOLOGY_FLAGS; it should read:\n\n" + expected
    )
