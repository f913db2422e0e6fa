"""Property: ``parse_config`` is total over arbitrary JSON-like input.

Whatever a TOML or JSON file decodes to, parsing either returns a
domain-valid :class:`DeployConfig` or raises :class:`ConfigError` —
never another exception. Every float it accepts is finite, and every
config it accepts round-trips through ``as_dict()``.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import ConfigError, DeployConfig, parse_config
from repro.deploy.config import _TABLES
from tests.deploy.conftest import base_config

KNOBS = {
    field.name: [knob.name for knob in dataclasses.fields(table)]
    for field, table in _TABLES
}

#: Anything ``json.loads`` or ``tomllib.loads`` can produce: both
#: decode ``nan``/``inf``, and JSON integers are unbounded.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

#: Values near the knob domains (so generated configs also get
#: accepted) and at the edges of float range.
PLAUSIBLE = st.one_of(
    st.sampled_from([
        "", "block", "sample", "memory", "jsonl", "webhook", "replay",
        "adaptive", "inline", "memory://x", "s3://b",
        "alerts.jsonl", "https://x.example/h", "production",
    ]),
    st.integers(min_value=-2, max_value=70000),
    st.floats(min_value=-1.0, max_value=20.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.booleans(),
)


@st.composite
def sections(draw):
    """A whole config: known and unknown sections, arbitrary bodies."""
    names = draw(st.lists(
        st.sampled_from([*KNOBS, "srvee"]), unique=True, max_size=6
    ))
    data = {}
    for name in names:
        knobs = st.sampled_from([*KNOBS.get(name, []), "typo"])
        table = st.dictionaries(
            knobs, PLAUSIBLE | JSON_VALUES, max_size=6
        )
        if name == "sinks":
            body = st.lists(table, max_size=3)
        else:
            body = table
        data[name] = draw(body | JSON_VALUES)
    return data


@st.composite
def one_knob(draw):
    """The clean base config with one knob set to an arbitrary value."""
    name = draw(st.sampled_from(sorted(KNOBS)))
    knob = draw(st.sampled_from(KNOBS[name]))
    value = draw(PLAUSIBLE | JSON_VALUES)
    if name == "sinks":
        return base_config(sinks=[{"kind": "webhook",
                                   "url": "https://x.example/h",
                                   knob: value}])
    return base_config(**{name: {knob: value}})


def floats_of(config: DeployConfig):
    for field, _ in _TABLES:
        value = getattr(config, field.name)
        for section in value if isinstance(value, tuple) else [value]:
            if section is None:
                continue
            for value in dataclasses.astuple(section):
                if isinstance(value, float):
                    yield value


def check_total(data):
    try:
        config = parse_config(data, origin="<property>")
    except ConfigError:
        return
    assert all(math.isfinite(value) for value in floats_of(config))
    assert parse_config(config.as_dict(), origin="<property>") == config


@settings(max_examples=300, deadline=None)
@given(sections())
def test_whole_sections(data):
    check_total(data)


@settings(max_examples=300, deadline=None)
@given(one_knob())
def test_single_knobs(data):
    check_total(data)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_arbitrary_document(data):
    check_total(data)
