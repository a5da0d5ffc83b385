"""`cli.dumps_indented`, the writer of report.json and config.json, is
`json.dumps(value, indent=2, sort_keys=True)` byte for byte: over random
str-keyed trees, on the edge cases that a hand-written layout gets wrong,
and on every demo's output files."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth.cli import (
    DEMOS,
    ScenarioConfig,
    dumps_indented,
    run_scenario,
    write_outputs,
)


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# characters json escapes or writes as \uXXXX, astral ones (a surrogate
# pair on the wire) and a lone surrogate among them
SPECIAL_CHARS = ('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xa0\u00e9\u20ac\ufeff'
                 '\U0001f600\ud800')
texts = st.text(st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters()),
                max_size=6)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-1),
)
floats = st.one_of(st.floats(), st.sampled_from([1.0, 0.0, -0.0]))
leaves = st.one_of(st.none(), st.booleans(), ints, floats, texts)
# lists of ints with the odd bool or None among them must not take the
# all-int path
mostly_ints = st.lists(st.one_of(ints, ints, ints, st.booleans(), st.none()),
                       min_size=1)
trees = st.recursive(
    st.one_of(leaves, mostly_ints),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(texts, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200)
@given(trees)
def test_matches_json_dumps_on_random_trees(value):
    assert dumps_indented(value) == reference(value)


@settings(max_examples=60)
@given(st.dictionaries(texts, trees, max_size=5))
def test_matches_json_dumps_on_random_reports(value):
    assert dumps_indented(value) == reference(value)


@pytest.mark.parametrize("value", [
    [1, True, 0, False, None, 2],
    [True], [False], [None], [1, 1.0], [0, 0.0, -0.0], [1.0, 0.0, -0.0],
    {"a": 1.0, "b": True, "c": 0.0, "d": False, "e": -0.0, "f": None},
    [2 ** 64, -2 ** 64, 2 ** 64 + 1, -1, 0],
    [math.inf, -math.inf, math.nan],
    {}, [], [[]], [{}], {"a": {}}, {"a": []},
    {"a": [[], {}, [[], [{}]], {"b": {"c": []}}]},
    {"\x00": "\\", '"': "\x1f", "\u00e9": "\U0001f600", "": ""},
    "plain", 7, -7, 1.5, None, True,
    (1, 2), {"t": (True, (3, "x"))},
])
def test_matches_json_dumps_on_edge_cases(value):
    assert dumps_indented(value) == reference(value)


@pytest.mark.parametrize("key", [1, 1.0, True, None, (1, 2)])
@pytest.mark.parametrize("wrap", [
    lambda bad: bad,
    lambda bad: {"outer": bad},
    lambda bad: [1, [bad]],
    lambda bad: {"a": 1, "b": [{"c": bad}]},
])
def test_non_str_key_raises_type_error(key, wrap):
    with pytest.raises(TypeError):
        dumps_indented(wrap({key: "value"}))
    with pytest.raises(TypeError):
        dumps_indented(wrap({key: 1, "str": 2}))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_write_outputs_writes_json_dumps_bytes(name, tmp_path):
    """report.json and config.json are what the stdlib encoder wrote for
    them (transcript.jsonl and report.json are also pinned by digest in
    test_cli.py)."""
    config = ScenarioConfig.from_json(DEMOS[name]["config"])
    transcript, report = run_scenario(config)
    write_outputs(transcript, report, config, tmp_path)
    assert (tmp_path / "report.json").read_text() == reference(report) + "\n"
    assert (tmp_path / "config.json").read_text() == (
        reference(config.to_json()) + "\n")
