"""Fuzzing of the transcript reader and the audit.

Each example takes the transcript of one built-in demo (at 64 bits),
replaces one field of one record with a hostile value, and feeds the
result through `Transcript.read_jsonl` and `audit_transcript`. Hostile
input must end in a `GroupAuthError` (which the CLI reports as
`audit: FAIL`) or in an audit that passes; any other exception is a
traceback the user would see, and fails the test.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth.channel import Transcript
from groupauth.cli import DEMOS, ScenarioConfig, audit_transcript, run_scenario
from groupauth.errors import GroupAuthError

BITS = 64
# About a second of the tier-1 run; raise it locally for a deeper search.
EXAMPLES = 150


@pytest.fixture(scope="module")
def demo_transcripts():
    """(config, records) of every demo, run once for the whole module."""
    out = {}
    for name in sorted(DEMOS):
        raw = dict(DEMOS[name]["config"], prime_bits=BITS)
        config = ScenarioConfig.from_json(raw)
        transcript, _ = run_scenario(config)
        out[name] = (config, transcript.records)
    return out


@pytest.fixture(scope="module")
def transcript_path(tmp_path_factory):
    """One file that every example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "transcript.jsonl"


def _non_canonical_hex(text: str):
    """Spellings of a hex string that a canonical decoder must refuse."""
    return st.sampled_from([
        text.upper() if text.upper() != text else text + "G",
        "+" + text, "-" + text, "0x" + text, " " + text, text + " ",
        "0" + text, text[1:], text[:-1], text + text, "", "_" + text[1:],
        text.replace("0", "O"), "\u0660" + text[1:],
    ])


OUT_OF_RANGE_INTS = st.one_of(
    st.integers(), st.sampled_from([0, -1, 99, 2**63, 2**64, 2**256]),
)
PARTY_LISTS = st.lists(st.integers(min_value=-2, max_value=70), max_size=6)
SESSIONS = st.tuples(
    st.sampled_from(["harn2013", "xia2019", "", "HARN2013"]),
    OUT_OF_RANGE_INTS,
).map(list)

# Values of any shape: most fail the reader's record schema.
HOSTILE_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=6),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    OUT_OF_RANGE_INTS, st.just([]), PARTY_LISTS, SESSIONS,
    st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=3),
    st.lists(st.one_of(st.none(), st.text(max_size=2), st.floats()),
             min_size=1, max_size=3),
)


def _same_shape(original):
    """Hostile values of the original's type, which pass the schema and
    reach the audit."""
    if type(original) is bool:
        return st.booleans()
    if type(original) is int:
        return OUT_OF_RANGE_INTS
    if isinstance(original, str):
        return st.one_of(_non_canonical_hex(original), st.text(max_size=6))
    if isinstance(original, list) and original and isinstance(original[0], str):
        return SESSIONS
    return PARTY_LISTS


@settings(max_examples=EXAMPLES)
@given(data=st.data())
def test_mutated_transcript_fails_cleanly(demo_transcripts, transcript_path,
                                          data):
    name = data.draw(st.sampled_from(sorted(demo_transcripts)), label="demo")
    config, records = demo_transcripts[name]
    index = data.draw(st.integers(0, len(records) - 1), label="record")
    record = dict(records[index])
    key = data.draw(st.sampled_from(sorted(record)), label="field")
    # half the values keep the field's type, since one_of would flatten
    # the branches and draw those rarely
    keep_type = data.draw(st.booleans(), label="keep type")
    values = _same_shape(record[key]) if keep_type else HOSTILE_VALUES
    record[key] = data.draw(values, label="value")
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":"))
             for r in records]
    lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    transcript_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        audit_transcript(Transcript.read_jsonl(transcript_path), config)
    except GroupAuthError:
        pass
