"""Fuzzing of the transcript reader and the audit.

Each example takes the transcript of one built-in demo (at 64 bits),
replaces one field of one record with a hostile value, and feeds the
result through `Transcript.read_jsonl` and `audit_transcript`. Hostile
input must end in a `GroupAuthError` (which the CLI reports as
`audit: FAIL`) or in an audit that passes; any other exception is a
traceback the user would see, and fails the test. The audit must also
give what `inbox_audit`, a plainer replay kept here as an oracle, gives:
the same checks or the same first failure.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth import cli
from groupauth.channel import ROUND_INVITATION, Envelope, Transcript, is_forged
from groupauth.cli import DEMOS, ScenarioConfig, audit_transcript, run_scenario
from groupauth.errors import AuditFailure, GroupAuthError
from groupauth.parties import SCHEMES, SentInvitation

BITS = 64
# About a second of the tier-1 run; raise it locally for a deeper search.
EXAMPLES = 150


class Decisions(list):
    """Stands in for PartyAPI: each decision as (session, accepted,
    members, reason), the shape the audit's failure message shows."""

    def decide(self, session: tuple, belief) -> None:
        record = belief.to_json()
        self.append((session, record["accepted"], record["members"],
                     record["reason"]))


def inbox_audit(transcript: Transcript, config: ScenarioConfig) -> dict:
    """`audit_transcript` by per-party inboxes: every record is checked
    and sorted into the inbox of each party it reaches (its recipients,
    then its genuine origin, an invitation as a `SentInvitation`) before
    any replay, and then each party replays its whole inbox in turn."""
    for position, record in enumerate(transcript.records, 1):
        if record["seq"] != position:
            raise AuditFailure("record %d carries seq %d"
                               % (position, record["seq"]))
    scheme = SCHEMES[config.scheme]
    material, _, _ = cli.derive_material(config)
    envelopes, decisions = transcript.envelopes(), transcript.decisions()
    inboxes = {pid: [] for pid in range(1, config.n + 1)}
    recorded = {pid: {} for pid in inboxes}
    for record in envelopes:
        envelope = Envelope.from_record(record)
        for pid in record["recipients"]:
            if pid not in inboxes:
                raise AuditFailure("envelope %d reached unknown party %d"
                                   % (record["seq"], pid))
            inboxes[pid].append(envelope)
        if is_forged(record):
            continue
        origin = record["true_origin"]
        if origin != envelope.claimed_sender:
            raise AuditFailure("envelope %d claims sender %d but came from "
                               "party %d" % (record["seq"],
                                             envelope.claimed_sender, origin))
        if origin not in inboxes:
            raise AuditFailure("envelope %d sent by unknown party %d"
                               % (record["seq"], origin))
        recorded[origin].setdefault((envelope.session, envelope.round),
                                    []).append(envelope.payload)
        if envelope.round == ROUND_INVITATION:
            envelope = SentInvitation(**vars(envelope))
        inboxes[origin].append(envelope)
    decided = {pid: [] for pid in inboxes}
    for record in decisions:
        if record["party"] not in decided:
            raise AuditFailure("decision %d by unknown party %d"
                               % (record["seq"], record["party"]))
        decided[record["party"]].append(
            (tuple(record["session"]), record["accepted"],
             record["members"], record["reason"]))
    problems = []
    replayed_total = 0
    for pid, inbox in inboxes.items():
        party = scheme(pid, None, material, recorded=recorded[pid])
        api = Decisions()
        for envelope in inbox:
            party.on_envelope(envelope, api)
        replayed_total += len(api)
        if decided[pid] != api:
            problems.append("party %d decided %r but the wire data says %r"
                            % (pid, decided[pid], api))
    forged, outcomes, judged = cli._judge(config, material, envelopes,
                                          decisions)
    if not judged["forged_count_matches"]:
        problems.append(
            "%d forged envelopes on the wire, scenario profile says %d"
            % (len(forged), cli.expected_forged_count(config)))
    if not judged["forged_confined_to_victims"]:
        problems.append(
            "forged envelopes reached parties other than the victims")
    checks = {"decisions_match_wire": replayed_total,
              "forged_count": len(forged)}
    if config.scenario in cli.ATTACK_SCENARIOS:
        silent = not any(
            (set(fake) - {victim}) & outcome.ground_truth
            for (fake, victim), outcome in zip(config._plans_raw(), outcomes))
        checks["claimed_members_never_spoke_to_victim"] = silent
        if not silent:
            problems.append(
                "a party the victim was told about actually spoke to it")
    if problems:
        raise AuditFailure("; ".join(problems))
    return checks


def outcome(audit, transcript: Transcript, config: ScenarioConfig):
    """The checks `audit` returns, or the type and message of the
    GroupAuthError it raises; any other exception propagates."""
    try:
        return audit(transcript, config)
    except GroupAuthError as exc:
        return type(exc).__name__, str(exc)


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
        transcript = Transcript.read_jsonl(transcript_path)
    except GroupAuthError:
        return
    assert outcome(audit_transcript, transcript, config) == outcome(
        inbox_audit, transcript, config)


def test_every_demo_audits_as_the_oracle_does(demo_transcripts):
    for config, records in demo_transcripts.values():
        transcript = Transcript(records=records)
        checks = audit_transcript(transcript, config)
        assert checks == inbox_audit(transcript, config)


@pytest.mark.parametrize("recipient_first", [True, False],
                         ids=["recipient-first", "sender-first"])
def test_the_first_faulty_record_names_the_failure(demo_transcripts,
                                                   recipient_first):
    """Two faults, an unknown recipient and a claimed sender that is not
    the true origin, in two genuine records: the earlier one is
    reported, whichever it is."""
    config, records = demo_transcripts["xia-impersonation"]
    records = [dict(record) for record in records]
    genuine = [record for record in records
               if record["type"] == "envelope" and not is_forged(record)]
    early, late = genuine[1], genuine[-1]
    stray, relabelled = (early, late) if recipient_first else (late, early)
    stray["recipients"] = stray["recipients"] + [config.n + 1]
    origin = relabelled["true_origin"]
    relabelled["claimed_sender"] = origin % config.n + 1
    transcript = Transcript(records=records)
    if recipient_first:
        message = "envelope %d reached unknown party %d" % (
            stray["seq"], config.n + 1)
    else:
        message = "envelope %d claims sender %d but came from party %d" % (
            relabelled["seq"], origin % config.n + 1, origin)
    assert outcome(audit_transcript, transcript, config) == (
        "AuditFailure", message)
    assert outcome(inbox_audit, transcript, config) == (
        "AuditFailure", message)
