"""Config validation, scenario verdicts, transcript audits, exit codes,
and byte-determinism of the command-line front end."""

import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import pytest

import groupauth
from groupauth import cli, parties, xia2019
from groupauth.algebra import derive_rng
from groupauth.channel import (
    ROUND_INVITATION,
    ROUND_TOKEN,
    ChannelSimulator,
    Transcript,
    encode_residue_hex,
    invitation_envelope,
)
from groupauth.cli import (
    DEMOS,
    SCENARIO_HONEST,
    SCENARIO_IMPERSONATION,
    SCENARIO_QUORUM,
    SCENARIO_SIMULTANEOUS,
    SCENARIO_TAMPER,
    SCENARIO_TWO_VICTIMS,
    ScenarioConfig,
    audit_transcript,
    derive_material,
    expected_forged_count,
    load_config,
    main,
    run_scenario,
    write_outputs,
)
from groupauth.errors import AuditFailure, ConfigError
from groupauth.harn2013 import harn_gm_init
from groupauth.parties import run_world

from conftest import assert_decoded_as_cold, recorded_materials

BITS = 64  # keep the suite quick; the CLI default is larger


def config_for(**overrides) -> ScenarioConfig:
    raw = {"scheme": "harn2013", "scenario": SCENARIO_HONEST,
           "n": 5, "t": 2, "prime_bits": BITS, "seed": 5}
    raw.update(overrides)
    return ScenarioConfig.from_json(raw)


# ---------------------------------------------------------------------------
# configuration validation


def test_defaults_fill_in():
    config = config_for()
    assert config.group == (1, 2, 3, 4, 5)
    assert config.session == 1
    assert config.prime_bits == BITS


def test_quorum_group_defaults_below_threshold():
    config = config_for(scenario=SCENARIO_QUORUM, t=3)
    assert config.group == (1, 2)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_for(tyop=1)


def test_missing_required_keys_rejected():
    with pytest.raises(ConfigError, match="missing"):
        ScenarioConfig.from_json({"scheme": "harn2013"})


@pytest.mark.parametrize("overrides, message", [
    ({"scheme": "other"}, "unknown scheme"),
    ({"scenario": "other"}, "unknown scenario"),
    ({"t": 1}, "2 <= t <= n"),
    ({"t": 9}, "2 <= t <= n"),
    ({"prime_bits": 8}, "prime_bits"),
    ({"scenario": SCENARIO_SIMULTANEOUS, "observed_group": [1, 2],
      "victim": 3, "fake_group": [3, 4]}, "masked-product"),
    ({"scenario": SCENARIO_TWO_VICTIMS, "observed_group": [1, 2],
      "victim": 3, "fake_group": [3, 4], "second_victim": 5,
      "second_fake_group": [4, 5]}, "masked-product"),
    ({"group": [1, 1, 2]}, "duplicates"),
    ({"group": [0, 1]}, "draw from parties"),
    ({"group": [4, 5, 6]}, "draw from parties|group"),
    ({"scenario": SCENARIO_QUORUM, "group": [1, 2, 3]}, "below"),
    ({"group": [1]}, "threshold"),
    ({"fake_group": [1, 2]}, "attack scenarios"),
    ({"victim": 2}, "tamper"),
    ({"scenario": SCENARIO_TAMPER, "victim": 1, "tamper_target": 1},
     "must differ"),
    ({"scenario": SCENARIO_TAMPER, "victim": 1, "tamper_target": 5,
      "group": [1, 2, 3]}, "target must sit"),
    ({"scenario": SCENARIO_TAMPER, "victim": 5, "group": [1, 2, 3]},
     "victim must sit"),
    ({"ell": 0}, "at least one session index"),
    ({"session": 0}, "start at 1"),
    ({"scheme": "xia2019", "scenario": SCENARIO_TWO_VICTIMS,
      "observed_group": [1, 2], "victim": 3, "fake_group": [3, 4]},
     "need second_victim and second_fake_group"),
    ({"scheme": "xia2019", "scenario": SCENARIO_TWO_VICTIMS,
      "observed_group": [1, 2], "victim": 3, "fake_group": [3, 4],
      "second_victim": 3, "second_fake_group": [3, 5]}, "victims must differ"),
    ({"scheme": "xia2019", "scenario": SCENARIO_IMPERSONATION, "n": 6,
      "observed_group": [1, 2, 3], "victim": 4, "fake_group": [4, 5, 6],
      "replay_member": 1}, "must be an observed member reused"),
])
def test_invalid_plain_configs(overrides, message):
    with pytest.raises(ConfigError, match=message):
        config_for(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({}, "need observed_group"),
    ({"observed_group": [1, 2], "fake_group": [3, 4]}, "need observed"),
    ({"observed_group": [1, 2], "victim": 3, "fake_group": [4, 5]},
     "must appear in its fabricated group"),
    ({"observed_group": [1, 2], "victim": 1, "fake_group": [1, 4]},
     "observed group"),
    ({"observed_group": [1], "victim": 3, "fake_group": [3, 4]},
     "cannot reach the threshold"),
    ({"observed_group": [1, 2], "victim": 3, "fake_group": [3]},
     "below the threshold"),
    ({"observed_group": [1, 2], "victim": 3, "fake_group": [3, 4],
      "group": [1, 2]}, "not group"),
    ({"observed_group": [1, 2], "victim": 3, "fake_group": [3, 4],
      "replay_member": 4}, "replay_member"),
    ({"observed_group": [1, 2], "victim": 3, "fake_group": [3, 4],
      "tamper_target": 1}, "tamper_target only applies"),
    ({"observed_group": [1, 2], "victim": 3, "fake_group": [3, 4],
      "second_victim": 5}, "only apply to the two-victim scenario"),
])
def test_invalid_attack_configs(overrides, message):
    with pytest.raises(ConfigError, match=message):
        config_for(scenario=SCENARIO_IMPERSONATION, **overrides)


@pytest.mark.parametrize("second_fake_group, message", [
    ([5, 5, 8], r"^second_fake_group contains duplicates$"),
    ([5, 6, 9], r"^second_fake_group must draw from parties 1\.\.8$"),
    ([], r"^second_fake_group must not be empty$"),
], ids=["duplicates", "out-of-range", "empty"])
def test_second_plan_errors_name_their_field(second_fake_group, message):
    with pytest.raises(ConfigError, match=message):
        config_for(scheme="xia2019", scenario=SCENARIO_TWO_VICTIMS, n=8,
                   observed_group=[1, 2], victim=4, fake_group=[4, 6, 7],
                   second_victim=5, second_fake_group=second_fake_group)


def test_short_observed_group_is_reported_before_a_bad_fake_group():
    """The first plan's ids are checked with the other plans, after the
    observed group's threshold check, so that error wins."""
    with pytest.raises(ConfigError,
                       match=r"^observed_group cannot reach the threshold"):
        config_for(scenario=SCENARIO_IMPERSONATION, n=6, t=3,
                   observed_group=[1, 2], victim=4, fake_group=[4, 4, 5])


def test_harn_replay_member_rejected():
    with pytest.raises(ConfigError, match="replay_member"):
        config_for(scenario=SCENARIO_IMPERSONATION, n=6,
                   observed_group=[1, 2, 3], victim=4,
                   fake_group=[3, 4, 5], replay_member=3)


def test_replay_only_fake_group_rejected(tmp_path, capsys):
    """With the victim and the replay member taken out, no fabricated
    member is left to close the product."""
    path = tmp_path / "replay-only.json"
    path.write_text(json.dumps({
        "scheme": "xia2019", "scenario": "impersonation", "n": 6, "t": 2,
        "prime_bits": 64, "seed": 5, "observed_group": [1, 2, 3],
        "fake_group": [3, 4], "victim": 4, "replay_member": 3,
    }))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"prime_bits": 64.5},
    {"seed": "x"},
    {"scheme": "xia2019", "ell": 1.5},
    {"session": True},
    {"n": "5"},
    {"t": None},
    {"group": [1, "2", 3]},
    {"group": [1, 2.0, 3]},
    {"group": "123"},
    {"scenario": SCENARIO_TAMPER, "group": [1, 2, 3], "victim": 1.0},
    {"scenario": SCENARIO_TAMPER, "group": [1, 2, 3], "tamper_target": 3.0},
    {"scenario": SCENARIO_IMPERSONATION, "n": 6, "observed_group": [1, 2],
     "victim": 4, "fake_group": [4, 5, True]},
    {"scheme": "xia2019", "scenario": SCENARIO_IMPERSONATION, "n": 6,
     "observed_group": [1, 2, 3], "victim": 4, "fake_group": [3, 4, 5],
     "replay_member": 3.0},
    {"scheme": "xia2019", "scenario": SCENARIO_TWO_VICTIMS, "n": 8,
     "observed_group": [1, 2], "victim": 4, "fake_group": [4, 6],
     "second_victim": 5.0, "second_fake_group": [5, 6]},
    {"scheme": "xia2019", "scenario": SCENARIO_TWO_VICTIMS, "n": 8,
     "observed_group": [1, 2.5], "victim": 4, "fake_group": [4, 6],
     "second_victim": 5, "second_fake_group": [5, "6"]},
])
def test_config_values_must_be_ints(overrides, tmp_path, capsys):
    raw = {"scheme": "harn2013", "scenario": SCENARIO_HONEST, "n": 5,
           "t": 2, "prime_bits": BITS, "seed": 5}
    raw.update(overrides)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(raw))
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("name", ["scheme", "scenario"])
def test_scheme_and_scenario_must_be_strings(name):
    with pytest.raises(ConfigError, match=r"^%s must be a string" % name):
        config_for(**{name: []})


def test_config_must_be_an_object():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ScenarioConfig.from_json([])


@pytest.mark.parametrize("text, message", [
    ("{", "is not valid JSON"),
    ("[]", "must hold a JSON object"),
], ids=["invalid-json", "json-array"])
def test_load_config_rejects_a_file_that_is_not_an_object(text, message,
                                                          tmp_path):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_xia_session_must_be_issued():
    with pytest.raises(ConfigError, match="session"):
        config_for(scheme="xia2019", t=3, ell=1, session=2)


def test_config_round_trips_through_json():
    config = config_for(scenario=SCENARIO_IMPERSONATION, n=6,
                        observed_group=[1, 2, 3], victim=4,
                        fake_group=[4, 5, 6])
    again = ScenarioConfig.from_json(config.to_json())
    assert again == config


# ---------------------------------------------------------------------------
# forged-envelope profiles


@pytest.mark.parametrize("overrides, expected", [
    ({}, 0),
    ({"scenario": SCENARIO_QUORUM, "group": [1]}, 0),
    ({"scenario": SCENARIO_TAMPER, "group": [1, 2, 3]}, 1),
    ({"scenario": SCENARIO_TAMPER, "group": [1, 2, 3],
      "tamper_target": 1, "victim": 2}, 2),
    ({"scenario": SCENARIO_IMPERSONATION, "n": 6,
      "observed_group": [1, 2, 3], "victim": 4,
      "fake_group": [4, 5, 6]}, 3),
])
def test_expected_forged_count_harn(overrides, expected):
    assert expected_forged_count(config_for(**overrides)) == expected


@pytest.mark.parametrize("overrides, expected", [
    ({"scenario": SCENARIO_TAMPER, "group": [1, 2, 3], "t": 2}, 2),
    ({"scenario": SCENARIO_IMPERSONATION, "n": 6, "t": 3,
      "observed_group": [1, 2, 3], "victim": 4,
      "fake_group": [4, 5, 6]}, 5),
    ({"scenario": SCENARIO_TWO_VICTIMS, "n": 8, "t": 2,
      "observed_group": [1, 2], "victim": 4, "fake_group": [4, 6, 7],
      "second_victim": 5, "second_fake_group": [5, 6, 8]}, 10),
])
def test_expected_forged_count_xia(overrides, expected):
    config = config_for(scheme="xia2019", **overrides)
    assert expected_forged_count(config) == expected


# ---------------------------------------------------------------------------
# scenario verdicts (in-process)


@pytest.mark.parametrize("scheme, extra", [
    ("harn2013", {}),
    ("xia2019", {"t": 3, "ell": 2, "session": 2}),
])
def test_honest_scenarios_behave(scheme, extra):
    config = config_for(scheme=scheme, **extra)
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    assert report["counts"]["forged"] == 0
    assert audit_transcript(transcript, config)


@pytest.mark.parametrize("scheme, extra", [
    ("harn2013", {"t": 3}),
    ("xia2019", {"t": 3}),
])
def test_quorum_scenarios_reject(scheme, extra):
    config = config_for(scheme=scheme, scenario=SCENARIO_QUORUM, **extra)
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    reasons = {record["reason"] for record in report["decisions"]}
    assert reasons == {"quorum"}
    assert audit_transcript(transcript, config)


@pytest.mark.parametrize("scheme, forged", [
    ("harn2013", 1),
    ("xia2019", 2),
])
def test_tamper_scenarios_isolate_the_victim(scheme, forged):
    config = config_for(scheme=scheme, scenario=SCENARIO_TAMPER,
                        group=[1, 2, 3], t=2)
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    assert report["counts"]["forged"] == forged
    by_party = {record["party"]: record for record in report["decisions"]}
    assert not by_party[1]["accepted"]
    assert by_party[1]["reason"] == "hash-mismatch"
    assert by_party[2]["accepted"] and by_party[3]["accepted"]
    assert audit_transcript(transcript, config)


def test_tamper_forwards_the_invitation_when_target_initiates():
    config = config_for(scenario=SCENARIO_TAMPER, group=[1, 2, 3],
                        tamper_target=1, victim=2)
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    assert report["counts"]["forged"] == 2
    assert audit_transcript(transcript, config)


@pytest.mark.parametrize("scheme", ["harn2013", "xia2019"])
def test_impersonation_scenarios_deceive_the_victim(scheme):
    config = config_for(scheme=scheme, scenario=SCENARIO_IMPERSONATION,
                        n=6, t=2, observed_group=[1, 2, 3], victim=4,
                        fake_group=[4, 5, 6])
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    outcome = report["outcomes"][0]
    assert outcome["success"]
    assert outcome["claimed"] == [4, 5, 6]
    assert outcome["ground_truth"] == [4]
    assert audit_transcript(transcript, config)


def test_two_victim_scenario_produces_conflicting_beliefs():
    config = config_for(scheme="xia2019", scenario=SCENARIO_TWO_VICTIMS,
                        n=8, t=2, observed_group=[1, 2], victim=4,
                        fake_group=[4, 6, 7], second_victim=5,
                        second_fake_group=[5, 6, 8])
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    claims = {o["victim"]: o["claimed"] for o in report["outcomes"]}
    assert claims == {4: [4, 6, 7], 5: [5, 6, 8]}
    assert audit_transcript(transcript, config)


def test_replay_member_scenario_succeeds():
    config = config_for(scheme="xia2019", scenario=SCENARIO_IMPERSONATION,
                        n=6, t=2, observed_group=[1, 2, 3], victim=4,
                        fake_group=[3, 4, 5], replay_member=3)
    transcript, report = run_scenario(config)
    assert report["verdict"] == "expected"
    assert audit_transcript(transcript, config)


# ---------------------------------------------------------------------------
# audit failures


def attack_config():
    return config_for(scheme="xia2019", scenario=SCENARIO_IMPERSONATION,
                      n=6, t=3, observed_group=[1, 2, 3], victim=4,
                      fake_group=[4, 5, 6])


def test_audit_rejects_corrupted_payload(tmp_path):
    config = attack_config()
    transcript, _ = run_scenario(config)
    path = tmp_path / "transcript.jsonl"
    transcript.write_jsonl(path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("round") == "token":
            payload = record["payload_hex"]
            record["payload_hex"] = (
                ("0" if payload[0] != "0" else "1") + payload[1:]
            )
            lines[i] = json.dumps(record, sort_keys=True,
                                  separators=(",", ":"))
            break
    path.write_text("\n".join(lines) + "\n")
    doctored = Transcript.read_jsonl(path)
    with pytest.raises(AuditFailure):
        audit_transcript(doctored, config)


@pytest.mark.parametrize("scheme, dealer, seed", [
    ("xia2019", "xia_gm_init", 61),
    ("harn2013", "harn_gm_init", 64),
], ids=["xia2019", "harn2013"])
def test_run_and_audit_get_separate_params(monkeypatch, scheme, dealer,
                                           seed):
    """The audit reuses the run's dealer run but gets its own params, and
    with them its own memos, so it checks every wire value itself. The
    credentials are frozen dealer output, shared as they are."""
    seen, calls = recorded_materials(monkeypatch), []
    issue = getattr(parties, dealer)

    def counting(*args, **kwargs):
        calls.append(args)
        return issue(*args, **kwargs)

    monkeypatch.setattr(parties, dealer, counting)
    config = config_for(scheme=scheme, n=4, t=2, seed=seed)
    transcript, _ = run_scenario(config)
    audit_transcript(transcript, config)
    assert len(calls) == 1
    (run_params, run_creds, _), (audit_params, audit_creds, _) = seen
    assert run_params == audit_params and run_params is not audit_params
    for memo in ("_decoded", "_invitations"):
        assert getattr(run_params, memo) is not getattr(audit_params, memo)
        assert getattr(run_params, memo) and getattr(audit_params, memo)
    # the audit's replay computes no token, so it needs no numerator
    assert run_params._numerators and audit_params._numerators == {}
    # the run stored its parties' own payloads unchecked; the audit
    # decoded every one of them from the wire
    payloads = {r["payload_hex"] for r in transcript.envelopes()
                if r["round"] != ROUND_INVITATION}
    assert set(run_params._decoded) == set(audit_params._decoded) == payloads
    assert len(audit_creds) == 4
    assert all(a is b for a, b in zip(run_creds, audit_creds))
    with pytest.raises(FrozenInstanceError):
        audit_creds[0].owner = audit_creds[1].owner
    if scheme == "xia2019":
        assert run_params.group is audit_params.group
        # the run's powers were counted; the audit's replay raises no
        # generator to a power and computes no mask
        assert run_params._served and run_params._masks
        assert audit_params._served == audit_params._powers == {}
        assert audit_params._masks == {}
        assert run_params._verdicts is not audit_params._verdicts
        assert run_params._verdicts and audit_params._verdicts


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_decoded_value_is_what_a_cold_decode_gives(monkeypatch, name):
    """A live run stores its parties' own contributions in the decode
    memo unchecked as they are sent; every entry must still be the value
    that a fresh copy of the params decodes from its payload."""
    materials = recorded_materials(monkeypatch)
    _, transcript, _ = demo_run(name)
    (params, _, _), = materials
    assert_decoded_as_cold(params, transcript)


def test_adversary_values_are_checked_after_a_live_world(monkeypatch):
    """Only an honest party's own contribution skips the check: a tamper
    nudge that leaves the subgroup, and a non-residue encoded after the
    world has run, are refused and never stored."""
    materials = recorded_materials(monkeypatch)
    monkeypatch.setattr(parties.XiaParty, "nudge", staticmethod(
        lambda params, session, value: params.modulus - value))
    config = config_for(scheme="xia2019", scenario=SCENARIO_TAMPER,
                        group=[1, 2, 3], t=2)
    transcript, _ = run_scenario(config)
    (params, _, _), = materials
    forged = [r["payload_hex"] for r in transcript.forged()
              if r["round"] == ROUND_TOKEN]
    non_residue = params.encode(params.modulus - 1)  # -1: p = 3 mod 4
    assert len(forged) == 1
    for payload in (*forged, non_residue):
        assert params.decode(payload) is None
        assert payload not in params._decoded


def test_audit_reuses_the_setup_of_its_config_object(monkeypatch):
    """One dealer run serves a run and its audit of one config object;
    an equal new object, or the same object with changed values, derives
    afresh."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return harn_gm_init(*args, **kwargs)

    monkeypatch.setattr(parties, "harn_gm_init", counting)
    config = config_for(seed=62)
    transcript, _ = run_scenario(config)
    audit_transcript(transcript, config)
    assert len(calls) == 1
    audit_transcript(transcript, config_for(seed=62))
    assert len(calls) == 2
    config.seed = 63
    changed, fresh = derive_material(config), derive_material(config_for())
    assert changed[0] != fresh[0]
    assert len(calls) == 4


def reinvited_world(scheme, forge_own_invitation=False):
    """n=4, t=2, ell=1, seed 36: party 1 runs session 1 with party 2,
    then initiates session 1 again with party 3, which it refuses under
    either scheme, because it has opened that session id before. With
    `forge_own_invitation`, the adversary instead sends party 1 an
    invitation to session 1 in party 1's own name, which it ignores.
    Returns (transcript, matching honest config)."""
    config = config_for(scheme=scheme, n=4, t=2, ell=1, seed=36)
    party = parties.SCHEMES[scheme]
    material, creds, _ = party.issue(config)
    sim = ChannelSimulator()
    apis = {cred.owner.value: sim.register(party(
        cred.owner.value, cred, material,
        derive_rng(36, "party", cred.owner.value))) for cred in creds}
    adversary = sim.register_adversary(SimpleNamespace(on_tap=lambda e, a: 0))
    sim._targets[1][0].initiate([1, 2], 1, apis[1])
    sim.run_until_quiescent()
    if forge_own_invitation:
        adversary.inject(invitation_envelope(scheme, 1, 1, [1, 3]), [1])
    else:
        sim._targets[1][0].initiate([1, 3], 1, apis[1])
    return sim.run_until_quiescent(), config


@pytest.mark.parametrize("scheme, first", [("xia2019", 1), ("harn2013", 2)],
                         ids=["xia2019", "harn2013"])
def test_audit_replays_a_refused_session_reuse(scheme, first):
    """`first` is the member of [1, 2] that decides first: the
    initiator under xia2019, its peer under harn2013."""
    transcript, config = reinvited_world(scheme)
    reasons = [(d["party"], d["reason"]) for d in transcript.decisions()]
    assert reasons == [(first, None), (3 - first, None),
                       (1, "session-exhausted")]
    assert audit_transcript(transcript, config)["decisions_match_wire"] == 3
    records = [dict(record) for record in transcript.records]
    refusal = next(i for i, r in enumerate(records)
                   if r.get("reason") == "session-exhausted")
    deleted = records[:refusal] + records[refusal + 1:]
    for i, record in enumerate(deleted[refusal:], refusal + 1):
        record["seq"] = i
    flipped = [dict(r) for r in records]
    flipped[refusal].update(accepted=True, members=[1, 3], reason=None)
    for doctored in (deleted, flipped):
        with pytest.raises(AuditFailure):
            audit_transcript(Transcript(records=doctored), config)


def test_a_second_decision_under_one_key_fails_the_checks():
    """Party 1 decides twice under one key when it refuses to reopen its
    harn run (party 3 waits for a token that party 1 never sends). With
    party 3's decisions left out, the first decisions of parties 1 and 2
    alone pass the checks for group [1, 2]; the second decision of party
    1 must fail them."""
    transcript, _ = reinvited_world("harn2013")
    kept = [r for r in transcript.records
            if r["type"] != "decision" or r["party"] != 3]
    config = config_for(n=4, t=2, seed=36, group=[1, 2])
    material, _, _ = derive_material(config)
    checks = cli.build_report(config, material,
                              Transcript(records=kept))["checks"]
    assert checks["all_members_accept"] is False
    assert checks["no_extra_decisions"] is False
    single = [r for r in kept
              if r["type"] != "decision" or r["members"] == [1, 2]]
    checks = cli.build_report(config, material,
                              Transcript(records=single))["checks"]
    assert checks["all_members_accept"] and checks["no_extra_decisions"]


def test_audit_ignores_a_forged_invitation_in_a_partys_own_name():
    transcript, config = reinvited_world("xia2019",
                                         forge_own_invitation=True)
    assert sorted(d["party"] for d in transcript.decisions()) == [1, 2]
    # only the honest profile's forged count fails; the replayed
    # decisions match, so the forgery was not taken as an `initiate`
    with pytest.raises(AuditFailure) as failure:
        audit_transcript(transcript, config)
    assert "forged" in str(failure.value)
    assert "decided" not in str(failure.value)


def test_audit_replays_a_refused_index_out_of_range():
    """The initiator of xia index ell+1 refuses it, and the other parties
    ignore the invitation; the replay form refuses it by the same rule,
    so the refusal is counted among the decisions that match the wire."""
    config = config_for(scheme="xia2019", n=4, t=2, ell=1, seed=37)
    material, creds, _ = derive_material(config)
    transcript = run_world(parties.XiaParty, material, creds, 37, [1, 2],
                           config.ell + 1)
    assert [r["round"] for r in transcript.envelopes()] == ["invitation"]
    assert [(d["party"], d["reason"]) for d in transcript.decisions()] == [
        (1, "session-exhausted")]
    assert audit_transcript(transcript, config)["decisions_match_wire"] == 1


def test_audit_rejects_non_member_token_after_live_run():
    config = config_for(scheme="xia2019", n=4, t=2)
    transcript, _ = run_scenario(config)
    assert audit_transcript(transcript, config)["decisions_match_wire"] == 4
    p = derive_material(config)[0].group.p
    records = [dict(record) for record in transcript.records]
    token = next(r for r in records if r.get("round") == "token")
    # p - 1 is canonical on the wire but outside the order-q subgroup
    token["payload_hex"] = encode_residue_hex(p - 1, p)
    with pytest.raises(AuditFailure):
        audit_transcript(Transcript(records=records), config)


def test_audit_rejects_non_member_tokens_that_keep_the_product():
    """Negating two tokens leaves the product, and so every aggregate
    check, as it was; since p = 3 mod 4, -1 is a non-residue and both
    negated tokens lie outside the order-q subgroup. Only the membership
    check at wire decode can fail this transcript."""
    config = config_for(scheme="xia2019", n=4, t=2)
    transcript, _ = run_scenario(config)
    p = derive_material(config)[0].group.p
    assert p % 4 == 3
    records = [dict(record) for record in transcript.records]
    tokens = [r for r in records if r.get("round") == "token"]
    assert len(tokens) == 4

    def product():
        return xia2019.xia_aggregate(
            [int(r["payload_hex"], 16) for r in tokens], p)

    before = product()
    for token in tokens[:2]:
        token["payload_hex"] = encode_residue_hex(
            p - int(token["payload_hex"], 16), p)
    assert product() == before
    with pytest.raises(AuditFailure):
        audit_transcript(Transcript(records=records), config)


def counted_products(monkeypatch) -> list:
    """Patch the product behind `xia_verify` to log the multiset of each
    call, sorted; returns the log."""
    original = xia2019.xia_aggregate
    products = []

    def counting(values, p):
        values = tuple(values)
        products.append(tuple(sorted(values)))
        return original(values, p)

    monkeypatch.setattr(xia2019, "xia_aggregate", counting)
    return products


def test_xia_world_checks_its_token_multiset_once(monkeypatch):
    """Every member of an honest world checks the same tokens: the run
    computes their product once, and the audit, whose params are a
    fresh copy with an empty memo, computes it exactly once more."""
    products = counted_products(monkeypatch)
    config = config_for(scheme="xia2019", n=6, t=2)
    transcript, report = run_scenario(config)
    assert [r["accepted"] for r in report["decisions"]] == [True] * 6
    assert len(products) == 1
    assert audit_transcript(transcript, config)["decisions_match_wire"] == 6
    assert products == [products[0]] * 2


def test_xia_world_checks_no_payload_its_parties_sent(monkeypatch):
    """An honest world stores each contribution as decoded when it is
    sent, so the run builds no checked subgroup element; the audit, with
    fresh params, checks each distinct payload once."""
    checked, element = [], xia2019.GroupElement

    def counting(value, group):
        checked.append(value)
        return element(value, group)

    monkeypatch.setattr(xia2019, "GroupElement", counting)
    config = config_for(scheme="xia2019", n=6, t=2)
    transcript, _ = run_scenario(config)
    assert checked == []
    audit_transcript(transcript, config)
    payloads = {r["payload_hex"] for r in transcript.envelopes()
                if r["round"] != ROUND_INVITATION}
    assert len(checked) == len(payloads) == 2 * 6


def test_xia_tamper_victim_keeps_its_own_verdict(monkeypatch):
    """The victim holds a different multiset under the same session, so
    it rejects while the others accept; each multiset is checked once in
    the run and once in the audit."""
    products = counted_products(monkeypatch)
    config = config_for(scheme="xia2019", scenario=SCENARIO_TAMPER,
                        group=[1, 2, 3, 4, 5], t=2)
    transcript, report = run_scenario(config)
    by_party = {r["party"]: r for r in report["decisions"]}
    assert by_party.pop(config.victim)["reason"] == "hash-mismatch"
    assert [r["accepted"] for r in by_party.values()] == [True] * 4
    assert len(products) == len(set(products)) == 2
    assert audit_transcript(transcript, config)
    assert sorted(products[2:]) == sorted(products[:2])


def test_audit_rejects_dropped_decision():
    config = attack_config()
    transcript, _ = run_scenario(config)
    pruned = Transcript(records=[
        record for record in transcript.records
        if not (record["type"] == "decision" and record["party"] == 4)
    ])
    with pytest.raises(AuditFailure, match="party 4"):
        audit_transcript(pruned, config)


def test_audit_rejects_wrong_scenario_profile():
    honest = config_for(scheme="xia2019", t=3, group=[1, 2, 3], n=6)
    transcript, _ = run_scenario(honest)
    claimed_tamper = config_for(scheme="xia2019", t=3, n=6,
                                scenario=SCENARIO_TAMPER, group=[1, 2, 3])
    with pytest.raises(AuditFailure, match="forged"):
        audit_transcript(transcript, claimed_tamper)


# ---------------------------------------------------------------------------
# one judge: the report and the audit read the same transcript facts


def demo_run(name):
    """(config, transcript, report) of a built-in demo at BITS."""
    config = ScenarioConfig.from_json(dict(DEMOS[name]["config"],
                                           prime_bits=BITS))
    transcript, report = run_scenario(config)
    return config, transcript, report


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_report_is_a_function_of_its_transcript(name, tmp_path):
    config, transcript, report = demo_run(name)
    write_outputs(transcript, report, config, tmp_path)
    reread = Transcript.read_jsonl(tmp_path / "transcript.jsonl")
    material, _, _ = derive_material(config)
    rebuilt = cli.build_report(config, material, reread)
    assert json.dumps(rebuilt, indent=2, sort_keys=True) + "\n" == \
        (tmp_path / "report.json").read_text()


@pytest.mark.parametrize("name", ["harn-impersonation", "xia-impersonation",
                                  "xia-two-victims"])
def test_audit_fails_when_a_claimed_member_spoke_to_the_victim(name):
    config, transcript, _ = demo_run(name)
    records = [dict(r) for r in transcript.records]
    relabelled = next(r for r in records if r["type"] == "envelope"
                      and r["true_origin"] == 0
                      and r["round"] != "invitation"
                      and r["recipients"] == [config.victim])
    relabelled["true_origin"] = relabelled["claimed_sender"]
    with pytest.raises(AuditFailure, match="spoke to it"):
        audit_transcript(Transcript(records=records), config)


def test_audit_fails_when_a_forged_envelope_reaches_a_bystander():
    config, transcript, _ = demo_run("xia-impersonation")
    records = [dict(r) for r in transcript.records]
    forged = next(r for r in records if r["type"] == "envelope"
                  and r["true_origin"] == 0 and r["round"] == "token")
    forged["recipients"] = [1, *forged["recipients"]]
    with pytest.raises(AuditFailure, match="^forged envelopes reached "
                       "parties other than the victims$"):
        audit_transcript(Transcript(records=records), config)


def test_undecodable_observed_token_fails_the_replay_not_the_judge():
    """A non-canonical observed token: the replayed parties drop it, so the
    audit names the mismatch; the judge decodes through the same params,
    so it counts the token as never sent and learns nothing."""
    config, transcript, _ = demo_run("harn-impersonation")
    records = [dict(r) for r in transcript.records]
    token = next(r for r in records if r["type"] == "envelope"
                 and r["round"] == "token" and r["session"][1] == 1)
    token["payload_hex"] = token["payload_hex"].upper() + "G"
    doctored = Transcript(records=records)
    with pytest.raises(AuditFailure, match="wire data says"):
        audit_transcript(doctored, config)
    material, _, _ = derive_material(config)
    report = cli.build_report(config, material, doctored)
    assert [o["learned_secret"] for o in report["outcomes"]] == [None]


# ---------------------------------------------------------------------------
# public surface


def test_every_exported_name_resolves():
    missing = [name for name in groupauth.__all__
               if not hasattr(groupauth, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# command-line entry


def write_config(tmp_path, **overrides):
    raw = {"scheme": "harn2013", "scenario": SCENARIO_HONEST,
           "n": 5, "t": 2, "prime_bits": BITS, "seed": 5}
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_command_writes_outputs(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out_dir)]) == 0
    for name in ("transcript.jsonl", "report.json", "config.json"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert "verdict: expected" in stdout


def test_run_command_is_byte_deterministic(tmp_path):
    config_path = write_config(
        tmp_path, scheme="xia2019", t=3, scenario=SCENARIO_IMPERSONATION,
        n=6, observed_group=[1, 2, 3], victim=4, fake_group=[4, 5, 6],
    )
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", str(config_path), "--out-dir", str(first)]) == 0
    assert main(["run", str(config_path), "--out-dir", str(second)]) == 0
    for name in ("transcript.jsonl", "report.json", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_command_seed_override_changes_material(tmp_path):
    config_path = write_config(tmp_path)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", str(config_path), "--out-dir", str(first)]) == 0
    assert main(["run", str(config_path), "--out-dir", str(second),
                 "--seed", "6"]) == 0
    assert ((first / "transcript.jsonl").read_bytes()
            != (second / "transcript.jsonl").read_bytes())
    echoed = json.loads((second / "config.json").read_text())
    assert echoed["seed"] == 6


def test_audit_command_round_trip(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["audit", str(out_dir / "transcript.jsonl"),
                 str(out_dir / "config.json")])
    assert code == 0
    assert "audit: PASS" in capsys.readouterr().out


def test_audit_command_fails_on_truncated_transcript(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out_dir)]) == 0
    transcript_path = out_dir / "transcript.jsonl"
    text = transcript_path.read_text().splitlines(True)
    (out_dir / "cut.jsonl").write_text(
        "".join(text[:-1]) + text[-1][: len(text[-1]) // 2]
    )
    code = main(["audit", str(out_dir / "cut.jsonl"),
                 str(out_dir / "config.json")])
    assert code == 1


def test_audit_command_fails_on_doctored_decision(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(config_path), "--out-dir", str(out_dir)]) == 0
    transcript_path = out_dir / "transcript.jsonl"
    lines = transcript_path.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record["type"] == "decision" and record["party"] == 2:
            record["accepted"] = False
            record["members"] = None
            record["reason"] = "hash-mismatch"
        doctored.append(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")))
    transcript_path.write_text("\n".join(doctored) + "\n")
    capsys.readouterr()
    code = main(["audit", str(transcript_path),
                 str(out_dir / "config.json")])
    assert code == 1
    assert "audit: FAIL" in capsys.readouterr().out


def replace_first_record(lines, **fields):
    record = json.loads(lines[0])
    record.update(fields)
    return [json.dumps(record)] + lines[1:]


def forge_origin(lines, origin):
    """Give the first forged envelope another true origin."""
    records = [json.loads(line) for line in lines]
    forged = next(r for r in records if r["type"] == "envelope"
                  and r["true_origin"] != r["claimed_sender"])
    forged["true_origin"] = origin
    return [json.dumps(r) for r in records]


def genuine_from(lines, sender):
    """Append the first token envelope again, sent genuinely by `sender`
    to party 5."""
    records = [json.loads(line) for line in lines]
    token = next(r for r in records if r["type"] == "envelope"
                 and r["round"] == "token")
    token.update(seq=len(records) + 1, claimed_sender=sender,
                 true_origin=sender, recipients=[5])
    return lines + [json.dumps(token)]


def sent_as_party_zero(lines):
    """Append the first envelope again, sent by the adversary in the name
    of party 0 to parties 1 and 2."""
    record = json.loads(lines[0])
    record.update(seq=len(lines) + 1, claimed_sender=0, true_origin=0,
                  recipients=[1, 2])
    return lines + [json.dumps(record)]


def repeat_seq(lines):
    """Give record 1 the seq of record 0."""
    records = [json.loads(line) for line in lines]
    records[1]["seq"] = records[0]["seq"]
    return [json.dumps(r) for r in records]


@pytest.mark.parametrize("demo, doctor", [
    ("harn-honest", lambda lines: ['{"type":"envelope"}']),
    ("harn-honest",
     lambda lines: replace_first_record(lines, session="harn2013")),
    ("harn-honest",
     lambda lines: replace_first_record(lines, recipients=[2, 3, 4, 5, 99])),
    ("harn-honest", lambda lines: lines + [json.dumps({
        "type": "decision", "seq": 999, "party": 99,
        "session": ["harn2013", 1], "accepted": True,
        "members": [1, 2, 3], "reason": None,
    })]),
    ("harn-impersonation", lambda lines: forge_origin(lines, 99)),
    ("harn-impersonation", repeat_seq),
    ("harn-honest", lambda lines: genuine_from(lines, 99)),
    ("harn-honest", sent_as_party_zero),
    ("xia-honest", sent_as_party_zero),
    ("harn-honest",
     lambda lines: replace_first_record(lines, recipients=[2, 2, 3, 4, 5])),
    ("xia-honest",
     lambda lines: replace_first_record(lines, recipients=[5, 4, 3, 2])),
    ("xia-impersonation",
     lambda lines: replace_first_record(lines, recipients=[6, 5, 3, 2])),
], ids=["envelope-without-fields", "string-session", "unknown-recipient",
        "decision-by-unknown-party", "forged-from-unknown-origin",
        "repeated-seq", "genuine-from-unknown-party",
        "harn-forged-as-party-zero", "xia-forged-as-party-zero",
        "repeated-recipient", "reversed-recipients",
        "attack-reversed-recipients"])
def test_audit_command_fails_on_hostile_transcript(demo, doctor, tmp_path,
                                                   capsys):
    out_dir = tmp_path / "out"
    assert main(["demo", demo, "--out-dir", str(out_dir)]) == 0
    transcript_path = out_dir / "transcript.jsonl"
    lines = doctor(transcript_path.read_text().splitlines())
    transcript_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["audit", str(transcript_path),
                 str(out_dir / "config.json")])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "audit: FAIL" in stdout and "PASS" not in stdout


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_missing_transcript_is_usage_error(tmp_path, capsys):
    config_path = write_config(tmp_path)
    code = main(["audit", str(tmp_path / "nope.jsonl"), str(config_path)])
    assert code == 2
    assert "cannot read transcript" in capsys.readouterr().err


def test_invalid_config_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scheme": "harn2013"}))
    assert main(["run", str(path)]) == 2


def test_n_at_the_field_size_is_a_config_error(tmp_path, capsys):
    """n >= 2**(prime_bits - 2) is refused before any dealer work."""
    path = write_config(tmp_path, scheme="harn2013",
                        scenario=SCENARIO_QUORUM, n=70000, t=3,
                        prime_bits=16, group=[1, 2])
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error:" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert config_for(n=2**14 - 1, prime_bits=16).n == 2**14 - 1
    with pytest.raises(ConfigError, match="n = 16384 needs prime_bits >= 17"):
        config_for(scheme="xia2019", n=2**14, prime_bits=16)


@pytest.mark.parametrize("command", ["run", "demo"])
def test_out_dir_naming_a_file_is_a_config_error(command, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    target = (str(write_config(tmp_path)) if command == "run"
              else "harn-honest")
    code = main([command, target, "--out-dir", str(blocker),
                 "--prime-bits", str(BITS)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: cannot write outputs under %s" % blocker \
        in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert blocker.read_text() == "not a directory\n"


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_demo_list_names_every_demo(capsys):
    assert main(["demo", "--list"]) == 0
    stdout = capsys.readouterr().out
    for name in DEMOS:
        assert name in stdout


def test_demo_unknown_name_is_usage_error(capsys):
    assert main(["demo", "not-a-demo"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_every_demo_runs_and_audits(name, tmp_path, capsys):
    code = main(["demo", name, "--out-dir", str(tmp_path / name),
                 "--prime-bits", str(BITS)])
    stdout = capsys.readouterr().out
    assert code == 0, stdout
    assert "verdict: expected" in stdout
    assert "audit: PASS" in stdout


def run_fresh_python(code, cwd):
    """Run `code` in a new interpreter that imports this groupauth."""
    src = str(Path(groupauth.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_import_does_not_load_sympy(tmp_path):
    done = run_fresh_python(
        "import sys, groupauth\nassert 'sympy' not in sys.modules", tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["xia-impersonation", "harn-impersonation"])
def test_demo_runs_and_audits_without_sympy(name, tmp_path):
    # a None entry in sys.modules makes any `import sympy` fail
    argv = ["demo", name, "--prime-bits", "64", "--out-dir",
            str(tmp_path / name)]
    code = ("import sys\nsys.modules['sympy'] = None\n"
            "from groupauth.cli import main\nsys.exit(main(%r))" % argv)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "audit: PASS" in done.stdout


def test_load_config_applies_overrides(tmp_path):
    path = write_config(tmp_path, seed=1, prime_bits=64)
    config = load_config(path, seed=2, prime_bits=32)
    assert config.seed == 2
    assert config.prime_bits == 32
