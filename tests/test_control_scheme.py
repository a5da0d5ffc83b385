"""A control scheme: the masked-product scheme with every contribution
signed by its sender.

The two schemes fall to a credential-less channel owner because nothing
ties a token to the identity that claims to have sent it. The control
scheme adds exactly that binding and nothing else: the dealer issues
each participant a Schnorr signing key (C. P. Schnorr, "Efficient
Signature Generation by Smart Cards", J. Cryptology 4, 1991) and
publishes the public keys in the params, and every commitment and token
carries a signature over the session, the sender's view of the group,
the round and the value, which a receiver checks against its own view.
The masked-product math is unchanged.

The scheme is built here from the extension points alone: a params
subclass that owns its wire format (`encode` and `_check`), a `Party`
subclass registered in `parties.SCHEMES`, and a `XiaChannelAttack`
subclass registered in `adversary.BINDINGS` that changes only `party`.
The cli's scenarios, `run_world`, the report and the audit run it as
they are. Under the unchanged attack, stage one still recovers the
observed power and every forged envelope still goes out, but the
victim rejects: the forged values carry no valid signature, and a
replayed token's signature names another view.
"""

import hashlib
from dataclasses import dataclass, fields

import pytest

from groupauth import adversary, parties
from groupauth.adversary import XiaChannelAttack
from groupauth.algebra import derive_rng
from groupauth.channel import (
    ADVERSARY_ID,
    REASON_HASH_MISMATCH,
    REASON_QUORUM,
    ROUND_TOKEN,
    Transcript,
    decode_residue_hex,
    encode_residue_hex,
    hex_width,
)
from groupauth.cli import (
    ScenarioConfig,
    audit_transcript,
    derive_material,
    expected_forged_count,
    run_scenario,
)
from groupauth.errors import MalformedTranscript
from groupauth.parties import XiaParty
from groupauth.xia2019 import SCHEME_TAG as XIA_TAG
from groupauth.xia2019 import XiaCredential, XiaParams

from conftest import assert_decoded_as_cold, recorded_materials

CONTROL_TAG = "xia2019-signed"
NO_SIGNATURE = (0, 0)


class Signed(int):
    """A contribution together with the signature (e, s) its payload
    carries; the masked-product math reads it as the plain int."""

    def __new__(cls, value: int, signature: tuple):
        signed = super().__new__(cls, value)
        signed.signature = signature
        return signed


def _challenge(params, commitment: int, statement: str) -> int:
    text = "%x|%s" % (commitment, statement)
    return int.from_bytes(hashlib.sha256(text.encode()).digest(),
                          "big") % params.group.q


def signing_base(params) -> int:
    """The generator of the signing keys: the first session's."""
    return params.generators[0].value


def sign(params, key: int, statement: str, rng) -> tuple:
    """Schnorr signature (e, s) on `statement` under secret `key`."""
    p, q = params.group.p, params.group.q
    nonce = rng.randrange(1, q)
    e = _challenge(params, pow(signing_base(params), nonce, p), statement)
    return e, (nonce + key * e) % q


def signature_holds(params, sender: int, statement: str,
                    signature: tuple) -> bool:
    """Whether `signature` is `sender`'s on `statement`."""
    p = params.group.p
    e, s = signature
    public = params.public_keys[sender - 1]
    commitment = pow(signing_base(params), s, p) * pow(public, -e, p) % p
    return e == _challenge(params, commitment, statement)


def statement(key: tuple, view: tuple, round_: str, value: int) -> str:
    """What a contribution's signature covers: the session (scheme tag,
    session id), the view of the group, the round and the value."""
    return "%s|%d|%s|%s|%x" % (*key, ",".join(map(str, view)), round_,
                               value)


@dataclass(frozen=True)
class ControlParams(XiaParams):
    """`XiaParams` plus one public key per participant (party i's at
    index i - 1). A payload is the residue followed by the signature's
    e and s, each in fixed-width hex mod q. `decode` checks the residue
    as the masked-product scheme does and accepts any well-formed
    signature field: who must have signed is known only to a party that
    knows the claimed sender, so `ControlParty._verify` checks it. A
    value that carries no signature (the adversary's draws and closing
    values, a tampered token) goes out with the zero signature, which
    fails verification but for a chance of about 1/q."""

    public_keys: tuple

    def encode(self, value: int) -> str:
        e, s = getattr(value, "signature", NO_SIGNATURE)
        q = self.group.q
        return (super().encode(value) + encode_residue_hex(e, q)
                + encode_residue_hex(s, q))

    def _check(self, payload: str) -> int:
        q = self.group.q
        cut, width = hex_width(self.modulus), hex_width(q)
        if len(payload) != cut + 2 * width:
            raise MalformedTranscript("bad signed payload %r" % (payload,))
        signature = (decode_residue_hex(payload[cut:cut + width], q),
                     decode_residue_hex(payload[cut + width:], q))
        return Signed(super()._check(payload[:cut]), signature)


@dataclass(frozen=True)
class ControlCredential(XiaCredential):
    """A masked-product credential plus the holder's signing key."""

    signing_key: int


class ControlParty(XiaParty):
    """The masked-product scheme with signed contributions: a session
    accepts only if every contribution in every round is signed by its
    claimed sender over this party's view, and the product checks."""

    scheme = CONTROL_TAG

    @staticmethod
    def issue(config) -> tuple:
        params, credentials, secret = XiaParty.issue(config)
        rng = derive_rng(config.seed, "signing keys")
        keys = [rng.randrange(1, params.group.q) for _ in credentials]
        base, p = signing_base(params), params.group.p
        control = ControlParams(
            **{f.name: getattr(params, f.name) for f in fields(params)
               if f.init},
            public_keys=tuple(pow(base, key, p) for key in keys),
        )
        return control, [
            ControlCredential(c.owner, c.share, key)
            for c, key in zip(credentials, keys)
        ], secret

    def _contribute(self, session, round_: str) -> int:
        value = super()._contribute(session, round_)
        signed = statement(session.key, session.view, round_, value)
        return Signed(value, sign(self.params, self.credential.signing_key,
                                  signed, self.rng))

    def _verify(self, session, tokens) -> bool:
        signed = all(
            signature_holds(self.params, sender,
                            statement(session.key, session.view, round_,
                                      value),
                            value.signature)
            for round_ in self.rounds
            for sender, value in session.received[round_].items()
        )
        return signed and super()._verify(session, tokens)


class ControlAttack(XiaChannelAttack):
    """The masked-product attack, unchanged, aimed at the control
    scheme's traffic."""

    party = ControlParty


@pytest.fixture
def control(monkeypatch):
    """The control scheme and its attack binding, registered for one
    test."""
    monkeypatch.setitem(parties.SCHEMES, CONTROL_TAG, ControlParty)
    monkeypatch.setitem(adversary.BINDINGS, ControlParty, ControlAttack)


def run_and_audit(raw: dict, tmp_path) -> tuple:
    """(config, report) of a 64-bit run whose written transcript the
    audit passes."""
    config = ScenarioConfig.from_json({"prime_bits": 64, **raw})
    transcript, report = run_scenario(config)
    path = tmp_path / "transcript.jsonl"
    transcript.write_jsonl(path)
    audit_transcript(Transcript.read_jsonl(path), config)
    return config, report


def decision(report: dict, party: int) -> dict:
    (record,) = [r for r in report["decisions"] if r["party"] == party]
    return record


PLAIN = {
    "honest": {"scenario": "honest", "n": 5, "t": 3, "ell": 2, "seed": 17},
    "quorum": {"scenario": "quorum-violation", "n": 5, "t": 3,
               "group": [1, 2], "seed": 19},
    "tamper": {"scenario": "tamper", "n": 5, "t": 3, "group": [1, 2, 3],
               "tamper_target": 3, "victim": 1, "seed": 11},
}

ATTACKS = {
    "impersonation": {"scenario": "impersonation", "n": 6, "t": 3,
                      "observed_group": [1, 2, 3], "victim": 4,
                      "fake_group": [4, 5, 6], "seed": 23},
    "replay-member": {"scenario": "impersonation", "n": 6, "t": 3,
                      "observed_group": [1, 2, 3], "victim": 4,
                      "fake_group": [3, 4, 5], "replay_member": 3,
                      "seed": 37},
    "simultaneous": {"scenario": "impersonation-simultaneous", "n": 6,
                     "t": 3, "observed_group": [1, 2, 3], "victim": 4,
                     "fake_group": [4, 5, 6], "seed": 29},
}


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_scenarios_behave_as_expected(control, tmp_path, name):
    _, report = run_and_audit({"scheme": CONTROL_TAG, **PLAIN[name]},
                              tmp_path)
    assert report["verdict"] == "expected", report["checks"]
    if name == "tamper":
        assert decision(report, 1)["reason"] == REASON_HASH_MISMATCH
    if name == "quorum":
        assert decision(report, 1)["reason"] == REASON_QUORUM


@pytest.mark.parametrize("name", sorted(ATTACKS))
@pytest.mark.parametrize("scheme", [XIA_TAG, CONTROL_TAG])
def test_the_attack_runs_and_only_the_sender_binding_stops_it(
        control, tmp_path, scheme, name):
    config, report = run_and_audit({"scheme": scheme, **ATTACKS[name]},
                                   tmp_path)
    params, _, secret = derive_material(config)
    observed_power = pow(params.generator_for(1).value, secret.value,
                         params.modulus)
    # the attack ran to completion: stage one recovered the power and
    # every envelope the profile counts went out
    (outcome,) = report["outcomes"]
    assert outcome["learned_secret"] == format(observed_power, "x")
    assert report["counts"]["forged"] == expected_forged_count(config)
    assert report["checks"]["forged_count_matches"]
    assert report["checks"]["observed_run_accepted"]
    # the same forgery deceives the masked-product victim and fails
    # against the signed one
    deceived = scheme == XIA_TAG
    assert report["checks"]["victims_deceived"] is deceived
    assert outcome["success"] is deceived
    victim = decision(report, config.victim)
    if deceived:
        assert victim["members"] == list(config.fake_group)
    else:
        assert not victim["accepted"]
        assert victim["reason"] == REASON_HASH_MISMATCH


@pytest.mark.parametrize("name", sorted({**PLAIN, **ATTACKS}))
def test_every_decoded_value_is_what_a_cold_decode_gives(control,
                                                         monkeypatch, name):
    """The contributions a live run stores in the decode memo as they are
    sent are the `Signed` values that a cold decode reads from their
    payloads, signature included."""
    materials = recorded_materials(monkeypatch)
    raw = {**PLAIN, **ATTACKS}[name]
    config = ScenarioConfig.from_json({"scheme": CONTROL_TAG,
                                       "prime_bits": 64, **raw})
    transcript, _ = run_scenario(config)
    (params, _, _), = materials
    assert isinstance(params, ControlParams)
    assert_decoded_as_cold(params, transcript)


def test_a_replayed_token_carries_the_observed_view(control):
    config = ScenarioConfig.from_json(
        {"scheme": CONTROL_TAG, "prime_bits": 64, **ATTACKS["replay-member"]})
    transcript, _ = run_scenario(config)
    params, _, _ = derive_material(config)
    genuine, forged = [
        [r["payload_hex"] for r in transcript.envelopes()
         if r["round"] == ROUND_TOKEN and r["claimed_sender"] == 3
         and r["true_origin"] == origin]
        for origin in (3, ADVERSARY_ID)
    ]
    assert genuine == forged  # replayed verbatim, signature included
    token = params.decode(genuine[0])

    def signed_for(view) -> bool:
        return signature_holds(
            params, 3, statement((CONTROL_TAG, 1), view, ROUND_TOKEN, token),
            token.signature)

    assert signed_for(config.observed_group)
    assert not signed_for(config.fake_group)


def test_decode_accepts_any_well_formed_signature_field(control):
    config = ScenarioConfig.from_json(
        {"scheme": CONTROL_TAG, "prime_bits": 64, **PLAIN["honest"]})
    params, _, _ = derive_material(config)
    value = params.generator_for(1).value
    for signature in (NO_SIGNATURE, (1, params.group.q - 1)):
        decoded = params.decode(params.encode(Signed(value, signature)))
        assert decoded == value and decoded.signature == signature
    payload = params.encode(value)
    assert params.decode(payload[:-1]) is None  # a digit short
    assert params.decode(payload + "0") is None
    assert params.decode("f" * len(payload)) is None  # residue out of range
