"""Channel semantics: fan-out, blocking, tapping, injection, transcripts,
and honest end-to-end runs of both schemes over the simulator."""

import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupauth.algebra import derive_rng
from groupauth.channel import (
    ADVERSARY_ID,
    AdversaryPolicy,
    BeliefState,
    ChannelSimulator,
    Envelope,
    ROUND_COMMITMENT,
    ROUND_INVITATION,
    ROUND_TOKEN,
    Transcript,
    WILDCARD,
    decode_json_hex,
    decode_residue_hex,
    encode_json_hex,
    encode_residue_hex,
    hex_width,
)
from groupauth.errors import (
    MalformedTranscript,
    SimulationDiverged,
    UnknownParty,
)
from groupauth.harn2013 import harn_gm_init
from groupauth.parties import HarnParty, XiaParty
from groupauth.xia2019 import xia_gm_init


class Recorder:
    """Minimal party that just logs deliveries."""

    def __init__(self, party_id):
        self.party_id = party_id
        self.received = []

    def on_envelope(self, envelope, api):
        self.received.append(envelope)


class PingPong:
    """Pathological party pair that rebroadcasts forever."""

    def __init__(self, party_id):
        self.party_id = party_id

    def on_envelope(self, envelope, api):
        api.broadcast(Envelope(
            claimed_sender=self.party_id,
            session=("harn2013", 1),
            round=ROUND_TOKEN,
            payload="00",
        ))


def env(sender=1, session=("harn2013", 1), round_=ROUND_TOKEN, payload="ab"):
    return Envelope(claimed_sender=sender, session=session, round=round_,
                    payload=payload)


# ---------------------------------------------------------------------------
# wire helpers


class TestWireEncoding:
    def test_hex_width_follows_modulus(self):
        assert hex_width(0xFFFF + 1) == 5  # 17 bits -> 5 digits
        assert hex_width((1 << 64) - 59) == 16

    def test_round_trip_fixed_width(self):
        p = (1 << 64) - 59
        text = encode_residue_hex(5, p)
        assert len(text) == 16
        assert text == "0000000000000005"
        assert decode_residue_hex(text, p) == 5

    def test_decode_rejects_bad_width_and_range(self):
        p = 10_007
        with pytest.raises(MalformedTranscript):
            decode_residue_hex("05", p)  # too narrow
        with pytest.raises(MalformedTranscript):
            decode_residue_hex("271a", p)  # 10010 >= p
        with pytest.raises(MalformedTranscript):
            decode_residue_hex("00ZZ", p)

    def test_encode_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            encode_residue_hex(10_007, 10_007)

    def test_json_payload_round_trip(self):
        body = {"group": [3, 1, 2], "session": 4}
        assert decode_json_hex(encode_json_hex(body)) == body

    @pytest.mark.parametrize("text", [
        "+abc",        # sign
        "-000",
        "a_bc",        # digit separator
        " abc",        # surrounding whitespace
        "abc\n",
        "0xab",        # prefix
        "ABCD",        # uppercase
        "00Ab",
        "\u0661\u0662\u0663\u0664",  # Arabic-Indic digits
        "\uff11\uff12\uff13\uff14",  # fullwidth digits
        "abc\x00",
    ])
    def test_decode_rejects_non_canonical_text(self, text):
        with pytest.raises(MalformedTranscript):
            decode_residue_hex(text, 0xFFFF)

    @pytest.mark.parametrize("text", [
        " 7b7d", "7b7d\n", "7b 7d", "\t7b7d", "7B7D", "7b7D",
        "7b7", "",
    ])
    def test_json_decode_rejects_non_canonical_hex(self, text):
        with pytest.raises(MalformedTranscript):
            decode_json_hex(text)

    @given(st.one_of(
        st.text(max_size=6),
        st.text(alphabet="0123456789abcdefABX+-_ \n\u0661", min_size=4,
                max_size=4),
    ))
    def test_accepted_text_is_the_encoding_of_its_value(self, text):
        """One accepted spelling per residue, so a cache keyed on the
        payload holds one key per value."""
        p = 0xFFF1
        try:
            value = decode_residue_hex(text, p)
        except MalformedTranscript:
            return
        assert encode_residue_hex(value, p) == text

    @given(st.text(alphabet="0123456789abcdefAB \n", max_size=8))
    def test_accepted_json_hex_is_canonical_hex(self, text):
        try:
            decode_json_hex(text)
        except MalformedTranscript:
            return
        assert bytes.fromhex(text).hex() == text


# ---------------------------------------------------------------------------
# simulator semantics


class TestBroadcast:
    def test_fanout_excludes_sender(self):
        sim = ChannelSimulator()
        parties = [Recorder(i) for i in (1, 2, 3)]
        for party in parties:
            sim.register(party)
        sim.broadcast(1, env())
        sim.run_until_quiescent()
        assert len(parties[0].received) == 0
        assert len(parties[1].received) == 1
        assert len(parties[2].received) == 1

    def test_unregistered_sender_rejected(self):
        sim = ChannelSimulator()
        sim.register(Recorder(1))
        with pytest.raises(UnknownParty):
            sim.broadcast(9, env(sender=9))

    def test_duplicate_registration_rejected(self):
        sim = ChannelSimulator()
        sim.register(Recorder(1))
        with pytest.raises(UnknownParty):
            sim.register(Recorder(1))
        with pytest.raises(UnknownParty):
            sim.register(Recorder(ADVERSARY_ID))

    def test_seq_is_unique_and_monotonic(self):
        sim = ChannelSimulator()
        for i in (1, 2):
            sim.register(Recorder(i))
        sim.broadcast(1, env())
        sim.broadcast(2, env(sender=2))
        seqs = [r["seq"] for r in sim.transcript.envelopes()]
        assert seqs == [1, 2]

    def test_wildcard_block_isolates_recipient(self):
        policy = AdversaryPolicy(blocked_links={(WILDCARD, 3)})
        sim = ChannelSimulator(policy=policy)
        parties = {i: Recorder(i) for i in (1, 2, 3)}
        for party in parties.values():
            sim.register(party)
        sim.broadcast(1, env())
        sim.run_until_quiescent()
        assert len(parties[2].received) == 1
        assert len(parties[3].received) == 0
        # the transcript shows the envelope went out, minus the victim
        assert sim.transcript.envelopes()[0]["recipients"] == [2]

    def test_pairwise_block(self):
        policy = AdversaryPolicy(blocked_links={(1, 2)})
        sim = ChannelSimulator(policy=policy)
        parties = {i: Recorder(i) for i in (1, 2, 3)}
        for party in parties.values():
            sim.register(party)
        sim.broadcast(1, env())
        sim.broadcast(3, env(sender=3))
        sim.run_until_quiescent()
        # 1 -> 2 blocked, 3 -> 2 delivered
        assert len(parties[2].received) == 1
        assert parties[2].received[0].claimed_sender == 3


class TapCollector:
    def __init__(self):
        self.seen = []

    def on_tap(self, envelope, api):
        self.seen.append(envelope)


class TestTapAndInject:
    def test_tap_sees_blocked_traffic(self):
        policy = AdversaryPolicy(blocked_links={(WILDCARD, 2)})
        sim = ChannelSimulator(policy=policy)
        for i in (1, 2):
            sim.register(Recorder(i))
        tap = TapCollector()
        sim.register_adversary(tap)
        sim.broadcast(1, env())
        sim.run_until_quiescent()
        assert len(tap.seen) == 1
        assert tap.seen[0].claimed_sender == 1
        assert tap.seen[0].seq == 1

    def test_inject_reaches_exact_recipients_and_bypasses_blocks(self):
        policy = AdversaryPolicy(blocked_links={(WILDCARD, 2)})
        sim = ChannelSimulator(policy=policy)
        parties = {i: Recorder(i) for i in (1, 2, 3)}
        for party in parties.values():
            sim.register(party)
        api = sim.register_adversary(TapCollector())
        api.inject(env(sender=7), recipients=[2])
        sim.run_until_quiescent()
        assert len(parties[2].received) == 1
        assert len(parties[3].received) == 0
        record = sim.transcript.envelopes()[0]
        assert record["claimed_sender"] == 7
        assert record["true_origin"] == ADVERSARY_ID

    def test_inject_requires_adversary_and_known_recipients(self):
        sim = ChannelSimulator()
        sim.register(Recorder(1))
        with pytest.raises(UnknownParty):
            sim.inject(env(), recipients=[1])
        api = sim.register_adversary(TapCollector())
        with pytest.raises(UnknownParty):
            api.inject(env(), recipients=[9])

    def test_forged_envelope_indistinguishable_at_recipient(self):
        """The delivered object carries the same fields either way; only
        the transcript keeps the true origin."""
        sim = ChannelSimulator()
        parties = {i: Recorder(i) for i in (1, 2)}
        for party in parties.values():
            sim.register(party)
        api = sim.register_adversary(TapCollector())
        sim.broadcast(1, env(payload="aa"))
        api.inject(env(payload="aa"), recipients=[2])
        sim.run_until_quiescent()
        genuine, forged = parties[2].received
        assert genuine.claimed_sender == forged.claimed_sender
        assert genuine.payload == forged.payload
        assert genuine.session == forged.session
        records = sim.transcript.envelopes()
        assert records[0]["true_origin"] == 1
        assert records[1]["true_origin"] == ADVERSARY_ID

    def test_reactive_injection_lands_after_pending_deliveries(self):
        """The adversary reacts at send time but its envelope queues
        behind the fan-out already pending."""

        class Reactor(TapCollector):
            def on_tap(self, envelope, api):
                super().on_tap(envelope, api)
                if envelope.round == ROUND_TOKEN:
                    api.inject(env(sender=9, payload="ff"),
                               recipients=[2])

        sim = ChannelSimulator()
        parties = {i: Recorder(i) for i in (1, 2)}
        for party in parties.values():
            sim.register(party)
        sim.register_adversary(Reactor())
        sim.broadcast(1, env(payload="aa"))
        sim.run_until_quiescent()
        assert [e.payload for e in parties[2].received] == ["aa", "ff"]


class TestRunLoop:
    def test_divergence_guard(self):
        sim = ChannelSimulator(max_events=50)
        for i in (1, 2):
            sim.register(PingPong(i))
        sim.broadcast(1, env())
        with pytest.raises(SimulationDiverged):
            sim.run_until_quiescent()

    def test_empty_run_is_a_noop(self):
        sim = ChannelSimulator()
        sim.register(Recorder(1))
        transcript = sim.run_until_quiescent()
        assert transcript.records == []

    def test_dropped_simulator_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            sim = ChannelSimulator()
            for i in (1, 2):
                sim.register(Recorder(i))
            sim.register_adversary(TapCollector())
            sim.broadcast(1, env())
            sim.run_until_quiescent()
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# transcripts


class TestTranscript:
    def test_jsonl_round_trip(self, tmp_path):
        sim = ChannelSimulator()
        for i in (1, 2):
            sim.register(Recorder(i))
        sim.broadcast(1, env())
        sim.record_decision(1, ("harn2013", 1),
                            BeliefState(True, members=frozenset({1, 2})))
        path = tmp_path / "t.jsonl"
        sim.transcript.write_jsonl(path)
        loaded = Transcript.read_jsonl(path)
        assert loaded.records == sim.transcript.records

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        blob = '{"type":"envelope","seq":1,"claimed_sender":1,'
        path.write_text(blob)  # no newline, cut mid-record
        with pytest.raises(MalformedTranscript):
            Transcript.read_jsonl(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"mystery"}\n')
        with pytest.raises(MalformedTranscript):
            Transcript.read_jsonl(path)

    @pytest.mark.parametrize("line", [
        b'[1, 2]',
        b'{"type": ["envelope"]}',
        b'{"type":"decision","seq":1,"party":1,"session":["harn2013",1],'
        b'"accepted":1,"members":null,"reason":null}',
        b'{"type":"decision","seq":1,"party":true,"session":["harn2013",1],'
        b'"accepted":false,"members":null,"reason":null}',
        b'{"type":"decision","seq":1,"party":1,"session":["harn2013",1],'
        b'"accepted":false,"members":null,"reason":null,"extra":0}',
        b'{"type":"envelope","seq":1,"claimed_sender":1,"true_origin":1,'
        b'"session":["harn2013",1],"round":"token","payload_hex":"ab",'
        b'"recipients":[2.0]}',
        b'{"type":"envelope","seq":1,"claimed_sender":1,"true_origin":1,'
        b'"session":["harn2013",1,2],"round":"token","payload_hex":"ab",'
        b'"recipients":[2]}',
        b'"\xff"',
    ])
    def test_malformed_record_rejected(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_bytes(line + b"\n")
        with pytest.raises(MalformedTranscript, match="line 1"):
            Transcript.read_jsonl(path)

    def test_belief_state_round_trip(self):
        accept = BeliefState(True, members=frozenset({3, 1}))
        reject = BeliefState(False, reason="quorum")
        assert BeliefState.from_json(accept.to_json()) == accept
        assert BeliefState.from_json(reject.to_json()) == reject


# ---------------------------------------------------------------------------
# honest end-to-end runs over the channel


def build_xia_world(n=4, t=2, ell=1, seed=21, policy=None):
    params, creds, s = xia_gm_init(n, t, ell=ell, prime_bits=64,
                                   rng_seed=seed)
    sim = ChannelSimulator(policy=policy)
    apis = {}
    for cred in creds:
        pid = cred.owner.value
        party = XiaParty(pid, cred, params, derive_rng(seed, "party", pid))
        apis[pid] = sim.register(party)
    return params, creds, s, sim, apis


def build_harn_world(n=4, t=2, seed=22, policy=None):
    bundle, creds, s = harn_gm_init(n, t, prime_bits=64, rng_seed=seed)
    sim = ChannelSimulator(policy=policy)
    apis = {}
    parties = {}
    for cred in creds:
        pid = cred.owner.value
        party = HarnParty(pid, cred, bundle)
        parties[pid] = party
        apis[pid] = sim.register(party)
    return bundle, creds, s, sim, parties, apis


class TestHonestRuns:
    def test_xia_round_counts_and_decisions(self):
        params, _, _, sim, apis = build_xia_world(n=4, t=2, seed=31)
        first = sim._parties[1]
        first.initiate([1, 2, 3], 1, apis[1])
        transcript = sim.run_until_quiescent()
        by_round = {}
        for record in transcript.envelopes():
            by_round.setdefault(record["round"], []).append(record)
        assert len(by_round["invitation"]) == 1
        assert len(by_round["commitment"]) == 3
        assert len(by_round["token"]) == 3
        decisions = transcript.decisions()
        assert len(decisions) == 3
        for decision in decisions:
            assert decision["accepted"] is True
            assert decision["members"] == [1, 2, 3]
        assert transcript.forged() == []

    def test_harn_round_counts_and_decisions(self):
        bundle, _, _, sim, parties, apis = build_harn_world(n=5, t=2, seed=32)
        parties[2].initiate([2, 3, 5], 7, apis[2])
        transcript = sim.run_until_quiescent()
        rounds = [r["round"] for r in transcript.envelopes()]
        assert rounds.count("invitation") == 1
        assert rounds.count("token") == 3
        decisions = transcript.decisions()
        assert len(decisions) == 3
        assert all(d["accepted"] for d in decisions)
        assert all(d["members"] == [2, 3, 5] for d in decisions)

    def test_nonmembers_stay_silent(self):
        params, _, _, sim, apis = build_xia_world(n=5, t=2, seed=33)
        sim._parties[1].initiate([1, 2], 1, apis[1])
        transcript = sim.run_until_quiescent()
        origins = {r["true_origin"] for r in transcript.envelopes()}
        assert origins == {1, 2}
        deciders = {d["party"] for d in transcript.decisions()}
        assert deciders == {1, 2}

    def test_quorum_violation_rejects_everywhere(self):
        params, _, _, sim, apis = build_xia_world(n=4, t=3, seed=34)
        sim._parties[1].initiate([1, 2], 1, apis[1])
        transcript = sim.run_until_quiescent()
        decisions = transcript.decisions()
        assert len(decisions) == 2
        assert all(not d["accepted"] for d in decisions)
        assert all(d["reason"] == "quorum" for d in decisions)

    def test_harn_quorum_violation_rejects(self):
        bundle, _, _, sim, parties, apis = build_harn_world(n=4, t=3, seed=35)
        parties[1].initiate([1, 2], 1, apis[1])
        transcript = sim.run_until_quiescent()
        decisions = transcript.decisions()
        assert len(decisions) == 2
        assert all(d["reason"] == "quorum" for d in decisions)

    def test_same_seed_means_identical_transcript(self):
        def run(seed):
            _, _, _, sim, apis = build_xia_world(n=4, t=2, seed=seed)
            sim._parties[1].initiate([1, 2, 3, 4], 1, apis[1])
            return sim.run_until_quiescent().to_jsonl()

        assert run(41) == run(41)
        assert run(41) != run(42)

    def test_non_member_payload_is_dropped_every_time(self):
        params, _, _, sim, apis = build_xia_world(n=3, t=2, seed=37)
        p = params.group.p
        # p - 1 = -1 is a non-residue: p = 2q + 1 with q odd is 3 mod 4
        bad = encode_residue_hex(p - 1, p)
        adversary = sim.register_adversary(TapCollector())
        sim._parties[1].initiate([1, 2], 1, apis[1])
        for _ in range(2):
            adversary.inject(
                env(sender=2, session=("xia2019", 1),
                    round_=ROUND_COMMITMENT, payload=bad),
                recipients=[1],
            )
        transcript = sim.run_until_quiescent()
        assert len(transcript.forged()) == 2
        assert params.decode(bad) is None
        # both forged commitments were dropped, so party 1 took party 2's
        # genuine one and the session completed
        decisions = transcript.decisions()
        assert sorted(d["party"] for d in decisions) == [1, 2]
        assert all(d["accepted"] for d in decisions)

    def test_out_of_range_token_is_dropped_every_time(self):
        bundle, _, _, sim, parties, apis = build_harn_world(n=3, seed=38)
        p = bundle.params.prime
        bad = "f" * hex_width(p)  # canonical spelling of a value >= p
        adversary = sim.register_adversary(TapCollector())
        parties[1].initiate([1, 2], 1, apis[1])
        for _ in range(2):
            adversary.inject(env(sender=2, payload=bad), recipients=[1])
        transcript = sim.run_until_quiescent()
        assert len(transcript.forged()) == 2
        assert parties[1].decode(bad) is None
        decisions = transcript.decisions()
        assert sorted(d["party"] for d in decisions) == [1, 2]
        assert all(d["accepted"] for d in decisions)

    def test_xia_session_reuse_is_refused(self):
        params, _, _, sim, apis = build_xia_world(n=4, t=2, ell=1, seed=36)
        sim._parties[1].initiate([1, 2], 1, apis[1])
        sim.run_until_quiescent()
        # second run with the same sigma: both members refuse
        sim._parties[1].initiate([1, 3], 1, apis[1])
        transcript = sim.run_until_quiescent()
        exhausted = [
            d for d in transcript.decisions()
            if d["reason"] == "session-exhausted"
        ]
        assert len(exhausted) == 1  # party 1 refuses; party 3 is fresh
