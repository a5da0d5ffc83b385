"""Tests for the masked-product scheme: setup, commitments, masks,
tokens and verification on plain ints, plus the protocol rules that the
party engine enforces around them for this scheme.

The share invariant f(0) = s is rechecked by interpolating credentials
toward 0 rather than reading the setup polynomial, and the honest token
product is compared against (g_sigma)^s computed straight from the
returned secret.
"""

import random
from dataclasses import replace
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth import xia2019
from groupauth.algebra import (
    GroupElement,
    derive_rng,
    fixed_base_table,
    group_exp,
    lagrange_coefficient,
    residue_digest,
)
from groupauth.channel import (
    BeliefState,
    Envelope,
    REASON_HASH_MISMATCH,
    REASON_QUORUM,
    REASON_SESSION_EXHAUSTED,
    ROUND_COMMITMENT,
    ROUND_INVITATION,
    ROUND_TOKEN,
    encode_json_hex,
    encode_residue_hex,
    invitation_envelope,
)
from groupauth.errors import InvalidThreshold, NotAMember, SessionExhausted
from groupauth.parties import XiaParty
from groupauth.xia2019 import (
    SCHEME_TAG,
    xia_aggregate,
    xia_commit,
    xia_compute_token,
    xia_gm_init,
    xia_verify,
)

from conftest import (
    OTHER_INVITATION_SPELLINGS,
    RecordingAPI,
    lagrange_weights,
    load_regen_vectors,
)


def setup_small(seed=11, n=5, t=3, ell=2, bits=64):
    return xia_gm_init(n, t, ell=ell, prime_bits=bits, rng_seed=seed)


def run_honest_session(params, creds, member_ids, session, seed):
    """Run the scheme math for one session directly (no channel, no
    party engine); returns (nonces, commitments, tokens), the first two
    by member id and the tokens in member order."""
    by_id = {c.owner.value: c for c in creds}
    nonces, commitments = {}, {}
    for i in member_ids:
        nonces[i], commitments[i] = xia_commit(
            params, session, derive_rng(seed, "nonce", i))
    tokens = [
        xia_compute_token(by_id[i], params, session, commitments, nonces[i])
        for i in member_ids
    ]
    return nonces, commitments, tokens


def two_sided_mask(owner, commitments, p):
    """The mask by its definition: the commitments of the peers below
    `owner` multiplied together, divided by those of the peers above."""
    lower = upper = 1
    for peer, commitment in commitments.items():
        if peer < owner:
            lower = lower * commitment % p
        elif peer > owner:
            upper = upper * commitment % p
    return lower * pow(upper, -1, p) % p


def memo_mask(params, owner, commitments):
    """The mask read from `XiaParams._masks`, as `xia_compute_token`
    reads it: P^2 * C / T for the owner's prefix product P."""
    ids = sorted(commitments)
    prefix, inverse = params._masks[tuple(commitments[i] for i in ids)]
    below = prefix[ids.index(owner)]
    return below * below * commitments[owner] * inverse % params.group.p


def engine_party(params, creds, pid, seed):
    """Live party `pid` drawing the nonces run_honest_session(seed) gives
    it, with a recording API."""
    party = XiaParty(pid, creds[pid - 1], params,
                     derive_rng(seed, "nonce", pid))
    return party, RecordingAPI()


def deliver(party, api, params, sender, round_, value, session=1):
    party.on_envelope(Envelope(
        claimed_sender=sender, session=(SCHEME_TAG, session), round=round_,
        payload=encode_residue_hex(value, params.group.p),
    ), api)


class TestSetup:
    def test_share_polynomial_passes_through_secret(self):
        params, creds, s = setup_small()
        q = params.group.q
        # interpolate f(0) from any t = 3 credentials
        chosen = [c.owner.value for c in creds[1:4]]
        acc = 0
        for c in creds[1:4]:
            own = c.owner.value
            others = [x for x in chosen if x != own]
            weight, = lagrange_weights((0,), own, others, q)
            acc = (acc + c.share.value * weight) % q
        assert acc == s.value

    def test_session_hashes_commit_to_generator_powers(self):
        params, _, s = setup_small()
        for sigma in range(1, params.ell + 1):
            expect = residue_digest(
                group_exp(params.generator_for(sigma), s.value),
                params.group.p,
            )
            assert params.hash_for(sigma) == expect

    def test_identifiers_distinct_nonzero_mod_q(self):
        params, creds, _ = setup_small()
        assert params.all_members([1, 2, 3, 4, 5])
        assert not params.all_members([0])
        assert not params.all_members([6])
        assert [c.owner.value for c in creds] == [1, 2, 3, 4, 5]
        assert all(c.owner.modulus == params.group.q for c in creds)

    def test_threshold_validation(self):
        with pytest.raises(InvalidThreshold):
            xia_gm_init(3, 4, ell=1, prime_bits=32, rng_seed=0)
        with pytest.raises(InvalidThreshold):
            xia_gm_init(3, 1, ell=1, prime_bits=32, rng_seed=0)
        with pytest.raises(ValueError):
            xia_gm_init(3, 2, ell=0, prime_bits=32, rng_seed=0)

    # Pinned on first run of xia_gm_init(5, 3, ell=2, prime_bits=64,
    # rng_seed=11).
    PINNED_DIGEST = (
        "f7efb5e0d516fa076f32e47401a9cff6297bfad7cda4ce4c3c151bdd0941e413"
    )
    PINNED_P = 11334919157661886607
    PINNED_Q = 5667459578830943303
    PINNED_SECRET = 2178285255649958375

    def test_deterministic_setup_pinned(self):
        params, creds, s = setup_small()
        assert params.group.p == self.PINNED_P
        assert params.group.q == self.PINNED_Q
        assert s.value == self.PINNED_SECRET
        digest = load_regen_vectors().xia_fingerprint(params, creds, s)
        assert digest == self.PINNED_DIGEST


def exhausted(session):
    """The decision of a party that refuses to open `session`."""
    return ((SCHEME_TAG, session),
            BeliefState(False, reason=REASON_SESSION_EXHAUSTED))


class TestSessionLifecycle:
    def test_session_indices_are_single_use(self):
        """An index opens once per party: initiating it again sends the
        invitation, decides session-exhausted once and commits nothing
        for it; a wire invitation to it is ignored; another index still
        opens."""
        params, creds, _ = setup_small()  # ell = 2
        party, api = engine_party(params, creds, 1, seed=1)
        party.initiate([1, 2], 1, api)
        party.initiate([1, 3], 1, api)
        party.on_envelope(invitation_envelope(SCHEME_TAG, 3, 1, [1, 3]), api)
        assert api.rounds() == [ROUND_INVITATION, ROUND_COMMITMENT,
                                ROUND_INVITATION]
        assert api.decisions == [exhausted(1)]
        assert party.sessions[1].view == (1, 2)
        party.initiate([1, 3], 2, api)
        assert api.rounds()[3:] == [ROUND_INVITATION, ROUND_COMMITMENT]
        assert list(party.sessions) == [1, 2]
        assert api.decisions == [exhausted(1)]

    def test_session_index_range_checked(self):
        """Only the dealer's indices 1..ell open: initiating 0 or ell+1
        sends the invitation and decides session-exhausted, and a wire
        invitation to either opens nothing, sends nothing and decides
        nothing."""
        params, creds, _ = setup_small()
        for index in (0, params.ell + 1):
            party, api = engine_party(params, creds, 1, seed=1)
            party.initiate([1, 2], index, api)
            assert api.rounds() == [ROUND_INVITATION]
            assert api.decisions == [exhausted(index)]
            assert not party.sessions
            party, api = engine_party(params, creds, 1, seed=1)
            party.on_envelope(
                invitation_envelope(SCHEME_TAG, 2, index, [1, 2]), api)
            assert api.broadcasts == api.decisions == []
            assert not party.sessions

    def test_owner_must_be_in_group_view(self):
        params, creds, _ = setup_small()
        party, api = engine_party(params, creds, 1, seed=1)
        with pytest.raises(NotAMember):
            party.initiate([2, 3, 4], 1, api)
        with pytest.raises(NotAMember):
            party.initiate([1, 2, 6], 1, api)  # 6 holds no credential
        assert api.broadcasts == [] and not party.sessions

    def test_repeated_id_rejected(self):
        """A group naming one id twice could never complete; the engine
        refuses it at initiate, sends nothing and claims no session."""
        params, creds, _ = setup_small()
        party, api = engine_party(params, creds, 1, seed=1)
        for group in ([1, 1, 2], [1, 2, 3, 3]):
            with pytest.raises(NotAMember):
                party.initiate(group, 1, api)
        assert api.broadcasts == [] and not party.sessions

    def test_group_view_is_sorted(self):
        params, creds, _ = setup_small()
        party, api = engine_party(params, creds, 3, seed=1)
        party.initiate([5, 3, 1], 1, api)
        assert party.sessions[1].view == (1, 3, 5)
        assert api.broadcasts[0] == invitation_envelope(SCHEME_TAG, 3, 1,
                                                        [1, 3, 5])


class TestInvitationMemo:
    """`XiaParams.invitation` parses each accepted invitation payload
    once per world; the session match and this party's membership are
    still checked on every delivery."""

    def test_accepted_payload_refused_under_another_session(self):
        params, creds, _ = setup_small()
        invite = invitation_envelope(SCHEME_TAG, 2, 2, [1, 2, 3])
        party, api = engine_party(params, creds, 1, seed=1)
        party.on_envelope(invite, api)
        assert list(party.sessions) == [2]
        assert list(params._invitations) == [invite.payload]
        party.on_envelope(replace(invite, session=(SCHEME_TAG, 1)), api)
        assert list(party.sessions) == [2]
        assert api.rounds() == [ROUND_COMMITMENT]

    def test_malformed_invitation_never_stored(self):
        params, creds, _ = setup_small()  # n = 5
        party, api = engine_party(params, creds, 1, seed=1)
        good = invitation_envelope(SCHEME_TAG, 2, 1, [1, 2, 3])
        bad = [
            good.payload + "0",  # odd-length hex
            encode_json_hex({"group": [1, 2, 6], "session": 1}),
            encode_json_hex({"group": [1, 3, 1], "session": 1}),
            encode_json_hex({"group": [1, 2, 3], "session": None}),
            encode_json_hex({"group": [1, "x"], "session": 1}),
            encode_json_hex({"session": 1}),
        ]
        for _ in range(2):
            for payload in bad:
                party.on_envelope(replace(good, payload=payload), api)
        assert params._invitations == {}
        assert api.broadcasts == [] and not party.sessions

    def test_each_invitation_has_one_spelling(self):
        params, creds, _ = setup_small(t=2)
        party, api = engine_party(params, creds, 1, seed=1)
        good = invitation_envelope(SCHEME_TAG, 2, 1, [1, 2])
        for text in OTHER_INVITATION_SPELLINGS:
            party.on_envelope(replace(good, payload=text.encode().hex()), api)
        assert params._invitations == {}
        assert api.broadcasts == [] and not party.sessions
        party.on_envelope(good, api)
        assert list(params._invitations) == [good.payload]
        assert api.rounds() == [ROUND_COMMITMENT]

    def test_out_of_view_sender_dropped_when_memo_warm(self):
        params, creds, _ = setup_small()
        _, commitments, _ = run_honest_session(params, creds, (1, 2, 3), 1,
                                               seed=4)
        invite = invitation_envelope(SCHEME_TAG, 2, 1, [1, 2, 3])
        for pid in (4, 1):
            party, api = engine_party(params, creds, pid, seed=4)
            party.on_envelope(invite, api)
        assert list(params._invitations) == [invite.payload]
        deliver(party, api, params, 2, ROUND_COMMITMENT, commitments[2])
        deliver(party, api, params, 5, ROUND_COMMITMENT, commitments[3])
        assert sorted(party.sessions[1].received[ROUND_COMMITMENT]) == [1, 2]
        assert api.rounds() == [ROUND_COMMITMENT]
        deliver(party, api, params, 3, ROUND_COMMITMENT, commitments[3])
        assert api.rounds() == [ROUND_COMMITMENT, ROUND_TOKEN]


class TestDecodeMemo:
    """`XiaParams.decode` remembers accepted payloads only, as
    `HarnParams.decode` does, and a hit returns the int it stored."""

    def test_memo_keeps_accepted_payloads_and_returns_them(self):
        params, _, _ = setup_small(seed=57)
        g, p = params.generators[0].value, params.group.p
        values = [1, g, pow(g, 12345, p)]
        payloads = [params.encode(v) for v in values]
        assert [params.decode(x) for x in payloads] == values
        assert params._decoded == dict(zip(payloads, values))
        party = XiaParty(1, None, params, recorded={})
        for x in payloads:
            assert params.decode(x) is params._decoded[x]
            assert party.decode(x) is params._decoded[x]
        cold = replace(params)
        assert cold._decoded == {}
        assert [cold.decode(x) for x in payloads] == values

    def test_rejected_payload_is_rejected_every_time_and_never_stored(self):
        params, _, _ = setup_small(seed=58)
        p = params.group.p
        width = len(params.encode(1))
        bad = [
            encode_residue_hex(p - 1, p),  # canonical, outside the subgroup
            "0" * width,  # zero is not in Z_p*
            "f" * width,  # canonical width, value >= p
            "0" * (width - 1) + "1" + "0",  # too long
            params.encode(1).upper()[:-1] + "G",  # not lower hex
            "",
        ]
        for _ in range(3):
            assert [params.decode(x) for x in bad] == [None] * len(bad)
        assert params._decoded == {}


class TestFixedBaseMemo:
    """`XiaParams.power` serves a session's first `_POWS_BEFORE_TABLE`
    powers by `pow`, then builds that session's fixed-base table once
    and reuses it."""

    def test_table_built_once_a_session_has_served_enough(self,
                                                           monkeypatch):
        built = []

        def counting(g):
            built.append(g)
            return fixed_base_table(g)

        monkeypatch.setattr(xia2019, "fixed_base_table", counting)
        params, creds, _ = setup_small()
        rng = random.Random(5)

        def check_power(session):
            e = rng.randrange(params.group.q)
            assert (params.power(session, e)
                    == group_exp(params.generator_for(session), e))

        assert params._served == params._powers == {}
        for _ in range(xia2019._POWS_BEFORE_TABLE):
            for session in (2, 1):
                check_power(session)
        assert built == [] and params._powers == {}
        for session in (2, 1, 2):
            check_power(session)
        assert built == [params.generator_for(2), params.generator_for(1)]
        assert sorted(params._powers) == [1, 2]
        # a world whose session has its table still verifies
        for session in (1, 2):
            _, _, tokens = run_honest_session(params, creds, (1, 2, 3),
                                              session, seed=session)
            assert xia_verify(tokens, session, params)
        assert len(built) == 2
        copy = replace(params)
        assert copy._served == copy._powers == {}


class TestVerdictMemo:
    """`xia_verify` keeps each (session, token multiset)'s verdict in
    `XiaParams._verdicts`."""

    def test_generator_gives_the_list_verdict(self):
        params, creds, _ = setup_small(seed=61)
        _, _, tokens = run_honest_session(params, creds, (1, 2, 3), 1,
                                          seed=61)
        g = params.generator_for(1).value
        tampered = [tokens[0] * g % params.group.p] + tokens[1:]
        for values, expect in ((tokens, True), (tampered, False)):
            # a fresh copy each time, so the generator meets a cold memo
            assert xia_verify(iter(values), 1, replace(params)) is expect
            assert xia_verify(list(values), 1, replace(params)) is expect
            assert xia_verify(reversed(values), 1, params) is expect
            assert xia_verify(values, 1, params) is expect

    def test_out_of_range_index_raises_despite_the_memo(self):
        params, creds, _ = setup_small(seed=63)
        _, _, tokens = run_honest_session(params, creds, (1, 2, 3), 1,
                                          seed=63)
        for session in (0, params.ell + 1):
            with pytest.raises(SessionExhausted):
                xia_verify(tokens, session, params)
        assert params._verdicts == {}

    def test_flooded_party_checks_one_multiset_per_index(self):
        """Re-invitations and further token sets change nothing once a
        party holds a token from every member, so a party stores at most
        one verdict per index it opens."""
        params, creds, _ = setup_small(seed=62)
        party, api = engine_party(params, creds, 1, seed=62)
        rng = random.Random(62)
        g = params.generator_for(1)

        def junk():
            return group_exp(g, rng.randrange(1, params.group.q))

        for session in range(1, params.ell + 1):
            for sender in (2, 3, 2):
                party.on_envelope(invitation_envelope(
                    SCHEME_TAG, sender, session, [1, 2, 3]), api)
            for sender in (2, 3):
                deliver(party, api, params, sender, ROUND_COMMITMENT,
                        junk(), session)
            for _ in range(20):
                for sender in (3, 2):
                    deliver(party, api, params, sender, ROUND_TOKEN,
                            junk(), session)
        assert len(params._verdicts) <= params.ell
        assert set(params._verdicts.values()) == {False}
        assert [key for key, _ in api.decisions] == [
            (SCHEME_TAG, session) for session in range(1, params.ell + 1)]
        assert all(belief.reason == REASON_HASH_MISMATCH
                   for _, belief in api.decisions)


class TestMaskAndNumeratorMemos:
    """A token's mask comes from `XiaParams._masks` and its weight's
    numerator from `_numerators`, each computed once per group."""

    @given(st.data())
    @settings(max_examples=15)
    def test_memo_mask_is_the_two_sided_product(self, data):
        params, creds, _ = setup_small(n=9, t=2, ell=1, seed=64)
        p, g = params.group.p, params.generator_for(1)
        view = sorted(data.draw(st.sets(st.integers(1, 9), min_size=2)))
        nonces = {i: data.draw(st.integers(1, params.group.q - 1))
                  for i in view}
        commitments = {i: group_exp(g, nonces[i]) for i in view}
        for owner in view:
            assert memo_mask(params, owner, commitments) == \
                two_sided_mask(owner, commitments, p)
        assert len(params._masks) == 1
        # the token agrees with one built from the definitions alone
        for cred in creds:
            own = cred.owner.value
            if own not in commitments:
                continue
            others = [i for i in view if i != own]
            weight, = lagrange_weights((0,), own, others, params.group.q)
            assert xia_compute_token(cred, params, 1, commitments,
                                     nonces[own]) == (
                group_exp(g, cred.share.value * weight)
                * pow(two_sided_mask(own, commitments, p), nonces[own], p)
                % p)
        assert len(params._masks) == len(params._numerators) == 1

    def test_shared_numerator_gives_the_direct_weight(self):
        """A group's memo entry, its numerator and each member's inverted
        denominator, gives the weight toward 0 written out directly,
        prod_r x_r / (x_r - own) mod q."""
        params, _, _ = setup_small(n=7, t=2, seed=65)
        q = params.group.q
        targets, scales, modulus = params._interpolation
        assert (targets, scales, modulus) == ((0,), (1,), q)
        for view in ([1, 2], [2, 5, 7], list(range(1, 8))):
            for own in view:
                others = [i for i in view if i != own]
                shared, inverses = params._numerators[tuple(view)]
                direct = prod(others) * pow(
                    prod(x - own for x in others), -1, q) % q
                assert lagrange_coefficient(
                    targets, (1,), own, modulus, shared, inverses[own]
                ) == direct == lagrange_weights((0,), own, others, q)[0]
        assert len(params._numerators) == 3

    def test_flooded_party_stores_one_mask_entry_per_index(self):
        """Re-invitations and later commitments change nothing once a
        party holds one from every member, and junk never decodes, so a
        party reads one mask entry per session index it opens."""
        params, creds, _ = setup_small(seed=66)
        party, api = engine_party(params, creds, 1, seed=66)
        rng = random.Random(66)
        p = params.group.p

        def junk(session):
            return group_exp(params.generator_for(session),
                             rng.randrange(1, params.group.q))

        for session in range(1, params.ell + 2):  # the last is never issued
            for sender in (2, 3, 2):
                party.on_envelope(invitation_envelope(
                    SCHEME_TAG, sender, session, [1, 2, 3]), api)
            for _ in range(5):
                for sender in (3, 2):
                    deliver(party, api, params, sender, ROUND_COMMITMENT,
                            p - 1, session)  # not in the subgroup
                    if session <= params.ell:
                        deliver(party, api, params, sender,
                                ROUND_COMMITMENT, junk(session), session)
            assert len(params._masks) == min(session, params.ell)
        assert api.rounds().count(ROUND_TOKEN) == params.ell


class TestCommitment:
    # Pinned: first commit of credential 1, session 1, rng seed 99.
    PINNED_PAYLOAD = "842c14d6b621de77"

    def test_commitment_payload_pinned_and_decodable(self):
        params, creds, _ = setup_small()
        nonce, commitment = xia_commit(params, 1, random.Random(99))
        assert commitment == group_exp(params.generator_for(1), nonce)
        # the engine broadcasts the same draw as the commitment round
        api = RecordingAPI()
        XiaParty(1, creds[0], params, random.Random(99)).initiate(
            [1, 2, 3], 1, api)
        _, env = api.broadcasts
        assert env.payload == self.PINNED_PAYLOAD
        assert env.round == ROUND_COMMITMENT
        assert env.session == (SCHEME_TAG, 1)
        assert env.claimed_sender == 1
        assert params.decode(env.payload) == commitment
        assert pow(commitment, params.group.q, params.group.p) == 1

    @given(st.data())
    def test_decode_inverts_encode_on_the_subgroup(self, data):
        params, _, _ = setup_small()
        exponent = data.draw(st.integers(0, params.group.q - 1))
        value = group_exp(params.generator_for(1), exponent)
        assert params.decode(params.encode(value)) == value

    def test_encode_refuses_a_value_outside_the_residues(self):
        params, _, _ = setup_small()
        for value in (-1, params.modulus, params.modulus + 1):
            with pytest.raises(ValueError):
                params.encode(value)

    def test_double_commit_rejected(self):
        """A second invitation to an open session draws no second
        commitment."""
        params, creds, _ = setup_small()
        party, api = engine_party(params, creds, 1, seed=1)
        party.initiate([1, 2, 3], 1, api)
        party.on_envelope(invitation_envelope(SCHEME_TAG, 2, 1, [1, 2, 3]),
                          api)
        assert api.rounds() == [ROUND_INVITATION, ROUND_COMMITMENT]


class TestTokenComputation:
    def test_missing_commitments_block_token(self):
        params, creds, _ = setup_small()
        _, commitments, tokens = run_honest_session(params, creds,
                                                    (1, 2, 3), 1, seed=1)
        party, api = engine_party(params, creds, 1, seed=1)
        party.initiate([1, 2, 3], 1, api)
        deliver(party, api, params, 2, ROUND_COMMITMENT, commitments[2])
        assert ROUND_TOKEN not in api.rounds()
        deliver(party, api, params, 3, ROUND_COMMITMENT, commitments[3])
        assert api.rounds()[-1] == ROUND_TOKEN
        # the engine entered its own commitment and handed the scheme the
        # whole round, so the token is the one the math gives
        assert params.decode(api.broadcasts[-1].payload) == tokens[0]

    def test_quorum_enforced(self):
        params, creds, _ = setup_small()  # t = 3
        _, commitments, _ = run_honest_session(params, creds, (1, 2), 1,
                                               seed=2)
        party, api = engine_party(params, creds, 1, seed=2)
        party.initiate([1, 2], 1, api)
        deliver(party, api, params, 2, ROUND_COMMITMENT, commitments[2])
        assert ROUND_TOKEN not in api.rounds()
        assert api.decisions == [
            ((SCHEME_TAG, 1), BeliefState(False, reason=REASON_QUORUM))
        ]

    def test_non_member_commitment_rejected(self):
        """The scheme math refuses a group that names a non-participant
        or leaves out the member computing its token."""
        params, creds, _ = setup_small()  # n = 5
        nonces, commitments, _ = run_honest_session(params, creds,
                                                    (1, 2, 3), 1, seed=3)
        commitments[6] = commitments.pop(3)
        with pytest.raises(NotAMember):
            xia_compute_token(creds[0], params, 1, commitments, nonces[1])
        del commitments[6]
        with pytest.raises(NotAMember, match="omit 3"):
            xia_compute_token(creds[2], params, 1, commitments, nonces[3])

    def test_token_twice_rejected(self):
        params, creds, _ = setup_small(t=2, n=4)
        _, commitments, _ = run_honest_session(params, creds, (3, 4), 1,
                                               seed=5)
        party, api = engine_party(params, creds, 3, seed=5)
        party.initiate([3, 4], 1, api)
        deliver(party, api, params, 4, ROUND_COMMITMENT, commitments[4])
        deliver(party, api, params, 4, ROUND_COMMITMENT, commitments[3])
        party.on_envelope(invitation_envelope(SCHEME_TAG, 4, 1, [3, 4]), api)
        assert api.rounds().count(ROUND_TOKEN) == 1

    def test_two_member_mask_specialisation(self):
        """m = 2: the lower member divides by the higher commitment and
        vice versa, so the two masked nonces cancel exactly."""
        params, creds, _ = setup_small(t=2, n=4)
        nonces, commitments, _ = run_honest_session(params, creds, (1, 2),
                                                    1, seed=6)
        p = params.group.p
        c1, c2 = commitments[1], commitments[2]
        assert memo_mask(params, 1, commitments) == pow(c2, -1, p)
        assert memo_mask(params, 2, commitments) == c1
        prod = (pow(memo_mask(params, 1, commitments), nonces[1], p)
                * pow(memo_mask(params, 2, commitments), nonces[2], p) % p)
        assert prod == 1

    def test_honest_product_equals_generator_power(self):
        params, creds, s = setup_small()
        _, _, tokens = run_honest_session(params, creds, (1, 2, 4, 5), 1,
                                          seed=7)
        p = params.group.p
        product = 1
        for token in tokens:
            product = product * GroupElement(token, params.group).value % p
        assert product == group_exp(params.generator_for(1), s.value)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0))
    @settings(max_examples=30)
    def test_masked_nonces_always_telescope(self, m, nonce_seed):
        """prod_i gamma_i^{u_i} is the identity for any nonce vector."""
        params, creds, _ = setup_small(n=6, t=2, ell=1)
        member_ids = tuple(range(1, m + 1))
        _, _, tokens = run_honest_session(
            params, creds, member_ids, 1, seed=nonce_seed
        )
        # rebuild the mask product alone, without the share part
        by_id = {c.owner.value: c for c in creds}
        p, q = params.group.p, params.group.q
        g = params.generator_for(1)
        share_part = 1
        for i in member_ids:
            others = [j for j in member_ids if j != i]
            weight, = lagrange_weights((0,), i, others, q)
            share_part = share_part * group_exp(
                g, by_id[i].share.value * weight) % p
        token_product = xia_aggregate(tokens, p)
        masks = GroupElement(token_product, params.group).value \
            * pow(share_part, -1, p) % p
        assert masks == 1


class TestVerification:
    def test_honest_accept_with_group_view(self):
        params, creds, _ = setup_small()
        _, commitments, tokens = run_honest_session(params, creds,
                                                    (1, 2, 3), 1, seed=8)
        assert xia_verify(tokens, 1, params) is True
        # the engine turns the check into a belief naming its view
        party, api = engine_party(params, creds, 1, seed=8)
        party.initiate([1, 2, 3], 1, api)
        for j in (2, 3):
            deliver(party, api, params, j, ROUND_COMMITMENT, commitments[j])
        for j in (2, 3):
            deliver(party, api, params, j, ROUND_TOKEN, tokens[j - 1])
        assert api.decisions == [((SCHEME_TAG, 1), BeliefState(
            True, members=frozenset({1, 2, 3})))]
        assert party.sessions[1].round is None

    def test_single_perturbation_rejects(self):
        params, creds, _ = setup_small()
        _, _, tokens = run_honest_session(params, creds, (1, 2, 3), 1,
                                          seed=9)
        g = params.generator_for(1).value
        tampered = tokens[0] * g % params.group.p
        assert xia_verify([tampered] + tokens[1:], 1, params) is False

    def test_tokens_do_not_transfer_across_sessions(self):
        params, creds, _ = setup_small()
        _, _, tokens1 = run_honest_session(params, creds, (1, 2, 3), 1,
                                           seed=10)
        assert xia_verify(tokens1, 1, params)
        assert not xia_verify(tokens1, 2, params)

    def test_duplicate_senders_malformed(self):
        """A second token claiming the same sender never replaces the
        first: the engine keeps the first, so a forged first token makes
        the aggregate miss."""
        params, creds, _ = setup_small()
        _, commitments, tokens = run_honest_session(params, creds,
                                                    (1, 2, 3), 1, seed=11)
        party, api = engine_party(params, creds, 1, seed=11)
        party.initiate([1, 2, 3], 1, api)
        for j in (2, 3):
            deliver(party, api, params, j, ROUND_COMMITMENT, commitments[j])
        forged = tokens[1] * params.generator_for(1).value % params.group.p
        deliver(party, api, params, 2, ROUND_TOKEN, forged)
        deliver(party, api, params, 2, ROUND_TOKEN, tokens[1])
        assert api.decisions == []
        deliver(party, api, params, 3, ROUND_TOKEN, tokens[2])
        assert api.decisions == [((SCHEME_TAG, 1), BeliefState(
            False, reason=REASON_HASH_MISMATCH))]

    def test_double_decision_rejected(self):
        params, creds, _ = setup_small()
        _, commitments, tokens = run_honest_session(params, creds,
                                                    (1, 2, 3), 1, seed=12)
        party, api = engine_party(params, creds, 1, seed=12)
        party.initiate([1, 2, 3], 1, api)
        for j in (2, 3):
            deliver(party, api, params, j, ROUND_COMMITMENT, commitments[j])
        for _ in range(2):
            for j in (2, 3):
                deliver(party, api, params, j, ROUND_TOKEN, tokens[j - 1])
        party.on_envelope(invitation_envelope(SCHEME_TAG, 2, 1, [1, 2, 3]),
                          api)
        assert len(api.decisions) == 1

    def test_composition_is_invisible_to_the_verifier(self):
        """Two disjoint quorums in different sessions produce token
        multisets with the same aggregate relation: only the session
        index, never the membership, shows up in the check."""
        params, creds, s = setup_small(n=6, t=2, ell=2)
        _, _, tokens_a = run_honest_session(params, creds, (1, 2, 3), 1,
                                            seed=13)
        _, _, tokens_b = run_honest_session(params, creds, (4, 5, 6), 1,
                                            seed=14)
        p = params.group.p
        prod_a = xia_aggregate(tokens_a, p)
        prod_b = xia_aggregate(tokens_b, p)
        assert prod_a == prod_b == group_exp(params.generator_for(1),
                                             s.value)

    def test_subquorum_aggregates_never_accept(self):
        """m < t shares interpolate the wrong exponent except w.p. ~1/q:
        200 randomised sub-quorum products, zero digest matches."""
        params, creds, _ = setup_small(n=6, t=3, ell=1)
        q = params.group.q
        g = params.generator_for(1)
        target = params.hash_for(1)
        by_id = {c.owner.value: c for c in creds}
        rng = random.Random(1234)
        accepts = 0
        for _ in range(200):
            member_ids = tuple(sorted(rng.sample(range(1, 7), 2)))
            product = 1
            for i in member_ids:
                others = [j for j in member_ids if j != i]
                weight, = lagrange_weights((0,), i, others, q)
                # nonce masks cancel regardless of quorum, so the product
                # reduces to the share part alone
                product = product * group_exp(
                    g, by_id[i].share.value * weight) % params.group.p
            digest = residue_digest(product, params.group.p)
            accepts += digest == target
        assert accepts == 0
