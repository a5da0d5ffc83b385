"""Tests for the token-sum scheme: issuance, release and verification on
plain ints, plus the protocol rules that the party engine enforces
around them for this scheme.

The issuance invariant sum_j d_j f_j(w_j) = s is rechecked through an
independent path: f_j(w_j) is interpolated from t credentials instead of
read from the issuer's polynomials, which are never exposed.
"""

import gc
import random
import weakref
from dataclasses import replace
from math import ceil, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth import harn2013
from groupauth.channel import (
    BeliefState,
    Envelope,
    REASON_HASH_MISMATCH,
    REASON_QUORUM,
    REASON_SESSION_EXHAUSTED,
    ROUND_INVITATION,
    ROUND_TOKEN,
    encode_json_hex,
    encode_residue_hex,
    invitation_envelope,
)
from groupauth.errors import DegenerateShareSet, InvalidThreshold, NotAMember
from groupauth.harn2013 import (
    SCHEME_TAG,
    harn_aggregate,
    harn_compute_token,
    harn_gm_init,
    harn_verify,
)
from groupauth.parties import HarnParty

from conftest import (
    OTHER_INVITATION_SPELLINGS,
    RecordingAPI,
    lagrange_weights,
    load_regen_vectors,
    poly_eval,
)


def interpolated_position_value(params, credentials, j, member_ids):
    """Oracle: recover f_j(w_j) from member credentials by interpolation."""
    p = params.modulus
    acc = 0
    chosen = [c for c in credentials if c.owner.value in member_ids]
    for cred in chosen:
        own = cred.owner.value
        others = [c.owner.value for c in chosen if c.owner.value != own]
        lam, = lagrange_weights((params.w[j].value,), own, others, p)
        acc = (acc + cred.tokens[j] * lam) % p
    return acc


def per_polynomial_token(params, cred, member_ids):
    """Oracle: the released scalar with one single-target Lagrange call
    per polynomial, sum_j d_j * f_j(own) * lagrange(w_j; own, others)."""
    p = params.modulus
    own = cred.owner.value
    others = [i for i in member_ids if i != own]
    acc = 0
    for j in range(params.k):
        lam, = lagrange_weights((params.w[j].value,), own, others, p)
        acc = (acc + params.d[j].value * cred.tokens[j] * lam) % p
    return acc


def deliver_token(party, api, params, sender, value, session=1):
    party.on_envelope(Envelope(
        claimed_sender=sender, session=(SCHEME_TAG, session),
        round=ROUND_TOKEN,
        payload=encode_residue_hex(value, params.modulus),
    ), api)


class TestIssuance:
    def test_polynomial_count_rule(self):
        for n, t in [(2, 2), (5, 2), (5, 3), (6, 2), (7, 3), (9, 4)]:
            params, _, _ = harn_gm_init(n, t, prime_bits=48, rng_seed=1)
            assert params.k == ceil(n / t)
            assert params.k * t > n - 1

    def test_threshold_validation(self):
        with pytest.raises(InvalidThreshold):
            harn_gm_init(5, 6, prime_bits=48, rng_seed=0)
        with pytest.raises(InvalidThreshold):
            harn_gm_init(5, 1, prime_bits=48, rng_seed=0)
        with pytest.raises(InvalidThreshold):
            harn_gm_init(1, 1, prime_bits=48, rng_seed=0)

    def test_positions_disjoint_from_identifiers(self):
        params, _, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=2)
        wv = {x.value for x in params.w}
        assert len(wv) == params.k
        assert not wv & set(range(1, params.n + 1))
        assert not any(params.all_members([x]) for x in wv)

    def test_issuance_invariant_via_interpolation_oracle(self):
        params, creds, s = harn_gm_init(5, 3, prime_bits=64, rng_seed=3)
        p = params.modulus
        total = 0
        for j in range(params.k):
            fj_at_wj = interpolated_position_value(params, creds, j, {1, 2, 3})
            total = (total + params.d[j].value * fj_at_wj) % p
        assert total == s.value

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (3, 3), (5, 2),
                                     (5, 5), (7, 3), (9, 4)])
    def test_shares_are_the_dealer_polynomials_at_each_id(self, monkeypatch,
                                                          n, t):
        """Oracle: every tokens[j] is the single-point Horner value
        poly_eval(f_j, x, p) of the polynomials the dealer evaluated at
        the ids, and those are k polynomials of degree t-1 that satisfy
        the issuance invariant at the published positions."""
        polys = []
        column_eval = harn2013.poly_eval_points

        def spy(coefficients, xs, modulus):
            if list(xs) == list(range(1, n + 1)):  # a column of shares
                polys.append(list(coefficients))
            return column_eval(coefficients, xs, modulus)

        monkeypatch.setattr(harn2013, "poly_eval_points", spy)
        params, creds, s = harn_gm_init(n, t, prime_bits=64,
                                        rng_seed=n * 10 + t)
        p = params.modulus
        assert len(polys) == params.k == ceil(n / t)
        assert all(len(f) == t for f in polys)
        for cred in creds:
            assert cred.tokens == tuple(
                poly_eval(f, cred.owner.value, p) for f in polys)
        assert sum(dj.value * poly_eval(f, wj.value, p) for dj, f, wj
                   in zip(params.d, polys, params.w)) % p == s.value

    def test_secret_hash_matches_secret(self):
        from groupauth.algebra import residue_digest

        params, _, s = harn_gm_init(4, 2, prime_bits=64, rng_seed=4)
        assert params.secret_hash == residue_digest(
            s.value, params.modulus
        )

    def test_identifiers_are_one_through_n(self):
        params, creds, _ = harn_gm_init(5, 2, prime_bits=48, rng_seed=5)
        assert params.all_members([1, 2, 3, 4, 5])
        assert not params.all_members([0])
        assert not params.all_members([6])
        assert [c.owner.value for c in creds] == [1, 2, 3, 4, 5]

    # Pinned on first run of harn_gm_init(5, 2, prime_bits=64, rng_seed=7).
    PINNED_DIGEST = (
        "dc5becdbeac4bd8fc6225297c8573e3b365e862d941fc8137bb0cd838fa129f0"
    )
    PINNED_PRIME = 10808818712792617177
    PINNED_SECRET = 7713914763314685786

    def test_deterministic_issuance_pinned(self):
        params, creds, s = harn_gm_init(5, 2, prime_bits=64, rng_seed=7)
        assert params.modulus == self.PINNED_PRIME
        assert s.value == self.PINNED_SECRET
        digest = load_regen_vectors().harn_fingerprint(params, creds, s)
        assert digest == self.PINNED_DIGEST


class TestTokenRelease:
    def test_two_party_formula_specialisation(self):
        """n = t = 2 gives k = 1 and a single hand-checkable product."""
        params, creds, _ = harn_gm_init(2, 2, prime_bits=64, rng_seed=11)
        assert params.k == 1
        p = params.modulus
        x1, x2 = (c.owner.value for c in creds)
        token = harn_compute_token(creds[0], params, [1, 2])
        lam = (params.w[0].value - x2) * pow(x1 - x2, -1, p)
        assert token == (params.d[0].value * creds[0].tokens[0]
                         * lam) % p

    def test_full_group_tokens_sum_to_secret(self):
        params, creds, s = harn_gm_init(5, 3, prime_bits=64, rng_seed=12)
        group = [1, 2, 3, 4, 5]
        tokens = [harn_compute_token(c, params, group) for c in creds]
        assert harn_aggregate(tokens, params.modulus) == s.value

    def test_subset_tokens_sum_to_secret(self):
        params, creds, s = harn_gm_init(6, 2, prime_bits=64, rng_seed=13)
        group = [2, 4, 5]
        tokens = [harn_compute_token(c, params, group) for c in creds
                  if c.owner.value in group]
        assert harn_aggregate(tokens, params.modulus) == s.value

    def test_non_member_rejected(self):
        """The engine refuses to start a group that omits the initiator
        or names a party without a credential, and sends nothing."""
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=14)
        party, api = HarnParty(4, creds[3], params), RecordingAPI()
        with pytest.raises(NotAMember):
            party.initiate([1, 2], 1, api)
        with pytest.raises(NotAMember):
            party.initiate([4, 5], 1, api)
        assert api.broadcasts == [] and not party.sessions

    def test_repeated_id_rejected(self):
        """A group naming one id twice could never complete; the engine
        refuses it at initiate and sends nothing."""
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=14)
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        for group in ([1, 1, 2], [1, 2, 2]):
            with pytest.raises(NotAMember):
                party.initiate(group, 1, api)
        assert api.broadcasts == [] and not party.sessions

    def test_quorum_enforced(self):
        """Below the threshold the engine rejects before any token."""
        params, creds, _ = harn_gm_init(4, 3, prime_bits=48, rng_seed=15)
        for group in ([1, 2], [1]):
            party, api = HarnParty(1, creds[0], params), RecordingAPI()
            party.initiate(group, 1, api)
            assert api.rounds() == [ROUND_INVITATION]
            assert api.decisions == [
                ((SCHEME_TAG, 1), BeliefState(False, reason=REASON_QUORUM))
            ]


    def test_reopened_run_id_refused(self):
        """A run id opens once: initiating it again with another group
        sends the invitation but no second token and decides
        session-exhausted, so one run's one-time secret is never reused.
        A wire invitation to it is ignored; another run id still opens."""
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=16)
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        party.initiate([1, 2], 1, api)
        party.initiate([1, 3], 1, api)
        party.on_envelope(invitation_envelope(SCHEME_TAG, 3, 1, [1, 3]), api)
        assert api.rounds() == [ROUND_INVITATION, ROUND_TOKEN,
                                ROUND_INVITATION]
        refusal = [((SCHEME_TAG, 1), BeliefState(
            False, reason=REASON_SESSION_EXHAUSTED))]
        assert api.decisions == refusal
        assert party.sessions[1].view == (1, 2)
        party.initiate([1, 3], 2, api)
        assert api.rounds()[3:] == [ROUND_INVITATION, ROUND_TOKEN]
        assert list(party.sessions) == [1, 2]
        assert api.decisions == refusal

    def test_envelope_of_another_scheme_ignored(self):
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=57)
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        good = invitation_envelope(SCHEME_TAG, 2, 1, [1, 2])
        party.on_envelope(replace(good, session=("xia2019", 1)), api)
        assert api.broadcasts == [] and not party.sessions
        party.on_envelope(good, api)
        assert list(party.sessions) == [1]


class TestTokenMatchesPerPolynomialFormula:
    """One Lagrange call with all k targets gives the same scalar as k
    single-target calls."""

    @pytest.mark.parametrize("n, t, bits, seed", [
        (5, 2, 64, 41), (7, 3, 64, 42), (9, 4, 48, 43), (64, 2, 128, 44),
        (128, 8, 64, 45),
    ])
    def test_seeded_groups(self, n, t, bits, seed):
        params, creds, s = harn_gm_init(n, t, prime_bits=bits, rng_seed=seed)
        p = params.modulus
        rng = random.Random(seed)
        groups = [list(range(1, n + 1))]
        for size in sorted({t, t + 1, (n + t) // 2, n - 1}):
            groups.append(sorted(rng.sample(range(1, n + 1), size)))
        for group in groups:
            tokens = []
            for cred in creds:
                if cred.owner.value not in group:
                    continue
                expect = per_polynomial_token(params, cred, group)
                tokens.append(harn_compute_token(cred, params, group))
                assert tokens[-1] == expect
            assert harn_aggregate(tokens, p) == s.value

    def test_repeated_non_owner_rejected(self):
        params, creds, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=47)
        with pytest.raises(DegenerateShareSet):
            harn_compute_token(creds[0], params, [1, 3, 3])
        with pytest.raises(DegenerateShareSet):
            harn_compute_token(creds[0], params, [1, 5, 2, 5])

    def test_group_without_owner_rejected(self):
        """The scheme math refuses a group that leaves out the member
        computing the token, as `xia_compute_token` does, and stores no
        numerators for it."""
        params, creds, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=21)
        with pytest.raises(NotAMember, match="omits 1"):
            harn_compute_token(creds[0], params, [2, 3])
        assert params._numerators == {}

    def test_repeated_owner_rejected(self):
        """A group that names the owner twice is refused like any other
        repeat, not taken as the group with one copy of the owner."""
        params, creds, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=21)
        with pytest.raises(DegenerateShareSet):
            harn_compute_token(creds[0], params, [1, 1, 2])
        with pytest.raises(DegenerateShareSet):
            harn_compute_token(creds[0], params, [2, 1, 3, 1])
        assert params._numerators == {}


class TestNumeratorMemo:
    """The params' per-group numerator memo changes no token and grows
    only with the invitations."""

    def test_cold_and_warm_tokens_equal(self):
        params, creds, s = harn_gm_init(9, 2, prime_bits=64, rng_seed=51)
        group = [2, 3, 5, 7, 8]
        members = [c for c in creds if c.owner.value in group]
        cold = []
        for cred in members:
            params._numerators.clear()
            cold.append(harn_compute_token(cred, params, group))
            assert list(params._numerators) == [tuple(group)]
        warm = [harn_compute_token(c, params, group) for c in members]
        assert warm == cold == [
            per_polynomial_token(params, c, group) for c in members
        ]
        assert harn_aggregate(warm, params.modulus) == s.value

    def test_memo_entry_is_d_times_the_group_product(self):
        """A group's entry holds d_j * prod_{x in group} (w_j - x) mod p
        per position, so a token needs no separate product with d, and
        for each member the inverse of prod_{x != own} (own - x), so a
        token inverts only the product of its k gaps."""
        params, creds, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=54)
        group, p = (1, 3, 4), params.modulus
        harn_compute_token(creds[0], params, list(group))
        numerators, inverses = params._numerators[group]
        assert numerators == tuple(
            dj.value * prod(wj.value - x for x in group) % p
            for wj, dj in zip(params.w, params.d))
        assert inverses == {
            own: pow(prod(own - x for x in group if x != own), -1, p)
            for own in group}

    def test_degenerate_group_leaves_no_entry(self):
        params, creds, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=52)
        for group in ([1, 3, 3], [1, 5, 2, 5]):
            with pytest.raises(DegenerateShareSet):
                harn_compute_token(creds[0], params, group)
        with pytest.raises(NotAMember):
            harn_compute_token(creds[0], params, [1, 2, 7])
        assert params._numerators == {}

    def test_injected_invitations_grow_the_memo_with_the_invitations(self):
        """Each invitation to a new group stores one entry, never more
        entries than the invitation memo holds, and every token is still
        right."""
        n = 9
        params, creds, _ = harn_gm_init(n, 2, prime_bits=64, rng_seed=53)
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        groups = [[1, a, b] for a in range(2, n + 1)
                  for b in range(a + 1, n + 1)]
        assert len(groups) == 28
        for session, group in enumerate(groups, 1):
            party.on_envelope(
                invitation_envelope(SCHEME_TAG, group[1], session, group),
                api)
            assert len(params._numerators) == session
            assert len(params._numerators) <= len(params._invitations)
            assert api.broadcasts[-1].payload == encode_residue_hex(
                per_polynomial_token(params, creds[0], group),
                params.modulus)
        assert list(params._numerators) == [tuple(g) for g in groups]


class TestDecodeMemo:
    """`HarnParams.decode` remembers accepted payloads only, and a
    remembered value is the one a cold decode gives."""

    def test_memo_hit_equals_cold_decode(self):
        params, _, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=54)
        p = params.modulus
        payloads = [encode_residue_hex(v, p) for v in (0, 1, 12345, p - 1)]
        first = [params.decode(x) for x in payloads]
        assert first == [0, 1, 12345, p - 1]
        assert params._decoded == dict(zip(payloads, first))
        assert [params.decode(x) for x in payloads] == first
        party = HarnParty(1, None, params, recorded={})
        for x in payloads:
            assert params.decode(x) is params._decoded[x]
            assert party.decode(x) is params._decoded[x]
        cold = replace(params)
        assert cold._decoded == {}
        assert [cold.decode(x) for x in payloads] == first

    def test_rejected_payload_is_rejected_every_time_and_never_stored(self):
        params, _, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=55)
        p = params.modulus
        width = len(encode_residue_hex(0, p))
        bad = [
            encode_residue_hex(p, p + 1),  # the prime itself: out of range
            "f" * width,  # canonical width, value >= p
            "0" * (width - 1),  # too short
            "0" * (width + 1),  # too long
            "0" * (width - 1) + "A",  # upper case
            "0" * (width - 1) + "g",  # not hex
            "",
        ]
        for _ in range(3):
            assert [params.decode(x) for x in bad] == [None] * len(bad)
        assert params._decoded == {}

    def test_params_are_freed_without_the_cycle_collector(self):
        """The memos hold their checks weakly, so params that have
        decoded payloads and invitations go as soon as the last reference
        does."""
        params, _, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=55)
        params.decode(params.encode(1))
        params.invitation(invitation_envelope(SCHEME_TAG, 1, 1,
                                              [1, 2]).payload)
        assert params._decoded and params._invitations
        alive = weakref.ref(params)
        gc.disable()
        try:
            del params
            assert alive() is None
        finally:
            gc.enable()

    @given(st.data())
    def test_decode_inverts_encode(self, data):
        params, _, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=56)
        value = data.draw(st.integers(0, params.modulus - 1))
        assert params.decode(params.encode(value)) == value

    def test_encode_refuses_a_value_outside_the_residues(self):
        params, _, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=56)
        for value in (-1, params.modulus, params.modulus + 1):
            with pytest.raises(ValueError):
                params.encode(value)


class TestInvitationMemo:
    """`HarnParams.invitation` parses each accepted invitation payload
    once per world; the session match and this party's membership are
    still checked on every delivery."""

    def test_accepted_payload_refused_under_another_session(self):
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=56)
        invite = invitation_envelope(SCHEME_TAG, 2, 2, [1, 2])
        first, api = HarnParty(1, creds[0], params), RecordingAPI()
        first.on_envelope(invite, api)
        assert list(first.sessions) == [2]
        assert list(params._invitations) == [invite.payload]
        moved = replace(invite, session=(SCHEME_TAG, 1))
        for party in (first, HarnParty(2, creds[1], params)):
            party.on_envelope(moved, api)
            assert 1 not in party.sessions
        assert api.rounds() == [ROUND_TOKEN]

    def test_malformed_invitation_never_stored(self):
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=57)
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        good = invitation_envelope(SCHEME_TAG, 2, 1, [1, 2])
        bad = [
            "zz",  # not hex
            good.payload.upper(),  # upper-case hex
            encode_json_hex({"group": [], "session": 1}),
            encode_json_hex({"group": [1, 2, 2], "session": 1}),
            encode_json_hex({"group": [1, 2, 9], "session": 1}),
            encode_json_hex({"group": [1, 2]}),
            encode_json_hex({"group": "12", "session": "x"}),
            encode_json_hex([1, 2]),
            ("[" * 100_000).encode().hex(),  # nested past the stack
        ]
        for _ in range(2):
            for payload in bad:
                party.on_envelope(replace(good, payload=payload), api)
        assert params._invitations == {}
        assert api.broadcasts == [] and not party.sessions

    def test_each_invitation_has_one_spelling(self):
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=57)
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        good = invitation_envelope(SCHEME_TAG, 2, 1, [1, 2])
        for text in OTHER_INVITATION_SPELLINGS:
            party.on_envelope(replace(good, payload=text.encode().hex()), api)
        assert params._invitations == {}
        assert api.broadcasts == [] and not party.sessions
        party.on_envelope(good, api)
        assert list(params._invitations) == [good.payload]
        assert list(party.sessions) == [1]

    def test_out_of_view_sender_dropped_when_memo_warm(self):
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=58)
        invite = invitation_envelope(SCHEME_TAG, 1, 1, [1, 2])
        party, api = HarnParty(2, creds[1], params), RecordingAPI()
        HarnParty(3, creds[2], params).on_envelope(invite, RecordingAPI())
        assert list(params._invitations) == [invite.payload]
        party.on_envelope(invite, api)
        genuine = harn_compute_token(creds[0], params, [1, 2])
        deliver_token(party, api, params, 3, genuine)
        assert list(party.sessions[1].received[ROUND_TOKEN]) == [2]
        assert api.decisions == []
        deliver_token(party, api, params, 1, genuine)
        assert api.decisions == [((SCHEME_TAG, 1), BeliefState(
            True, members=frozenset({1, 2})))]


class TestVerification:
    def _honest_tokens(self, params, creds, group):
        return [
            harn_compute_token(c, params, group)
            for c in creds
            if c.owner.value in group
        ]

    def test_honest_run_accepts_and_reveals_secret(self):
        params, creds, s = harn_gm_init(5, 2, prime_bits=64, rng_seed=21)
        tokens = self._honest_tokens(params, creds, [1, 3, 5])
        assert harn_verify(tokens, params) is True
        # the one-time secret is now public
        assert harn_aggregate(tokens, params.modulus) == s.value

    def test_single_perturbation_rejects(self):
        params, creds, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=22)
        tokens = self._honest_tokens(params, creds, [1, 2, 3])
        bad = (tokens[0] + 1) % params.modulus
        assert harn_verify([bad] + tokens[1:], params) is False

    def test_empty_token_list_rejects(self):
        params, _, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=23)
        assert harn_verify([], params) is False
        assert harn_aggregate([], params.modulus) == 0

    def test_duplicate_senders_malformed(self):
        """A second token claiming the same sender never replaces the
        first: the engine keeps the first, so a forged first token makes
        the sum miss."""
        params, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=24)
        tokens = self._honest_tokens(params, creds, [1, 2, 3])
        party, api = HarnParty(1, creds[0], params), RecordingAPI()
        party.initiate([1, 2, 3], 1, api)
        assert api.rounds() == [ROUND_INVITATION, ROUND_TOKEN]
        deliver_token(party, api, params, 2,
                      (tokens[1] + 1) % params.modulus)
        deliver_token(party, api, params, 2, tokens[1])
        assert api.decisions == []
        deliver_token(party, api, params, 3, tokens[2])
        assert api.decisions == [
            ((SCHEME_TAG, 1), BeliefState(False,
                                          reason=REASON_HASH_MISMATCH))
        ]

    def test_exhaustive_completeness_small(self):
        """Every subset of size >= t accepts, for n up to 4."""
        from itertools import combinations

        for n in range(2, 5):
            for t in range(2, n + 1):
                params, creds, _ = harn_gm_init(
                    n, t, prime_bits=48, rng_seed=100 * n + t
                )
                for m in range(t, n + 1):
                    for group in combinations(range(1, n + 1), m):
                        tokens = self._honest_tokens(params, creds, group)
                        assert harn_verify(tokens, params), (n, t, group)


class TestAggregateOnlyVerification:
    """The check binds the sum, not any individual contribution."""

    @given(st.integers(min_value=0), st.lists(
        st.integers(min_value=0), min_size=1, max_size=5))
    @settings(max_examples=30)
    def test_any_partial_sum_completes_to_acceptance(self, seed_left, rest):
        params, creds, s = harn_gm_init(6, 2, prime_bits=64, rng_seed=31)
        p = params.modulus
        values = [v % p for v in [seed_left] + rest]
        closing = (s.value - harn_aggregate(values, p)) % p
        tokens = values + [closing]
        assert harn_verify(tokens, params)
        assert harn_aggregate(tokens, p) == s.value

    def test_closing_value_is_unique(self):
        params, _, s = harn_gm_init(4, 2, prime_bits=64, rng_seed=32)
        p = params.modulus
        rng = random.Random(5)
        opening = rng.randrange(p)
        closing = (s.value - opening) % p
        assert harn_verify([opening, closing], params)
        for delta in (1, 2, 17):
            off = (closing + delta) % p
            assert not harn_verify([opening, off], params)
