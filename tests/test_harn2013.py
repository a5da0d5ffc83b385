"""Tests for the token-sum scheme: issuance, release, verification.

The issuance invariant sum_j d_j f_j(w_j) = s is rechecked through an
independent path: f_j(w_j) is interpolated from t credentials instead of
read from the issuer's polynomials, which are never exposed.
"""

import random
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth.algebra import FieldElement, lagrange_coefficient
from groupauth.errors import (
    DegenerateShareSet,
    InsufficientQuorum,
    InvalidThreshold,
    MalformedTranscript,
    ModulusMismatch,
    NotAMember,
)
from groupauth.harn2013 import (
    HarnToken,
    harn_compute_token,
    harn_gm_init,
    harn_verify,
)


def interpolated_position_value(bundle, credentials, j, member_ids):
    """Oracle: recover f_j(w_j) from member credentials by interpolation."""
    p = bundle.params.prime
    acc = FieldElement(0, p)
    chosen = [c for c in credentials if c.owner.value in member_ids]
    for cred in chosen:
        others = [c.owner for c in chosen if c.owner.value != cred.owner.value]
        lam = lagrange_coefficient(bundle.w[j], cred.owner, others)
        acc = acc + cred.tokens[j] * lam
    return acc


def per_polynomial_token(bundle, cred, member_ids):
    """Oracle: the released scalar with one single-target Lagrange call
    per polynomial, sum_j d_j * f_j(own) * lagrange(w_j; own, others)."""
    p = bundle.params.prime
    others = [FieldElement(i, p) for i in member_ids if i != cred.owner.value]
    acc = FieldElement(0, p)
    for j in range(bundle.params.k):
        lam = lagrange_coefficient(bundle.w[j], cred.owner, others)
        acc = acc + bundle.d[j] * cred.tokens[j] * lam
    return acc


class TestIssuance:
    def test_polynomial_count_rule(self):
        for n, t in [(2, 2), (5, 2), (5, 3), (6, 2), (7, 3), (9, 4)]:
            bundle, _, _ = harn_gm_init(n, t, prime_bits=48, rng_seed=1)
            assert bundle.params.k == ceil(n / t)
            assert bundle.params.k * t > n - 1

    def test_threshold_validation(self):
        with pytest.raises(InvalidThreshold):
            harn_gm_init(5, 6, prime_bits=48, rng_seed=0)
        with pytest.raises(InvalidThreshold):
            harn_gm_init(5, 1, prime_bits=48, rng_seed=0)
        with pytest.raises(InvalidThreshold):
            harn_gm_init(1, 1, prime_bits=48, rng_seed=0)

    def test_positions_disjoint_from_identifiers(self):
        bundle, _, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=2)
        wv = {x.value for x in bundle.w}
        ids = {x.value for x in bundle.params.identifiers}
        assert len(wv) == bundle.params.k
        assert not wv & ids

    def test_issuance_invariant_via_interpolation_oracle(self):
        bundle, creds, s = harn_gm_init(5, 3, prime_bits=64, rng_seed=3)
        p = bundle.params.prime
        total = FieldElement(0, p)
        for j in range(bundle.params.k):
            fj_at_wj = interpolated_position_value(bundle, creds, j, {1, 2, 3})
            total = total + bundle.d[j] * fj_at_wj
        assert total == s

    def test_secret_hash_matches_secret(self):
        from groupauth.algebra import residue_digest

        bundle, _, s = harn_gm_init(4, 2, prime_bits=64, rng_seed=4)
        assert bundle.secret_hash == residue_digest(
            s.value, bundle.params.prime, bundle.hash_id
        )

    def test_identifiers_are_one_through_n(self):
        bundle, creds, _ = harn_gm_init(5, 2, prime_bits=48, rng_seed=5)
        assert [x.value for x in bundle.params.identifiers] == [1, 2, 3, 4, 5]
        assert [c.owner.value for c in creds] == [1, 2, 3, 4, 5]

    # Pinned on first run of harn_gm_init(5, 2, prime_bits=64, rng_seed=7).
    PINNED_DIGEST = (
        "dc5becdbeac4bd8fc6225297c8573e3b365e862d941fc8137bb0cd838fa129f0"
    )
    PINNED_PRIME = 10808818712792617177
    PINNED_SECRET = 7713914763314685786

    def test_deterministic_issuance_pinned(self):
        import hashlib

        bundle, creds, s = harn_gm_init(5, 2, prime_bits=64, rng_seed=7)
        assert bundle.params.prime == self.PINNED_PRIME
        assert s.value == self.PINNED_SECRET
        parts = [
            str(bundle.params.n), str(bundle.params.t), str(bundle.params.k),
            str(bundle.params.prime), str(s.value),
        ]
        parts += [str(x.value) for x in bundle.w]
        parts += [str(x.value) for x in bundle.d]
        parts.append(bundle.secret_hash.hex())
        for c in creds:
            parts.append(str(c.owner.value))
            parts += [str(t.value) for t in c.tokens]
        digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
        assert digest == self.PINNED_DIGEST


class TestTokenRelease:
    def test_two_party_formula_specialisation(self):
        """n = t = 2 gives k = 1 and a single hand-checkable product."""
        bundle, creds, _ = harn_gm_init(2, 2, prime_bits=64, rng_seed=11)
        assert bundle.params.k == 1
        p = bundle.params.prime
        x1, x2 = bundle.params.identifiers
        token = harn_compute_token(creds[0], bundle, [1, 2])
        lam = (bundle.w[0] - x2) * (x1 - x2).inverse()
        assert token.value == bundle.d[0] * creds[0].tokens[0] * lam
        assert token.sender == x1

    def test_full_group_tokens_sum_to_secret(self):
        bundle, creds, s = harn_gm_init(5, 3, prime_bits=64, rng_seed=12)
        group = [1, 2, 3, 4, 5]
        total = FieldElement(0, bundle.params.prime)
        for c in creds:
            total = total + harn_compute_token(c, bundle, group).value
        assert total == s

    def test_subset_tokens_sum_to_secret(self):
        bundle, creds, s = harn_gm_init(6, 2, prime_bits=64, rng_seed=13)
        group = [2, 4, 5]
        total = FieldElement(0, bundle.params.prime)
        for c in creds:
            if c.owner.value in group:
                total = total + harn_compute_token(c, bundle, group).value
        assert total == s

    def test_non_member_rejected(self):
        bundle, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=14)
        with pytest.raises(NotAMember):
            harn_compute_token(creds[3], bundle, [1, 2])

    def test_quorum_enforced(self):
        bundle, creds, _ = harn_gm_init(4, 3, prime_bits=48, rng_seed=15)
        with pytest.raises(InsufficientQuorum):
            harn_compute_token(creds[0], bundle, [1, 2])
        with pytest.raises(InsufficientQuorum):
            harn_compute_token(creds[0], bundle, [1])


class TestTokenMatchesPerPolynomialFormula:
    """One Lagrange call with all k targets gives the same scalar as k
    single-target calls."""

    @pytest.mark.parametrize("n, t, bits, seed", [
        (5, 2, 64, 41), (7, 3, 64, 42), (9, 4, 48, 43), (64, 2, 128, 44),
    ])
    def test_seeded_groups(self, n, t, bits, seed):
        bundle, creds, s = harn_gm_init(n, t, prime_bits=bits, rng_seed=seed)
        p = bundle.params.prime
        rng = random.Random(seed)
        groups = [list(range(1, n + 1))]
        for size in sorted({t, t + 1, (n + t) // 2, n - 1}):
            groups.append(sorted(rng.sample(range(1, n + 1), size)))
        for group in groups:
            as_elements = [FieldElement(i, p) for i in group]
            total = FieldElement(0, p)
            for cred in creds:
                if cred.owner.value not in group:
                    continue
                expect = per_polynomial_token(bundle, cred, group)
                token = harn_compute_token(cred, bundle, group)
                assert token.value == expect
                assert token.sender == cred.owner
                assert harn_compute_token(
                    cred, bundle, as_elements).value == expect
                total = total + token.value
            assert total == s

    # TestTokenRelease covers an outside owner and a short group given
    # as ints
    def test_owner_outside_element_group_rejected(self):
        bundle, creds, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=45)
        p = bundle.params.prime
        with pytest.raises(NotAMember):
            harn_compute_token(creds[0], bundle,
                               [FieldElement(i, p) for i in (2, 3, 4)])

    def test_short_element_group_rejected(self):
        bundle, creds, _ = harn_gm_init(6, 3, prime_bits=48, rng_seed=46)
        p = bundle.params.prime
        with pytest.raises(InsufficientQuorum):
            harn_compute_token(creds[0], bundle,
                               [FieldElement(i, p) for i in (1, 4)])

    def test_repeated_non_owner_rejected(self):
        bundle, creds, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=47)
        p = bundle.params.prime
        with pytest.raises(DegenerateShareSet):
            harn_compute_token(creds[0], bundle, [1, 3, 3])
        with pytest.raises(DegenerateShareSet):
            harn_compute_token(creds[0], bundle,
                               [FieldElement(i, p) for i in (1, 5, 2, 5)])

    def test_member_of_another_field_rejected(self):
        bundle, creds, _ = harn_gm_init(6, 2, prime_bits=48, rng_seed=48)
        p = bundle.params.prime
        with pytest.raises(ModulusMismatch):
            harn_compute_token(creds[0], bundle,
                               [FieldElement(1, p), FieldElement(2, 23)])
        # a foreign entry equal to the owner's value is no exception
        with pytest.raises(ModulusMismatch):
            harn_compute_token(creds[0], bundle, [FieldElement(1, 23), 2])


class TestVerification:
    def _honest_tokens(self, bundle, creds, group):
        return [
            harn_compute_token(c, bundle, group)
            for c in creds
            if c.owner.value in group
        ]

    def test_honest_run_accepts_and_reveals_secret(self):
        bundle, creds, s = harn_gm_init(5, 2, prime_bits=64, rng_seed=21)
        tokens = self._honest_tokens(bundle, creds, [1, 3, 5])
        accepted, recovered = harn_verify(tokens, bundle)
        assert accepted
        assert recovered == s  # the one-time secret is now public

    def test_single_perturbation_rejects(self):
        bundle, creds, _ = harn_gm_init(5, 2, prime_bits=64, rng_seed=22)
        tokens = self._honest_tokens(bundle, creds, [1, 2, 3])
        p = bundle.params.prime
        bad = HarnToken(tokens[0].sender,
                        tokens[0].value + FieldElement(1, p))
        accepted, _ = harn_verify([bad] + tokens[1:], bundle)
        assert not accepted

    def test_empty_token_list_rejects(self):
        bundle, _, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=23)
        accepted, recovered = harn_verify([], bundle)
        assert not accepted
        assert recovered.value == 0

    def test_duplicate_senders_malformed(self):
        bundle, creds, _ = harn_gm_init(4, 2, prime_bits=48, rng_seed=24)
        tokens = self._honest_tokens(bundle, creds, [1, 2])
        with pytest.raises(MalformedTranscript):
            harn_verify([tokens[0], tokens[0]], bundle)

    def test_exhaustive_completeness_small(self):
        """Every subset of size >= t accepts, for n up to 4."""
        from itertools import combinations

        for n in range(2, 5):
            for t in range(2, n + 1):
                bundle, creds, _ = harn_gm_init(
                    n, t, prime_bits=48, rng_seed=100 * n + t
                )
                for m in range(t, n + 1):
                    for group in combinations(range(1, n + 1), m):
                        tokens = self._honest_tokens(bundle, creds, group)
                        accepted, _ = harn_verify(tokens, bundle)
                        assert accepted, (n, t, group)


class TestAggregateOnlyVerification:
    """The check binds the sum, not any individual contribution."""

    @given(st.integers(min_value=0), st.lists(
        st.integers(min_value=0), min_size=1, max_size=5))
    @settings(max_examples=30)
    def test_any_partial_sum_completes_to_acceptance(self, seed_left, rest):
        bundle, creds, s = harn_gm_init(6, 2, prime_bits=64, rng_seed=31)
        p = bundle.params.prime
        values = [FieldElement(v, p) for v in [seed_left] + rest]
        partial = FieldElement(0, p)
        for v in values:
            partial = partial + v
        closing = s - partial
        tokens = [
            HarnToken(FieldElement(i + 1, p), v)
            for i, v in enumerate(values + [closing])
        ]
        accepted, recovered = harn_verify(tokens, bundle)
        assert accepted
        assert recovered == s

    def test_closing_value_is_unique(self):
        bundle, _, s = harn_gm_init(4, 2, prime_bits=64, rng_seed=32)
        p = bundle.params.prime
        rng = random.Random(5)
        opening = FieldElement(rng.randrange(p), p)
        closing = s - opening
        ok, _ = harn_verify(
            [HarnToken(FieldElement(1, p), opening),
             HarnToken(FieldElement(2, p), closing)],
            bundle,
        )
        assert ok
        for delta in (1, 2, 17):
            off = closing + FieldElement(delta, p)
            bad, _ = harn_verify(
                [HarnToken(FieldElement(1, p), opening),
                 HarnToken(FieldElement(2, p), off)],
                bundle,
            )
            assert not bad
