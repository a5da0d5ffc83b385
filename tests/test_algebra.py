"""Field, polynomial, Lagrange, and subgroup arithmetic tests.

Derived expectations are checked against independent oracles written
here (multiply-back for inverses, naive basis-expansion interpolation
for Lagrange weights) rather than against the implementation itself.
"""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth import algebra
from groupauth.algebra import (
    _SMALL_PRIMES,
    _WHEEL,
    CyclicGroupSpec,
    FieldElement,
    GroupElement,
    Polynomial,
    _fermat,
    _jacobi,
    _pair_sieved,
    _sieved,
    derive_rng,
    derive_seed,
    field_inverse,
    group_exp,
    group_setup,
    lagrange_coefficient,
    poly_eval,
    random_prime,
    random_safe_prime,
    residue_digest,
)
from groupauth.errors import (
    DegenerateShareSet,
    InversionOfZero,
    ModulusMismatch,
    SubgroupViolation,
)

from conftest import (
    MEDIUM_PRIME,
    P64,
    P128,
    P256,
    Q64,
    SAFE_PRIMES,
    SMALL_PRIME,
)


def fe(v, p=SMALL_PRIME):
    return FieldElement(v, p)


# ---------------------------------------------------------------------------
# oracle helpers (independent implementations used only for checking)


def naive_interpolate_at(points, target, p):
    """Full basis-polynomial expansion, then evaluation at target.

    Builds each Lagrange basis polynomial by multiplying out the linear
    factors with schoolbook coefficient arithmetic, a deliberately
    different code path from the product formula under test.
    """

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return out

    total = [0]
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = poly_mul(basis, [-xj % p, 1])
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p) % p
        basis = [c * scale % p for c in basis]
        padded = total + [0] * (len(basis) - len(total))
        total = [(padded[k] + (basis[k] if k < len(basis) else 0)) % p
                 for k in range(len(padded))]
    return sum(c * pow(target, k, p) for k, c in enumerate(total)) % p


# ---------------------------------------------------------------------------
# field elements


class TestFieldElement:
    def test_canonical_reduction(self):
        assert fe(25).value == 2
        assert fe(-1).value == 22
        assert fe(-24).value == 22

    def test_arithmetic(self):
        assert fe(9) + fe(20) == fe(6)
        assert fe(3) - fe(9) == fe(17)
        assert fe(7) * fe(7) == fe(3)
        assert -fe(1) == fe(22)

    def test_inverse_of_one_is_one(self):
        assert field_inverse(fe(1)) == fe(1)

    def test_inverse_of_two_mod_23(self):
        assert field_inverse(fe(2)) == fe(12)

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(InversionOfZero):
            field_inverse(fe(0))

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ModulusMismatch):
            fe(1, 23) + fe(1, 29)
        with pytest.raises(ModulusMismatch):
            fe(1, 23) * fe(1, 29)

    def test_thousand_random_inverses_multiply_back(self):
        rng = random.Random(1)
        for _ in range(1000):
            a = FieldElement(rng.randrange(1, P64), P64)
            assert a * field_inverse(a) == FieldElement(1, P64)

    @given(st.integers(min_value=1, max_value=P64 - 1))
    def test_inverse_multiply_back_property(self, v):
        a = FieldElement(v, P64)
        assert (a * a.inverse()).value == 1


# ---------------------------------------------------------------------------
# polynomials


class TestPolynomial:
    def test_eval_small(self):
        f = Polynomial((fe(3, 7), fe(2, 7)))
        assert poly_eval(f, fe(3, 7)) == fe(2, 7)  # 3 + 2*3 = 9 = 2 mod 7

    def test_constant_poly(self):
        f = Polynomial((fe(5),))
        for x in range(SMALL_PRIME):
            assert poly_eval(f, fe(x)) == fe(5)

    def test_eval_at_zero_is_constant_term(self):
        rng = random.Random(2)
        f = Polynomial.random(4, MEDIUM_PRIME, rng)
        assert poly_eval(f, FieldElement(0, MEDIUM_PRIME)) == f.coefficients[0]

    def test_random_with_pinned_constant(self, rng):
        s = FieldElement(1234, MEDIUM_PRIME)
        f = Polynomial.random(3, MEDIUM_PRIME, rng, constant=s)
        assert f.coefficients[0] == s
        assert len(f.coefficients) == 4

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusMismatch):
            Polynomial((fe(1, 23), fe(1, 29)))
        f = Polynomial((fe(1), fe(2)))
        with pytest.raises(ModulusMismatch):
            poly_eval(f, fe(1, 29))

    @given(st.lists(st.integers(min_value=0, max_value=P64 - 1),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=P64 - 1))
    def test_eval_matches_field_element_horner(self, coeffs, x):
        """poly_eval runs on ints; this reference keeps every step a
        FieldElement."""
        f = Polynomial(tuple(FieldElement(c, P64) for c in coeffs))
        point = FieldElement(x, P64)
        acc = FieldElement(0, P64)
        for coeff in reversed(f.coefficients):
            acc = acc * point + coeff
        assert poly_eval(f, point) == acc


# ---------------------------------------------------------------------------
# lagrange coefficients


class TestLagrange:
    def test_two_point_weights_mod_23(self):
        zero = fe(0)
        assert lagrange_coefficient(zero, fe(1), [fe(2)]) == fe(2)
        assert lagrange_coefficient(zero, fe(2), [fe(1)]) == fe(22)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient(fe(0), fe(1), [fe(1)])
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient(fe(0), fe(1), [fe(2), fe(2)])

    def test_target_sequence_equals_single_target_calls(self, rng):
        p = P64
        for size in (1, 2, 5, 12):
            xs = rng.sample(range(1, 10_000), size)
            own = FieldElement(xs[0], p)
            others = [FieldElement(x, p) for x in xs[1:]]
            targets = [FieldElement(rng.randrange(p), p) for _ in range(7)]
            targets.append(FieldElement(0, p))
            weights = lagrange_coefficient(targets, own, others)
            assert isinstance(weights, tuple)
            assert weights == tuple(
                lagrange_coefficient(target, own, others)
                for target in targets
            )

    def test_empty_target_sequence(self):
        assert lagrange_coefficient((), fe(1), [fe(2), fe(3)]) == ()
        assert lagrange_coefficient([], fe(1), []) == ()

    def test_target_of_another_modulus_rejected(self):
        with pytest.raises(ModulusMismatch):
            lagrange_coefficient([fe(0), fe(0, 29)], fe(1), [fe(2)])
        with pytest.raises(ModulusMismatch):
            lagrange_coefficient(fe(0, 29), fe(1), [fe(2)])
        with pytest.raises(ModulusMismatch):
            lagrange_coefficient([fe(0)], fe(1), [fe(2), fe(3, 29)])

    def test_duplicate_positions_rejected_for_target_sequence(self):
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([fe(0), fe(5)], fe(1), [fe(1)])
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([fe(0), fe(5)], fe(1), [fe(2), fe(2)])
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient((), fe(1), [fe(3), fe(2), fe(3)])

    @given(st.data())
    def test_shared_numerators_equal_sequence_form(self, data):
        """Given prod over the whole point set of (target - x) per target,
        the weights equal the plain sequence form's, for targets at a
        position (own included) and off every position."""
        p = data.draw(st.sampled_from([SMALL_PRIME, MEDIUM_PRIME, P64]))
        xs = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                max_size=12, unique=True))
        values = data.draw(st.lists(
            st.one_of(st.sampled_from(xs), st.integers(0, p - 1)),
            max_size=8))
        own = FieldElement(xs[0], p)
        others = [FieldElement(x, p) for x in xs[1:]]
        targets = [FieldElement(v, p) for v in values]
        numerators = []
        for v in values:
            c = 1
            for x in xs:
                c = c * (v - x) % p
            numerators.append(c)
        assert (lagrange_coefficient(targets, own, others, numerators)
                == lagrange_coefficient(targets, own, others))

    def test_shared_numerators_keep_the_checks(self):
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([fe(0)], fe(1), [fe(2), fe(2)], [0])
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([fe(0)], fe(1), [fe(1)], [0])
        with pytest.raises(ModulusMismatch):
            lagrange_coefficient([fe(0, 29)], fe(1), [fe(2)], [2])
        with pytest.raises(ModulusMismatch):
            lagrange_coefficient([fe(0)], fe(1), [fe(2, 29)], [2])
        with pytest.raises(ValueError):
            lagrange_coefficient([fe(0), fe(5)], fe(1), [fe(2)], [2])

    def test_three_point_reconstruction_matches_naive_oracle(self):
        p = MEDIUM_PRIME
        rng = random.Random(3)
        for _ in range(50):
            f = Polynomial.random(2, p, rng)
            xs = rng.sample(range(1, p), 3)
            pts = [(x, poly_eval(f, FieldElement(x, p)).value) for x in xs]
            target = rng.randrange(p)
            expect = naive_interpolate_at(pts, target, p)
            got = FieldElement(0, p)
            for x, y in pts:
                others = [FieldElement(o, p) for o, _ in pts if o != x]
                lam = lagrange_coefficient(
                    FieldElement(target, p), FieldElement(x, p), others
                )
                got = got + FieldElement(y, p) * lam
            assert got.value == expect

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_threshold_reconstruction_identity(self, t, rng):
        """Any t shares of a degree t-1 polynomial recover f(target)."""
        p = P64
        for _ in range(10):
            f = Polynomial.random(t - 1, p, rng)
            xs = rng.sample(range(1, 10_000), t)
            target = FieldElement(rng.randrange(p), p)
            acc = FieldElement(0, p)
            for x in xs:
                own = FieldElement(x, p)
                others = [FieldElement(o, p) for o in xs if o != x]
                acc = acc + poly_eval(f, own) * lagrange_coefficient(
                    target, own, others
                )
            assert acc == poly_eval(f, target)

    def test_more_points_than_degree_still_interpolate(self, rng):
        p = P64
        f = Polynomial.random(2, p, rng)  # degree 2, use 5 points
        xs = rng.sample(range(1, 10_000), 5)
        target = FieldElement(0, p)
        acc = FieldElement(0, p)
        for x in xs:
            own = FieldElement(x, p)
            others = [FieldElement(o, p) for o in xs if o != x]
            acc = acc + poly_eval(f, own) * lagrange_coefficient(target, own, others)
        assert acc == f.coefficients[0]

    def test_fewer_points_than_degree_fail_whp(self, rng):
        """m < t shares interpolate to the wrong value except w.p. ~1/p."""
        p = P64
        misses = 0
        for _ in range(50):
            f = Polynomial.random(2, p, rng)  # needs 3 points
            xs = rng.sample(range(1, 10_000), 2)
            acc = FieldElement(0, p)
            for x in xs:
                own = FieldElement(x, p)
                others = [FieldElement(o, p) for o in xs if o != x]
                acc = acc + poly_eval(f, own) * lagrange_coefficient(
                    FieldElement(0, p), own, others
                )
            if acc != f.coefficients[0]:
                misses += 1
        assert misses == 50


# ---------------------------------------------------------------------------
# group arithmetic


class TestGroup:
    spec = CyclicGroupSpec(23, 11)

    def test_squares_are_members(self):
        g = GroupElement(5 * 5 % 23, self.spec)
        assert g.value == 2
        assert pow(g.value, 11, 23) == 1

    def test_non_member_rejected(self):
        # 5 is a quadratic non-residue mod 23, so 5^11 = -1 mod 23
        with pytest.raises(SubgroupViolation):
            GroupElement(5, self.spec)
        with pytest.raises(SubgroupViolation):
            GroupElement(0, self.spec)
        with pytest.raises(SubgroupViolation):
            GroupElement(23, self.spec)

    def test_exponentiation(self):
        g = GroupElement(2, self.spec)
        assert group_exp(g, 3).value == 8
        assert group_exp(g, 0).value == 1
        assert group_exp(g, -1) == g.inverse()

    def test_exponent_reduced_mod_q(self):
        g = GroupElement(2, self.spec)
        assert group_exp(g, 11).value == 1
        assert group_exp(g, 13) == group_exp(g, 2)
        assert group_exp(g, FieldElement(3, 11)).value == 8

    def test_exponent_modulus_must_be_group_order(self):
        g = GroupElement(2, self.spec)
        with pytest.raises(ModulusMismatch):
            group_exp(g, FieldElement(3, 23))

    def test_inverse_law(self):
        g = GroupElement(4, self.spec)
        assert (g * g.inverse()).value == 1

    def test_cross_group_multiplication_rejected(self):
        other = CyclicGroupSpec(2 * Q64 + 1, Q64)
        with pytest.raises(ModulusMismatch):
            GroupElement(4, self.spec) * GroupElement(4, other)

    @given(st.integers(min_value=2, max_value=P64 - 2))
    @settings(max_examples=50)
    def test_squares_mod_safe_prime_are_members(self, r):
        spec = CyclicGroupSpec(P64, Q64)
        g = GroupElement(r * r % P64, spec)
        assert pow(g.value, Q64, P64) == 1
        assert (g * g.inverse()).value == 1


SMALL_SAFE_PRIMES = tuple(
    p for p in sympy.primerange(5, 300) if sympy.isprime((p - 1) // 2)
)


def is_member(value, spec):
    try:
        GroupElement(value, spec)
    except SubgroupViolation:
        return False
    return True


class TestMembershipTest:
    """The Jacobi-symbol membership test against Euler's criterion."""

    @pytest.mark.parametrize("p", SMALL_SAFE_PRIMES)
    def test_agrees_with_euler_on_every_value(self, p):
        q = (p - 1) // 2
        spec = CyclicGroupSpec(p, q)
        for v in range(0, p + 1):
            euler = 1 <= v < p and pow(v, q, p) == 1
            assert is_member(v, spec) == euler, v
            if 1 <= v < p:
                assert (_jacobi(v, p) == 1) == euler, v

    @pytest.mark.parametrize("p", SAFE_PRIMES,
                             ids=lambda p: "%d-bit" % p.bit_length())
    def test_agrees_with_euler_on_seeded_values(self, p):
        q = (p - 1) // 2
        spec = CyclicGroupSpec(p, q)
        rng = random.Random(p)
        members = 0
        for _ in range(1000):
            v = rng.randrange(1, p)
            euler = pow(v, q, p) == 1
            assert (_jacobi(v, p) == 1) == euler, v
            assert is_member(v, spec) == euler, v
            members += euler
        assert 400 < members < 600  # about half of Z_p* is in the subgroup

    def test_jacobi_of_shared_factor_is_zero(self):
        assert _jacobi(21, 15) == 0
        assert _jacobi(0, 23) == 0
        assert _jacobi(23, 23) == 0


class TestUncheckedResults:
    """Group operations skip the membership test; their results must
    still equal what the checked constructor builds."""

    @pytest.mark.parametrize("p", SAFE_PRIMES[:2],
                             ids=lambda p: "%d-bit" % p.bit_length())
    def test_results_equal_checked_elements(self, p):
        spec = CyclicGroupSpec(p, (p - 1) // 2)
        rng = random.Random(p)
        for _ in range(50):
            a = GroupElement(rng.randrange(2, p - 1) ** 2 % p, spec)
            b = GroupElement(rng.randrange(2, p - 1) ** 2 % p, spec)
            e = rng.randrange(-spec.q, 2 * spec.q)
            results = [
                a * b,
                a.inverse(),
                group_exp(a, e),
                group_exp(a, FieldElement(e, spec.q)),
                spec.identity(),
            ]
            for result in results:
                assert result == GroupElement(result.value, spec)

    def test_operations_keep_type_and_group_checks(self):
        spec = CyclicGroupSpec(23, 11)
        other = CyclicGroupSpec(2 * Q64 + 1, Q64)
        g = GroupElement(4, spec)
        with pytest.raises(TypeError):
            g * 4
        with pytest.raises(ModulusMismatch):
            g * GroupElement(4, other)


class TestGroupSetup:
    # Pinned regression vector: first run of group_setup(64, 3, rng_seed=5).
    PINNED_P = 14170049107003622843
    PINNED_Q = 7085024553501811421
    PINNED_GENS = (
        13186673595312898465,
        7997711280171439579,
        191376234814047985,
    )

    def test_pinned_vector(self):
        spec, gens = group_setup(64, 3, rng_seed=5)
        assert spec.p == self.PINNED_P
        assert spec.q == self.PINNED_Q
        assert tuple(g.value for g in gens) == self.PINNED_GENS

    def test_structure(self):
        spec, gens = group_setup(64, 3, rng_seed=5)
        assert spec.p == 2 * spec.q + 1
        assert spec.p.bit_length() == 64
        assert len({g.value for g in gens}) == 3
        for g in gens:
            assert g.value != 1
            assert pow(g.value, spec.q, spec.p) == 1

    def test_rejects_tiny_parameters(self):
        with pytest.raises(ValueError):
            group_setup(8, 1, rng_seed=0)
        with pytest.raises(ValueError):
            group_setup(64, 0, rng_seed=0)

    def test_prime_generators_deterministic(self):
        rng1, rng2 = random.Random(9), random.Random(9)
        assert random_prime(48, rng1) == random_prime(48, rng2)

    def test_safe_prime_structure(self):
        p, q = random_safe_prime(32, random.Random(4))
        assert p == 2 * q + 1
        assert p.bit_length() == 32


# ---------------------------------------------------------------------------
# prime search against the plain trial-division search as oracle


def oracle_sieved(n):
    """Trial division by every odd prime below 1000, first factor wins."""
    for r in _SMALL_PRIMES:
        if n % r == 0:
            return n == r
    return True


def oracle_random_prime(bits, rng):
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if oracle_sieved(candidate) and sympy.isprime(candidate):
            return candidate


def oracle_random_safe_prime(bits, rng):
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if not (oracle_sieved(q) and oracle_sieved(p)):
            continue
        if sympy.isprime(q) and sympy.isprime(p):
            return p, q


def sized_ints(low_bits, high_bits):
    """Integers of a drawn bit length, so every size is tried alike."""
    return st.integers(low_bits, high_bits).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))


class CountingSympy:
    """Stands in for `sympy` inside `groupauth.algebra`; counts isprime."""

    def __init__(self):
        self.calls = 0

    def isprime(self, n):
        self.calls += 1
        return sympy.isprime(n)


class TestPrimeFilters:
    def test_small_ints_match_oracle(self):
        # the n == r rule: a small prime is never rejected as its own factor
        for n in range(-1000, 998):
            assert _sieved(n) == oracle_sieved(n), n

    @settings(max_examples=300)
    @given(sized_ints(16, 512))
    def test_random_ints_match_oracle(self, n):
        assert _sieved(n) == oracle_sieved(n)

    @settings(max_examples=300)
    @given(sized_ints(15, 511))
    def test_random_pairs_match_oracle(self, q):
        assert _pair_sieved(q) == (
            oracle_sieved(q) and oracle_sieved(2 * q + 1))

    def test_every_wheel_residue_matches_oracle(self):
        for q in range(998, 998 + _WHEEL):
            assert _pair_sieved(q) == (
                oracle_sieved(q) and oracle_sieved(2 * q + 1)), q

    def test_fermat_passes_every_odd_prime(self):
        assert all(_fermat(p) for p in sympy.primerange(3, 20_000))
        assert not _fermat(91) and _fermat(341)  # 341 = 11 * 31 fools it


class TestPrimeSearch:
    @pytest.mark.parametrize("bits", [8, 9, 10, 16, 17, 24, 32, 64, 128])
    def test_random_prime_matches_oracle(self, bits):
        for seed in range(20):
            assert random_prime(bits, random.Random(seed)) == \
                oracle_random_prime(bits, random.Random(seed))

    @pytest.mark.parametrize("bits", [16, 17, 24, 32, 64, 128])
    def test_random_safe_prime_matches_oracle(self, bits):
        for seed in range(20):
            assert random_safe_prime(bits, random.Random(seed)) == \
                oracle_random_safe_prime(bits, random.Random(seed))

    @pytest.mark.parametrize("bits", [8, 9])
    def test_small_search_returns_a_small_prime(self, bits):
        # the prime found divides the small-prime product: the n == r rule
        # lets it through
        assert random_prime(bits, random.Random(0)) in _SMALL_PRIMES

    @pytest.mark.parametrize("bits, p", [(128, P128), (256, P256)])
    def test_conftest_safe_primes_are_search_results(self, bits, p):
        assert random_safe_prime(bits, random.Random(bits)) == (p, p // 2)

    def test_two_isprime_calls_per_safe_prime(self, monkeypatch):
        counting = CountingSympy()
        monkeypatch.setattr(algebra, "sympy", counting)
        for seed in range(10):
            random_safe_prime(128, random.Random(seed))
        assert counting.calls == 20  # q and p of each safe prime


# ---------------------------------------------------------------------------
# seeds and digests


class TestSeedsAndDigests:
    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)

    def test_derive_rng_reproducible(self):
        a = derive_rng(7, "x").random()
        b = derive_rng(7, "x").random()
        assert a == b

    def test_residue_digest_fixed_width(self):
        # equal residues hash equal; width follows the modulus
        assert residue_digest(5, P64) == residue_digest(5, P64)
        assert residue_digest(5, P64) != residue_digest(6, P64)
        assert residue_digest(5, P64) != residue_digest(5, MEDIUM_PRIME)

    def test_residue_digest_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            residue_digest(P64, P64)
        with pytest.raises(ValueError):
            residue_digest(-1, P64)
