"""Field, polynomial, Lagrange, and subgroup arithmetic tests.

Derived expectations are checked against independent oracles written
here (naive basis-expansion interpolation for Lagrange weights) rather
than against the implementation itself.
"""

import functools
import random
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from groupauth import algebra, xia2019
from groupauth.algebra import (
    _MEDIUM_PRIMORIAL,
    _SMALL_PRIMES,
    _WHEEL,
    _WHEEL_2,
    _WHEEL_3,
    _WHEEL_SIEVE_2,
    _WHEEL_SIEVE_3,
    CyclicGroupSpec,
    FieldElement,
    GroupElement,
    _fermat,
    _jacobi,
    _pair_sieved,
    _sieved,
    _strong_lucas_probable_prime,
    derive_rng,
    derive_seed,
    fixed_base_table,
    group_exp,
    group_setup,
    is_probable_prime,
    lagrange_coefficient,
    poly_eval,
    poly_eval_points,
    random_prime,
    random_safe_prime,
    residue_digest,
)
from groupauth.errors import DegenerateShareSet, SubgroupViolation
from groupauth.xia2019 import xia_gm_init

from conftest import (
    MEDIUM_PRIME,
    P64,
    P128,
    P256,
    Q64,
    SAFE_PRIMES,
    SMALL_PRIME,
)


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
        assert FieldElement(25, SMALL_PRIME).value == 2
        assert FieldElement(-1, SMALL_PRIME).value == 22
        assert FieldElement(-24, SMALL_PRIME).value == 22


# ---------------------------------------------------------------------------
# polynomials


def random_coefficients(degree, p, rng):
    return [rng.randrange(p) for _ in range(degree + 1)]


def full_numerators(targets, xs, p):
    """prod over the whole point set of (target - x), one per target."""
    out = []
    for target in targets:
        c = 1
        for x in xs:
            c = c * (target - x) % p
        out.append(c)
    return out


def interpolate(points, target, p, numerators=False):
    """f(target) from (x, f(x)) pairs by `lagrange_coefficient`, one call
    per point, with or without the shared numerators."""
    xs = [x for x, _ in points]
    shared = full_numerators((target,), xs, p) if numerators else None
    acc = 0
    for x, y in points:
        others = [o for o in xs if o != x]
        weight, = lagrange_coefficient((target,), x, others, p, shared)
        acc = (acc + y * weight) % p
    return acc


class TestPolynomial:
    def test_eval_small(self):
        assert poly_eval([3, 2], 3, 7) == 2  # 3 + 2*3 = 9 = 2 mod 7

    def test_constant_poly(self):
        for x in range(SMALL_PRIME):
            assert poly_eval([5], x, SMALL_PRIME) == 5

    def test_eval_at_zero_is_constant_term(self):
        rng = random.Random(2)
        f = random_coefficients(4, MEDIUM_PRIME, rng)
        assert poly_eval(f, 0, MEDIUM_PRIME) == f[0]

    @given(st.lists(st.integers(min_value=0, max_value=P64 - 1),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=P64 - 1))
    def test_eval_matches_field_element_horner(self, coeffs, x):
        """poly_eval reduces each step itself; this reference leaves every
        reduction to the FieldElement constructor."""
        acc = FieldElement(0, P64)
        for coeff in reversed(coeffs):
            acc = FieldElement(acc.value * x + coeff, P64)
        assert poly_eval(coeffs, x, P64) == acc.value

    @given(st.lists(st.integers(min_value=-P64, max_value=2 * P64),
                    min_size=1, max_size=8),
           st.lists(st.integers(min_value=-P64, max_value=2 * P64),
                    max_size=12))
    def test_eval_points_matches_eval(self, coeffs, xs):
        """One Horner pass per coefficient over all points gives each
        point what single-point evaluation gives it, unreduced inputs
        included."""
        assert poly_eval_points(coeffs, xs, P64) == [
            poly_eval(coeffs, x, P64) for x in xs]

    def test_eval_points_reduces_a_constant(self):
        assert poly_eval_points([-1], [0, 5], SMALL_PRIME) == [22, 22]
        assert poly_eval_points([SMALL_PRIME + 3], [], SMALL_PRIME) == []
        assert poly_eval_points([SMALL_PRIME + 3], [7], SMALL_PRIME) == [3]


# ---------------------------------------------------------------------------
# lagrange coefficients


class TestLagrange:
    def test_two_point_weights_mod_23(self):
        assert lagrange_coefficient((0,), 1, [2], SMALL_PRIME) == (2,)
        assert lagrange_coefficient((0,), 2, [1], SMALL_PRIME) == (22,)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient((0,), 1, [1], SMALL_PRIME)
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient((0,), 1, [2, 2], SMALL_PRIME)
        # positions are compared mod p
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient((0,), 1, [1 + SMALL_PRIME], SMALL_PRIME)
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient((0,), 1, [2, 2 - SMALL_PRIME], SMALL_PRIME)

    @pytest.mark.parametrize("others, named", [
        ([2, 3, 2], 2),
        ([3, 1 + SMALL_PRIME], 1),
        ([4, 5, 4, 1], 4),
        ([5, 1, 5], 1),
        ([2 + SMALL_PRIME, 3, 2 - SMALL_PRIME], 2),
    ])
    def test_duplicate_names_the_first_offending_position(self, others,
                                                           named):
        """The error names the first position, in the order of `others`
        and reduced mod p, that repeats `own` (here 1) or an earlier
        one, with or without shared numerators."""
        for numerators in (None, [0]):
            with pytest.raises(DegenerateShareSet,
                               match="^duplicate evaluation position %d$"
                               % named):
                lagrange_coefficient((0,), 1, others, SMALL_PRIME,
                                     numerators)

    def test_inputs_reduced_mod_p(self, rng):
        """Positions and targets off by multiples of p give the same
        canonical weights, with or without shared numerators."""
        p = P64
        xs = rng.sample(range(1, 10_000), 4)
        targets = [rng.randrange(p) for _ in range(3)]
        numerators = full_numerators(targets, xs, p)
        weights = lagrange_coefficient(targets, xs[0], xs[1:], p)
        assert all(0 <= w < p for w in weights)
        shifted = ([v - p for v in targets], xs[0] + p,
                   [x + 2 * p for x in xs[1:]], p)
        assert lagrange_coefficient(*shifted) == weights
        assert lagrange_coefficient(*shifted, numerators) == weights

    def test_target_sequence_equals_single_target_calls(self, rng):
        p = P64
        for size in (1, 2, 5, 12):
            xs = rng.sample(range(1, 10_000), size)
            own, others = xs[0], xs[1:]
            targets = [rng.randrange(p) for _ in range(7)]
            targets.append(0)
            weights = lagrange_coefficient(targets, own, others, p)
            assert isinstance(weights, tuple)
            assert weights == tuple(
                lagrange_coefficient((target,), own, others, p)[0]
                for target in targets
            )

    def test_empty_target_sequence(self):
        assert lagrange_coefficient((), 1, [2, 3], SMALL_PRIME) == ()
        assert lagrange_coefficient([], 1, [], SMALL_PRIME) == ()

    def test_duplicate_positions_rejected_for_target_sequence(self):
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([0, 5], 1, [1], SMALL_PRIME)
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([0, 5], 1, [2, 2], SMALL_PRIME)
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient((), 1, [3, 2, 3], SMALL_PRIME)

    @given(st.data())
    def test_shared_numerators_equal_sequence_form(self, data):
        """Given prod over the whole point set of (target - x) per target,
        the weights equal the plain sequence form's, for targets at a
        position (own included) and off every position."""
        p = data.draw(st.sampled_from([SMALL_PRIME, MEDIUM_PRIME, P64]))
        xs = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                max_size=12, unique=True))
        targets = data.draw(st.lists(
            st.one_of(st.sampled_from(xs), st.integers(0, p - 1)),
            max_size=8))
        own, others = xs[0], xs[1:]
        numerators = full_numerators(targets, xs, p)
        assert (lagrange_coefficient(targets, own, others, p, numerators)
                == lagrange_coefficient(targets, own, others, p))

    def test_shared_numerators_keep_the_checks(self):
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([0], 1, [2, 2], SMALL_PRIME, [0])
        with pytest.raises(DegenerateShareSet):
            lagrange_coefficient([0], 1, [1], SMALL_PRIME, [0])
        with pytest.raises(ValueError):
            lagrange_coefficient([0, 5], 1, [2], SMALL_PRIME, [2])

    @given(st.data())
    def test_weights_match_naive_oracle(self, data):
        """Weights with and without shared numerators reconstruct
        f(target) as the basis-expansion oracle does, and a position
        repeated mod p (x and x + p) is rejected either way."""
        p = data.draw(st.sampled_from([SMALL_PRIME, Q64]))
        xs = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                max_size=min(8, p), unique=True))
        f = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                               max_size=len(xs)))
        target = data.draw(st.integers(0, p - 1))
        points = [(x, poly_eval(f, x, p)) for x in xs]
        expect = naive_interpolate_at(points, target, p)
        assert expect == poly_eval(f, target, p)
        assert interpolate(points, target, p) == expect
        assert interpolate(points, target, p, numerators=True) == expect
        repeated = data.draw(st.sampled_from(xs)) + p
        for shared in (None, [0]):
            with pytest.raises(DegenerateShareSet):
                lagrange_coefficient((target,), xs[0], [*xs[1:], repeated],
                                     p, shared)

    def test_three_point_reconstruction_matches_naive_oracle(self):
        p = MEDIUM_PRIME
        rng = random.Random(3)
        for _ in range(50):
            f = random_coefficients(2, p, rng)
            xs = rng.sample(range(1, p), 3)
            pts = [(x, poly_eval(f, x, p)) for x in xs]
            target = rng.randrange(p)
            expect = naive_interpolate_at(pts, target, p)
            got = 0
            for x, y in pts:
                others = [o for o, _ in pts if o != x]
                lam, = lagrange_coefficient((target,), x, others, p)
                got = (got + y * lam) % p
            assert got == expect

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_threshold_reconstruction_identity(self, t, rng):
        """Any t shares of a degree t-1 polynomial recover f(target)."""
        p = P64
        for _ in range(10):
            f = random_coefficients(t - 1, p, rng)
            xs = rng.sample(range(1, 10_000), t)
            target = rng.randrange(p)
            points = [(x, poly_eval(f, x, p)) for x in xs]
            assert interpolate(points, target, p) == poly_eval(f, target, p)

    def test_more_points_than_degree_still_interpolate(self, rng):
        p = P64
        f = random_coefficients(2, p, rng)  # degree 2, use 5 points
        xs = rng.sample(range(1, 10_000), 5)
        points = [(x, poly_eval(f, x, p)) for x in xs]
        assert interpolate(points, 0, p) == f[0]

    def test_fewer_points_than_degree_fail_whp(self, rng):
        """m < t shares interpolate to the wrong value except w.p. ~1/p."""
        p = P64
        misses = 0
        for _ in range(50):
            f = random_coefficients(2, p, rng)  # needs 3 points
            xs = rng.sample(range(1, 10_000), 2)
            points = [(x, poly_eval(f, x, p)) for x in xs]
            if interpolate(points, 0, p) != f[0]:
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
        assert group_exp(g, 3) == 8
        assert group_exp(g, 0) == 1
        assert group_exp(g, -1) == pow(2, -1, 23)

    def test_exponent_reduced_mod_q(self):
        g = GroupElement(2, self.spec)
        assert group_exp(g, 11) == 1
        assert group_exp(g, 13) == group_exp(g, 2)
        assert group_exp(g, 3 - 11) == 8

    def test_inverse_law(self):
        g = GroupElement(4, self.spec)
        assert g.value * group_exp(g, -1) % 23 == 1

    @given(st.integers(min_value=2, max_value=P64 - 2))
    @settings(max_examples=50)
    def test_squares_mod_safe_prime_are_members(self, r):
        spec = CyclicGroupSpec(P64, Q64)
        g = GroupElement(r * r % P64, spec)
        assert pow(g.value, Q64, P64) == 1
        assert g.value * group_exp(g, -1) % P64 == 1


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

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 97, 101, 10_007,
                                   *SAFE_PRIMES],
                             ids=lambda p: str(p) if p < 10 ** 6
                             else "%d-bit" % p.bit_length())
    def test_jacobi_is_eulers_criterion_for_prime_n(self, p):
        """(a/p) = a^((p-1)/2) mod p, as 1, -1 or 0, for odd a and even
        a, multiples of p and values past p alike."""
        rng = random.Random(p)
        values = range(2 * p + 1) if p < 200 else [
            rng.randrange(1, p) << shift for shift in range(12)
            for _ in range(40)] + [0, p, 2 * p, p << 64]
        for a in values:
            euler = pow(a, (p - 1) // 2, p)
            assert _jacobi(a, p) == (-1 if euler == p - 1 else euler), a


def jacobi_by_single_shifts(a: int, n: int) -> int:
    """The binary Jacobi algorithm stripping one factor of two per step,
    as `_jacobi` did before it stripped them in one shift."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class TestJacobiShift:
    """`_jacobi` gives the symbol of the one-factor-per-step loop."""

    @settings(max_examples=300)
    @given(n=st.integers(0, 2 ** 130).map(lambda k: 2 * k + 1),
           a=st.integers(0, 2 ** 140), twos=st.integers(0, 70))
    def test_matches_the_single_shift_loop(self, n, a, twos):
        for value in (a, a << twos, 0):
            assert _jacobi(value, n) == jacobi_by_single_shifts(value, n)

    @pytest.mark.parametrize("n", [1, 9, 15, 21, 45, 105, 3 * 5 * 7 * 11,
                                   P64 * Q64, 3 ** 20, 3 * (2 ** 61 - 1)],
                             ids=lambda n: str(n) if n < 10 ** 6
                             else "%d-bit" % n.bit_length())
    def test_matches_on_odd_composites_and_one(self, n):
        rng = random.Random(n)
        values = [0, 1, 2, 4, 6, 8, n - 1, n, n + 1, 2 * n, 1 << 100]
        values += [rng.randrange(n + 1) << rng.randrange(9)
                   for _ in range(300)]
        for a in values:
            assert _jacobi(a, n) == jacobi_by_single_shifts(a, n), a
        assert _jacobi(0, 1) == _jacobi(6, 1) == 1


class TestUncheckedResults:
    """Powers are plain ints that skip the membership test; each must
    still pass the checked constructor, on the `pow` path and the table
    path alike."""

    @pytest.mark.parametrize("p", SAFE_PRIMES[:2],
                             ids=lambda p: "%d-bit" % p.bit_length())
    def test_results_equal_checked_elements(self, p):
        spec = CyclicGroupSpec(p, (p - 1) // 2)
        rng = random.Random(p)
        for _ in range(50):
            a = GroupElement(rng.randrange(2, p - 1) ** 2 % p, spec)
            b = GroupElement(rng.randrange(2, p - 1) ** 2 % p, spec)
            e = rng.randrange(-spec.q, 2 * spec.q)
            table = fixed_base_table(a)
            for result in (group_exp(a, e), group_exp(b, -e),
                           group_exp(a, 0), group_exp(a, e, table),
                           group_exp(a, -e, table), group_exp(a, 0, table)):
                assert type(result) is int
                assert GroupElement(result, spec).value == result

    def test_session_powers_pass_the_checked_constructor(self):
        params, _, _ = xia_gm_init(3, 2, ell=2, prime_bits=64, rng_seed=7)
        rng = random.Random(7)
        for session in (1, 2):
            # past _POWS_BEFORE_TABLE, the later powers come from the table
            for _ in range(xia2019._POWS_BEFORE_TABLE + 8):
                value = params.power(session, rng.randrange(-params.group.q,
                                                            params.group.q))
                assert type(value) is int
                assert GroupElement(value, params.group).value == value
            assert session in params._powers


# random_safe_prime(16, random.Random(16)); the other sizes from conftest
FIXED_BASE_SPECS = tuple(CyclicGroupSpec(p, (p - 1) // 2)
                         for p in (54563, P64, P128, P256))


def spec_id(spec):
    return "%d-bit" % spec.p.bit_length()


@functools.cache
def generator_and_table(spec):
    rng = random.Random(spec.p)
    g = GroupElement(rng.randrange(2, spec.p - 1) ** 2 % spec.p, spec)
    return g, fixed_base_table(g)


class TestFixedBaseTable:
    """Powers through a fixed-base table equal `pow`'s."""

    @pytest.mark.parametrize("spec", FIXED_BASE_SPECS, ids=spec_id)
    def test_table_shape(self, spec):
        g, table = generator_and_table(spec)
        width = 1 << algebra._WINDOW
        assert len(table) == -(-spec.q.bit_length() // algebra._WINDOW)
        for i, row in enumerate(table):
            step = 1 << (algebra._WINDOW * i)
            assert row == [pow(g.value, j * step, spec.p)
                           for j in range(width)]

    @pytest.mark.parametrize("spec", FIXED_BASE_SPECS, ids=spec_id)
    def test_edge_exponents(self, spec):
        g, table = generator_and_table(spec)
        q = spec.q
        for e in (0, 1, q - 1, q, q + 1, -1, -q, 2 ** 300):
            result = group_exp(g, e, table)
            assert result == pow(g.value, e % q, spec.p), e
            assert result == group_exp(g, e)

    @pytest.mark.parametrize("spec", FIXED_BASE_SPECS, ids=spec_id)
    @given(e=st.integers(min_value=-2 ** 300, max_value=2 ** 300))
    @settings(max_examples=50)
    def test_random_exponents(self, spec, e):
        g, table = generator_and_table(spec)
        assert group_exp(g, e, table) == pow(g.value, e % spec.q, spec.p)


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
    """Stands in for the `sympy` seam inside `groupauth.algebra`: counts
    the primality tests and forwards each to the test it replaces."""

    def __init__(self):
        self.calls = 0
        self._isprime = algebra.sympy.isprime

    def isprime(self, n):
        self.calls += 1
        return self._isprime(n)


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

    @pytest.mark.parametrize("period, table", [
        (_WHEEL_2, _WHEEL_SIEVE_2), (_WHEEL_3, _WHEEL_SIEVE_3),
    ], ids=["17-19-23", "29-31-37"])
    def test_every_deeper_wheel_residue_matches_oracle(self, period, table):
        """Over one full period of a deeper table, `_pair_sieved` agrees
        with trial division, and each byte says whether w * (2w + 1) is
        prime to the table's primes."""
        assert len(table) == period
        for q in range(998, 998 + period):
            assert _pair_sieved(q) == (
                oracle_sieved(q) and oracle_sieved(2 * q + 1)), q
        for w in range(period):
            assert table[w] == (gcd(w * (2 * w + 1), period) == 1), w

    def test_medium_stage_primes_lie_below_the_least_q(self):
        """The second stage's primes lie in [1000, 2^14), and 2^14 is the
        least q that a 16-bit search draws, so every prime pair above it
        passes the stage."""
        assert prod(sympy.primerange(1000, 1 << 14)) % _MEDIUM_PRIMORIAL == 0
        for q in sympy.primerange(1 << 14, 1 << 15):
            if sympy.isprime(2 * q + 1):
                assert gcd(q * (2 * q + 1), _MEDIUM_PRIMORIAL) == 1, q

    @settings(max_examples=300)
    @given(sized_ints(15, 256))
    def test_medium_stage_rejects_only_composite_pairs(self, q):
        if gcd(q * (2 * q + 1), _MEDIUM_PRIMORIAL) != 1:
            assert not (sympy.isprime(q) and sympy.isprime(2 * q + 1))

    def test_fermat_passes_every_odd_prime(self):
        assert all(_fermat(p) for p in sympy.primerange(3, 20_000))
        assert not _fermat(91) and _fermat(341)  # 341 = 11 * 31 fools it


# The Sorenson-Webster bound: the least strong pseudoprime to the prime
# bases 2..41, and the point where is_probable_prime turns to BPSW.
MR_BOUND = 3_317_044_064_679_887_385_961_981


class TestPrimality:
    """is_probable_prime against sympy.isprime as oracle."""

    def test_small_ints_match_oracle(self):
        for n in range(-10, 100_000):
            assert is_probable_prime(n) == sympy.isprime(n), n

    @settings(max_examples=300)
    @given(sized_ints(2, 512))
    def test_random_ints_match_oracle(self, n):
        assert is_probable_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("centre", [1 << 64, MR_BOUND],
                             ids=["2^64", "mr-bound"])
    def test_odd_ints_near_regime_edges_match_oracle(self, centre):
        for n in range((centre - 5_000) | 1, centre + 5_000, 2):
            assert is_probable_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [
        2047, 3277, 4033, 4681, 8321,  # strong pseudoprimes to base 2
        5459, 5777, 10877, 16109, 18971,  # strong Lucas pseudoprimes
        561, 1105, 1729, 2465, 2821, 6601, 8911,  # Carmichael numbers
        # least strong pseudoprimes to the prime bases up to 7, 23, 37, 41
        3215031751, 3825123056546413051, 318665857834031151167461,
        MR_BOUND,
        # strong pseudoprimes to base 2 just below 2^64
        18446743208455367653, 18446744066047760377,
    ])
    def test_pseudoprimes_are_composite(self, n):
        assert not sympy.isprime(n)
        assert not is_probable_prime(n)

    def test_base_divisible_by_n_is_skipped(self):
        # the base 1,795,265,022 is 6 * 299,210,837; reduced mod that
        # prime it is 0, which would call the prime composite
        assert 1_795_265_022 % 299_210_837 == 0
        assert sympy.isprime(299_210_837)
        assert is_probable_prime(299_210_837)

    @pytest.mark.parametrize("p", [1009, 65537, 4294967291, P64, P128])
    def test_prime_squares_are_composite(self, p):
        assert not is_probable_prime(p * p)  # P64 and P128 square past 2^64

    @pytest.mark.parametrize("p", [P128, P256],
                             ids=lambda p: "%d-bit" % p.bit_length())
    def test_conftest_safe_primes_match_oracle(self, p):
        assert is_probable_prime(p) and sympy.isprime(p)
        assert is_probable_prime(p // 2) and sympy.isprime(p // 2)

    def test_lucas_test_matches_oracle_above_trial_division(self):
        # the range holds two strong Lucas pseudoprimes, which both pass
        assert _strong_lucas_probable_prime(1033997)
        assert _strong_lucas_probable_prime(1106327)
        for n in range(1_030_001, 1_110_000, 2):
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n

    def test_small_primes_are_the_odd_primes_below_1000(self):
        assert _SMALL_PRIMES == tuple(sympy.primerange(3, 1000))


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
