"""Prime-field and prime-order-subgroup arithmetic.

The math runs on plain arbitrary-precision ints: polynomial evaluation
and Lagrange weights mod a prime, and powers in the order-q subgroup of
Z_p* for a safe prime p = 2q + 1 (by `pow`, or from a `fixed_base_table`
for a base raised many times). Two small value types remain:
FieldElement, a canonical residue that holds the dealer's material other
than harn shares, and GroupElement, a subgroup member that only its
checking constructor builds: for the dealer's generators and for each
wire value. `group_exp` returns a plain int, since a power cannot leave
the subgroup.

Randomness is simulation-grade: callers pass a seeded random.Random (or a
seed) so that every derived object is reproducible byte for byte. Nothing
here is hardened for production use (no constant-time code, PRNG only).
"""

import hashlib
import random
import weakref
from dataclasses import dataclass, field
from math import gcd, isqrt, prod
from types import SimpleNamespace

from .channel import decode_invitation, decode_residue_hex, encode_residue_hex
from .errors import (
    DegenerateShareSet,
    GroupAuthError,
    InvalidThreshold,
    MalformedTranscript,
    SubgroupViolation,
)


def _odd_primes_below(limit: int) -> tuple:
    """The odd primes below `limit`, by the sieve of Eratosthenes."""
    sieve = bytearray(b"\x01") * limit
    for r in range(3, isqrt(limit - 1) + 1, 2):
        if sieve[r]:
            sieve[r * r::2 * r] = bytes(len(range(r * r, limit, 2 * r)))
    return tuple(r for r in range(3, limit, 2) if sieve[r])


_SMALL_PRIMES = _odd_primes_below(1000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)


# ---------------------------------------------------------------------------
# deterministic seed / rng derivation


def derive_seed(master, *labels) -> int:
    """Stable 64-bit child seed for a label path under a master seed.

    Uses sha256 rather than hash() so results do not depend on the
    interpreter's hash randomization.
    """
    text = "groupauth:%s:%s" % (master, "/".join(str(x) for x in labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def derive_rng(master, *labels) -> random.Random:
    """Seeded PRNG dedicated to one component of a simulation."""
    return random.Random(derive_seed(master, *labels))


# ---------------------------------------------------------------------------
# prime field


@dataclass(frozen=True)
class FieldElement:
    """Canonical residue modulo an odd prime: the type of the dealer's
    material (secrets, xia shares, positions, weights, identifiers).

    The constructor reduces, so 0 <= value < modulus always holds.
    """

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "value", self.value % self.modulus)


def poly_eval(coefficients, x: int, modulus: int) -> int:
    """Horner evaluation mod `modulus` of the polynomial whose int
    coefficients are listed constant term first."""
    acc = 0
    for coeff in reversed(coefficients):
        acc = (acc * x + coeff) % modulus
    return acc


def poly_eval_points(coefficients, xs, modulus: int) -> list:
    """`poly_eval` at every int of the list `xs`, in order: Horner over
    all the points at once, one list pass per coefficient below the
    leading one (there must be one)."""
    *lower, top = coefficients
    acc = [top % modulus] * len(xs)
    for coeff in reversed(lower):
        acc = [(a * x + coeff) % modulus for a, x in zip(acc, xs)]
    return acc


def lagrange_coefficient(targets, own: int, others, modulus: int,
                         numerators=None) -> tuple:
    """Lagrange basis values  prod_r (target - x_r) / (own - x_r)  mod a
    prime, one int per target in `targets`.

    `others` lists every evaluation position except `own`. Multiplying a
    share f(own) by a target's weight contributes to the interpolation
    of f(target) from the full point set. Positions are reduced mod
    `modulus` first; duplicates among them (within `others`, or `own`
    appearing in `others`) make the denominator vanish and are rejected,
    naming the first repeat in the order of `others`. Otherwise the
    shared denominator prod_r (own - x_r) is a product of nonzero
    residues mod a prime, so it is invertible. It is formed once, by one
    `math.prod` and one reduction (the callers' positions are party ids,
    so it stays a few hundred bits), and inverted once, so k
    weights for one point set cost one inversion and k numerator
    products, each formed the same way.

    `numerators`, if given, holds one int per target: the product of
    (target - x) over the whole point set, `own` included. It is the
    caller's to get right, since checking it would cost what it saves;
    the positions are still checked as above. Each weight is then that
    product divided by (target - own) and by the denominator, and all
    those divisors are inverted together by Montgomery's trick, so k
    weights cost O(k + m) for m positions and one inversion.
    """
    targets = tuple(targets)
    own %= modulus
    positions = [x % modulus for x in others]
    if len({own, *positions}) <= len(positions):
        seen = {own}  # name the first repeat, in the order of `others`
        for x in positions:
            if x in seen:
                raise DegenerateShareSet("duplicate evaluation position %d"
                                         % x)
            seen.add(x)
    den = prod([own - x for x in positions]) % modulus
    if numerators is not None:
        return _divide_numerators(targets, own, den, tuple(numerators),
                                  modulus)
    inverse = pow(den, -1, modulus)
    return tuple(prod([target - x for x in positions]) * inverse % modulus
                 for target in targets)


def _divide_numerators(targets, own: int, den: int, numerators: tuple,
                       modulus: int) -> tuple:
    """Weights numerators[j] / ((target_j - own) * den), with one
    inversion for all of them (Montgomery's trick)."""
    if len(numerators) != len(targets):
        raise ValueError("need one numerator per target")
    gaps = [(target - own) % modulus for target in targets]
    # a target at `own` has weight 1; its numerator holds the zero factor
    # (own - own), so stand in den / den
    tops = [num if gap else den for num, gap in zip(numerators, gaps)]
    gaps = [gap or 1 for gap in gaps]
    prefix = [1]  # prefix[j] = gaps[0] * ... * gaps[j-1]
    for gap in gaps:
        prefix.append(prefix[-1] * gap % modulus)
    inverse = pow(den * prefix[-1] % modulus, -1, modulus)
    weights = [None] * len(gaps)
    for j in reversed(range(len(gaps))):
        # inverse = 1 / (den * gaps[0] * ... * gaps[j])
        weights[j] = tops[j] * inverse * prefix[j] % modulus
        inverse = inverse * gaps[j] % modulus
    return tuple(weights)


@dataclass(frozen=True)
class ThresholdParams:
    """n participants and threshold t, the base of both schemes' public
    parameters; the participants are the ids 1..n, derived from n.

    The params are the wire boundary and own the wire format: `encode`
    writes a value's payload. `decode` (payload -> int, or None if the
    scheme's `_check` raises GroupAuthError: malformed or out of range)
    and `invitation` (payload -> sorted group ids, their frozenset and
    the session, or None if malformed or naming a non-participant) are
    the lookups of two memos, `_decoded` and `_invitations` (see
    `_Memo`), so each distinct payload is checked once; `encode_own`
    puts an honest party's own contribution in `_decoded` unchecked. By
    default a payload is one residue mod `modulus`, which a subclass
    supplies, in fixed-width lowercase hex; a scheme with a richer
    payload overrides `encode` and `_check` together, and its `_check`
    may return an int subclass that carries the extra fields. Every
    party of one world shares one params object, so a broadcast is
    checked once, not once per recipient. `_numerators` keeps each
    group's Lagrange numerators (`_view_numerators`). The memos live as
    long as the params, which serve one world, and have no bound.
    """

    n: int
    t: int
    _ids: frozenset = field(init=False, repr=False, compare=False)
    _decoded: dict = field(init=False, repr=False, compare=False)
    _invitations: dict = field(init=False, repr=False, compare=False)
    _numerators: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.t <= self.n:
            raise InvalidThreshold("need 2 <= t <= n")
        object.__setattr__(self, "_ids", frozenset(range(1, self.n + 1)))
        object.__setattr__(self, "_decoded", _Memo(self._check))
        object.__setattr__(self, "_invitations",
                           _Memo(self._check_invitation))
        object.__setattr__(self, "_numerators", _Memo(self._view_numerators))
        object.__setattr__(self, "decode", self._decoded.__getitem__)
        object.__setattr__(self, "invitation", self._invitations.__getitem__)

    def all_members(self, party_ids) -> bool:
        """Whether every id in `party_ids` names a participant."""
        return self._ids.issuperset(party_ids)

    def encode(self, value: int) -> str:
        """int in 0..modulus-1 -> wire payload (ValueError otherwise)."""
        return encode_residue_hex(value, self.modulus)

    def encode_own(self, value: int) -> str:
        """`encode`, storing `value` as decoded: only for an honest party's
        own contribution, for which `_check(encode(value)) == value`."""
        payload = self.encode(value)
        self._decoded[payload] = value
        return payload

    def _check(self, payload: str) -> int:
        """The scheme's validation of one wire payload: by default, the
        residue `encode` wrote."""
        return decode_residue_hex(payload, self.modulus)

    def _check_invitation(self, payload: str) -> tuple:
        group_ids, session = decode_invitation(payload)
        if not self.all_members(group_ids):
            raise MalformedTranscript("invitation names a non-participant")
        return group_ids, frozenset(group_ids), session

    def _view_numerators(self, points: tuple) -> tuple:
        """prod_{x in points} (target - x) for each target that a subclass
        names, with their modulus, in `_interpolation`, for a point set
        of sorted ids; DegenerateShareSet if an id repeats."""
        if len(set(points)) != len(points):
            raise DegenerateShareSet("repeated id in %s" % list(points))
        targets, modulus = self._interpolation
        numerators = [1] * len(targets)
        for j, target in enumerate(targets):
            for x in points:
                numerators[j] = numerators[j] * (target - x) % modulus
        return tuple(numerators)


class _Memo(dict):
    """key -> check(key), or None if that raises GroupAuthError, checked
    on first lookup. Whatever value the check returns is kept, False
    included; a key it rejects is not, so a hit runs no Python code and
    junk never grows the memo. Five computations run once per world this
    way: decode, invitations and Lagrange numerators (`ThresholdParams`),
    and xia's masks and verdicts. `check` is a method of the params that
    own the memo, held weakly so that the two form no cycle; the memo
    serves only while they live."""

    def __init__(self, check):
        self.check = weakref.WeakMethod(check)

    def __missing__(self, key):
        try:
            value = self.check()(key)
        except GroupAuthError:
            return None
        self[key] = value
        return value


# ---------------------------------------------------------------------------
# prime generation


def _sieved(n: int) -> bool:
    """Small-prime filter before a full primality test: False when an
    odd prime below 1000 divides n and is not n itself."""
    return gcd(n, _SMALL_PRIMORIAL) == 1 or n in _SMALL_PRIME_SET


def _wheel_sieve(primes) -> tuple:
    """(m, table) for odd primes with product m: byte w of the table is 1
    when none of them divides w or 2w + 1; index it with q mod m."""
    m = prod(primes)
    table = bytearray(b"\x01") * m
    for r in primes:
        # r divides q when q = 0 mod r, and 2q + 1 when q = (r - 1) / 2
        for residue in (0, (r - 1) // 2):
            table[residue::r] = bytes(len(range(residue, m, r)))
    return m, bytes(table)


_WHEEL, _WHEEL_SIEVE = _wheel_sieve((3, 5, 7, 11, 13))  # 15,015 bytes
_WHEEL_2, _WHEEL_SIEVE_2 = _wheel_sieve((17, 19, 23))  # 7,429 bytes
_WHEEL_3, _WHEEL_SIEVE_3 = _wheel_sieve((29, 31, 37))  # 33,263 bytes
_WHEELED_OUT = prod(r for r in _SMALL_PRIMES if r > 37)  # 41..997
# the primes in [1000, 4096): below 2^14, the least q of a 16-bit search,
# so a prime q or 2q + 1 is never a multiple of one
_MEDIUM_PRIMORIAL = prod(r for r in _odd_primes_below(4096) if r > 1000)


def _pair_sieved(q: int) -> bool:
    """`_sieved(q) and _sieved(2q + 1)` for q > 997, cheapest test first:
    three table lookups cover the primes 3..37 and reject about 94% of
    candidates, then one gcd covers the primes 41..997 for both
    numbers."""
    return (_WHEEL_SIEVE[q % _WHEEL] and _WHEEL_SIEVE_2[q % _WHEEL_2]
            and _WHEEL_SIEVE_3[q % _WHEEL_3]
            and gcd(q * (2 * q + 1), _WHEELED_OUT) == 1)


def _fermat(n: int) -> bool:
    """Base-2 Fermat test: true for every odd prime, so it only ever
    rejects composites."""
    return pow(2, n - 1, n) == 1


# Below this bound, Miller-Rabin to the thirteen prime bases 2..41 has no
# strong pseudoprime (J. Sorenson and J. Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017), so it decides primality;
# below 2^64 the seven bases of J. Sinclair (2011) do, as in sympy.isprime.
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin round: whether the odd n > 2 is a strong probable
    prime to `base`. A base that is 0 or 1 mod n tells nothing and
    passes, as in sympy's `mr`."""
    if base % n < 2:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(base, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's method-A parameters for an odd
    n above 10^6 (R. Baillie and S. Wagstaff, "Lucas Pseudoprimes",
    Math. Comp. 35, 1980): D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4."""
    if isqrt(n) ** 2 == n:
        return False  # (D/n) is never -1 for a square
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0:
            return False  # 1 < gcd(d, n) <= |d| < n
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k * 2^s, k odd
    # U_m, V_m and Q^m mod n, from m = 1 up to m = k by doubling steps
    # and, for each one bit of k, a step to m + 1
    u, v, qm = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            # U_{m+1} = (U_m + V_m) / 2 and V_{m+1} = (D U_m + V_m) / 2
            u, v = u + v, d * u + v
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            u, v, qm = u % n, v % n, qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % n
        if v == 0:
            return True
        qm = qm * qm % n
    return False


def is_probable_prime(n: int) -> bool:
    """Whether n is prime: exact below _MR_BOUND, and above it the
    strong Baillie-PSW test, which has no known counterexample.

    Trial division by the primes below 1000 first; then Miller-Rabin to
    seven bases below 2^64, to the bases 2..41 below the bound, and
    above it Miller-Rabin to base 2 and a strong Lucas test.
    """
    if n < 3 or not n & 1:
        return n == 2
    if not _sieved(n):
        return False
    if n < 1000 * 1000:
        return True  # a composite this small has a factor below 1000
    if n < _MR_BOUND:
        bases = _MR_BASES_64 if n < 1 << 64 else _MR_BASES
        return all(_strong_probable_prime(n, a) for a in bases)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


# perfbench/tracer.py counts primality tests by replacing this attribute,
# so both searches call `sympy.isprime` through it; it goes once the
# tracer counts is_probable_prime itself.
sympy = SimpleNamespace(isprime=is_probable_prime)

# Both searches draw candidates from `rng` in turn and return the first
# that `is_probable_prime` accepts (q and p both, for a safe prime). The
# filters in front of it reject only composites, so they set what a
# search costs, never which prime it finds. A Fermat test in front of a
# plain prime's test measured no faster, so only the safe-prime search
# has one.


def random_prime(bits: int, rng: random.Random) -> int:
    """Uniform-ish odd prime with exactly `bits` bits."""
    if bits < 8:
        raise ValueError("prime size below 8 bits is not supported")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _sieved(candidate) and sympy.isprime(candidate):
            return candidate


def random_safe_prime(bits: int, rng: random.Random) -> tuple:
    """Safe prime p = 2q + 1 with exactly `bits` bits; returns (p, q).
    Before `is_probable_prime`, q passes `_pair_sieved`, q * p one gcd
    with the primes in [1000, 4096), and each a Fermat test."""
    if bits < 16:
        raise ValueError("safe prime search below 16 bits is not supported")
    while True:
        # q has bits - 1 >= 15 bits, so it exceeds 997 as _pair_sieved needs
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not _pair_sieved(q):
            continue
        p = 2 * q + 1
        if (gcd(q * p, _MEDIUM_PRIMORIAL) == 1 and _fermat(q) and _fermat(p)
                and sympy.isprime(q) and sympy.isprime(p)):
            return p, q


# ---------------------------------------------------------------------------
# prime-order subgroup of Z_p* for safe prime p


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0: 1, -1, or 0 if gcd(a, n) > 1.

    The standard binary algorithm: strip factors of two, then swap by
    quadratic reciprocity, so the cost grows like a gcd rather than like
    a modular power.
    """
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


@dataclass(frozen=True)
class CyclicGroupSpec:
    """Order-q subgroup of Z_p* for a safe prime p = 2q + 1.

    Precondition, not checked here: p and q are both prime. The order-q
    subgroup of Z_p* is then exactly the set of quadratic residues mod p,
    so membership is the Jacobi symbol test (v/p) == 1, which agrees with
    v^q == 1 mod p for every v in 1..p-1. Without primality the two tests
    differ and membership means nothing.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p != 2 * self.q + 1:
            raise ValueError("group requires p = 2q + 1")
        if self.q < 2:
            raise ValueError("subgroup order too small")


@dataclass(frozen=True)
class GroupElement:
    """Member of the order-q subgroup, built only by this checking
    constructor: the dealer's generators (`group_setup`) and each wire
    value (`XiaParams._check`). Group operations return plain ints.
    """

    value: int
    group: CyclicGroupSpec

    def __post_init__(self):
        p = self.group.p
        if not 1 <= self.value < p:
            raise SubgroupViolation("value %d outside Z_p*" % self.value)
        if _jacobi(self.value, p) != 1:
            raise SubgroupViolation(
                "value %d is not in the order-%d subgroup"
                % (self.value, self.group.q)
            )


_WINDOW = 5  # digit bits of a fixed-base table; 5 measured fastest


def fixed_base_table(g: GroupElement) -> tuple:
    """Row i holds g^(j * 2^(_WINDOW * i)) for 0 <= j < 2^_WINDOW, one row
    per _WINDOW-bit digit of an exponent below q (Brickell, Gordon,
    McCurley and Wilson, "Fast Exponentiation with Precomputation")."""
    p, rows, base = g.group.p, [], g.value
    for _ in range(0, g.group.q.bit_length(), _WINDOW):
        row = [1]
        for _ in range(1 << _WINDOW):
            row.append(row[-1] * base % p)
        base = row.pop()  # the next row's g^1
        rows.append(row)
    return tuple(rows)


def group_exp(g: GroupElement, e: int, table=None) -> int:
    """g raised to an int exponent, reduced mod q (so negative exponents
    become q - |e| residues), as an int in the subgroup: by `pow`, or
    given g's `fixed_base_table` as the product of one table entry per
    digit of e."""
    p, e = g.group.p, e % g.group.q
    if table is None:
        return pow(g.value, e, p)
    acc, digit = 1, (1 << _WINDOW) - 1
    for row in table:
        acc = acc * row[e & digit] % p
        e >>= _WINDOW
    return acc


def group_setup(bit_length: int, generator_count: int,
                rng_seed: int) -> tuple:
    """Deterministically build a safe-prime group plus distinct generators.

    Generators are sampled as squares r^2 mod p, which land in the order-q
    subgroup; 1 and repeats are rejected, so each result generates the
    whole subgroup (q is prime). Returns (CyclicGroupSpec, [GroupElement]).
    """
    if bit_length < 16:
        raise ValueError("bit_length must be at least 16")
    if generator_count < 1:
        raise ValueError("at least one generator is required")
    rng = random.Random(rng_seed)
    p, q = random_safe_prime(bit_length, rng)
    spec = CyclicGroupSpec(p, q)
    generators = []
    seen = set()
    while len(generators) < generator_count:
        r = rng.randrange(2, p - 1)
        g = r * r % p
        if g == 1 or g in seen:
            continue
        seen.add(g)
        generators.append(GroupElement(g, spec))
    return spec, generators


# ---------------------------------------------------------------------------
# hashing of canonical residues


def residue_digest(value: int, modulus: int) -> bytes:
    """sha256 of the fixed-width big-endian encoding of a canonical residue.

    The width is the byte length of the modulus, so equal residues hash
    equal regardless of how they were computed.
    """
    if not 0 <= value < modulus:
        raise ValueError("value is not a canonical residue")
    width = (modulus.bit_length() + 7) // 8
    return hashlib.sha256(value.to_bytes(width, "big")).digest()
