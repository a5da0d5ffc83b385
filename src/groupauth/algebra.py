"""Prime-field and prime-order-subgroup arithmetic.

Everything is plain arbitrary-precision int wrapped in small value types:
FieldElement / Polynomial over Z_p, and GroupElement in the order-q
subgroup of Z_p* for a safe prime p = 2q + 1. Subgroup membership is
checked when an int becomes a GroupElement, not on the results of group
operations, which cannot leave the subgroup; hot loops such as Lagrange
interpolation run on the ints inside the wrappers.

Randomness is simulation-grade: callers pass a seeded random.Random (or a
seed) so that every derived object is reproducible byte for byte. Nothing
here is hardened for production use (no constant-time code, PRNG only).
"""

import hashlib
import random
from dataclasses import dataclass, field
from math import gcd, prod

import sympy

from .errors import (
    DegenerateShareSet,
    GroupAuthError,
    InversionOfZero,
    InvalidThreshold,
    ModulusMismatch,
    NotAMember,
    SubgroupViolation,
)

_SMALL_PRIMES = tuple(sympy.primerange(3, 1000))
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
    """Canonical residue modulo an odd prime.

    The constructor reduces, so negative intermediate values (Lagrange
    numerators and denominators in particular) are always stored as
    0 <= value < modulus.
    """

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _match(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement, got %r" % (other,))
        if other.modulus != self.modulus:
            raise ModulusMismatch(
                "cannot combine residues mod %d and mod %d"
                % (self.modulus, other.modulus)
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._match(other)
        return FieldElement(self.value + other.value, self.modulus)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._match(other)
        return FieldElement(self.value - other.value, self.modulus)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._match(other)
        return FieldElement(self.value * other.value, self.modulus)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value, self.modulus)

    def inverse(self) -> "FieldElement":
        return field_inverse(self)


def field_inverse(a: FieldElement) -> "FieldElement":
    """Multiplicative inverse in Z_p; inverting zero is an error."""
    if a.value == 0:
        raise InversionOfZero("zero has no multiplicative inverse")
    return FieldElement(pow(a.value, -1, a.modulus), a.modulus)


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over one prime field, constant term first.

    The tuple length is degree + 1; high coefficients may be zero, so the
    represented degree is an upper bound.
    """

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a polynomial needs at least a constant term")
        moduli = {c.modulus for c in self.coefficients}
        if len(moduli) != 1:
            raise ModulusMismatch("polynomial coefficients mix moduli")

    @property
    def modulus(self) -> int:
        return self.coefficients[0].modulus

    @classmethod
    def random(cls, degree: int, modulus: int, rng: random.Random,
               constant: FieldElement | None = None) -> "Polynomial":
        """Sample degree + 1 uniform coefficients, optionally pinning a_0."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        coeffs = []
        if constant is not None:
            if constant.modulus != modulus:
                raise ModulusMismatch("constant term has the wrong modulus")
            coeffs.append(constant)
        else:
            coeffs.append(FieldElement(rng.randrange(modulus), modulus))
        for _ in range(degree):
            coeffs.append(FieldElement(rng.randrange(modulus), modulus))
        return cls(tuple(coeffs))


def poly_eval(f: Polynomial, x: FieldElement) -> FieldElement:
    """Horner evaluation of f at x, on ints, wrapped once."""
    if x.modulus != f.modulus:
        raise ModulusMismatch("evaluation point has the wrong modulus")
    modulus, point = f.modulus, x.value
    acc = 0
    for coeff in reversed(f.coefficients):
        acc = (acc * point + coeff.value) % modulus
    return FieldElement(acc, modulus)


def lagrange_coefficient(target, own: FieldElement, others, numerators=None):
    """Lagrange basis value  prod_r (target - x_r) / (own - x_r).

    `others` lists every evaluation position except `own`. Multiplying a
    share f(own) by this value contributes to the interpolation of
    f(target) from the full point set. Duplicate positions (within
    `others`, or `own` appearing in `others`) make the denominator vanish
    and are rejected.

    `target` is one FieldElement, or a sequence of them; a sequence gives
    a tuple with one weight per target (empty for an empty sequence).
    Either way the positions are checked once and the shared denominator
    prod_r (own - x_r) is formed and inverted once, so k weights for one
    point set cost one inversion and k numerator products.

    `numerators`, if given, holds one int per target: the product of
    (target - x) over the whole point set, `own` included. It is the
    caller's to get right, since checking it would cost what it saves;
    the positions are still checked as above. Each weight is then that
    product divided by (target - own) and by the denominator, and all
    those divisors are inverted together by Montgomery's trick, so k
    weights cost O(k + m) for m positions and one inversion.
    """
    single = isinstance(target, FieldElement)
    targets = (target,) if single else tuple(target)
    for tgt in targets:
        own._match(tgt)
    modulus = own.modulus
    den = 1
    positions = set()
    for x in others:
        own._match(x)
        if x.value == own.value or x.value in positions:
            raise DegenerateShareSet(
                "duplicate evaluation position %d" % x.value
            )
        positions.add(x.value)
        den = den * (own.value - x.value) % modulus
    if den == 0:
        raise InversionOfZero("zero has no multiplicative inverse")
    if numerators is not None:
        weights = _divide_numerators(targets, own.value, den,
                                     tuple(numerators), modulus)
    else:
        inverse = pow(den, -1, modulus)
        weights = []
        for tgt in targets:
            num = inverse
            for x in positions:
                num = num * (tgt.value - x) % modulus
            weights.append(FieldElement(num, modulus))
    return weights[0] if single else tuple(weights)


def _divide_numerators(targets, own: int, den: int, numerators: tuple,
                       modulus: int) -> list:
    """Weights numerators[j] / ((target_j - own) * den), with one
    inversion for all of them (Montgomery's trick)."""
    if len(numerators) != len(targets):
        raise ValueError("need one numerator per target")
    gaps, tops = [], []
    for tgt, num in zip(targets, numerators):
        gap = (tgt.value - own) % modulus
        # a target at `own` has weight 1; its numerator holds the zero
        # factor (own - own), so stand in den / den
        gaps.append(gap or 1)
        tops.append(num if gap else den)
    prefix = [1]  # prefix[j] = gaps[0] * ... * gaps[j-1]
    for gap in gaps:
        prefix.append(prefix[-1] * gap % modulus)
    inverse = pow(den * prefix[-1] % modulus, -1, modulus)
    weights = [None] * len(gaps)
    for j in reversed(range(len(gaps))):
        # inverse = 1 / (den * gaps[0] * ... * gaps[j])
        weights[j] = FieldElement(tops[j] * inverse % modulus * prefix[j],
                                  modulus)
        inverse = inverse * gaps[j] % modulus
    return weights


@dataclass(frozen=True)
class ThresholdParams:
    """n participants and threshold t, the base of both schemes' public
    parameters; party i has the share-field identifier of value i.

    `decode` is the wire boundary: a scheme supplies `_check` (payload ->
    int, raising GroupAuthError if malformed or out of range), and
    `decode` runs it once per distinct payload and remembers the
    accepted value. Every party of
    one world shares one params object, so a broadcast value is checked
    once, not once per recipient. The memo lives as long as the params
    object, which is meant to serve one world; rejected payloads are not
    remembered, so injected junk cannot grow it.
    """

    n: int
    t: int
    identifiers: tuple  # FieldElement per participant, value i for party i
    _by_id: dict = field(init=False, repr=False, compare=False)
    _decoded: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if not 2 <= self.t <= self.n:
            raise InvalidThreshold("need 2 <= t <= n")
        values = [x.value for x in self.identifiers]
        if len(values) != self.n or len(set(values)) != self.n or 0 in values:
            raise ValueError("identifiers must be n distinct non-zero residues")
        by_id = {x.value: x for x in self.identifiers}
        object.__setattr__(self, "_by_id", by_id)

    def identifier(self, party_id: int) -> FieldElement:
        """Field element for a 1-based party id."""
        try:
            return self._by_id[party_id]
        except KeyError:
            raise NotAMember("no participant with identifier %d"
                             % party_id) from None

    def all_members(self, party_ids) -> bool:
        """Whether every id in `party_ids` names a participant."""
        return self._by_id.keys() >= set(party_ids)

    def decode(self, payload: str) -> int | None:
        """Wire value -> int, or None if `_check` rejects it; accepted
        values are memoized per distinct payload."""
        try:
            return self._decoded[payload]
        except KeyError:
            pass
        try:
            value = self._check(payload)
        except GroupAuthError:
            return None
        self._decoded[payload] = value
        return value

    def _check(self, payload: str) -> int:
        """The scheme's validation of one wire payload."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# prime generation


def _sieved(n: int) -> bool:
    """Small-prime filter before a full primality test: False when an
    odd prime below 1000 divides n and is not n itself."""
    return gcd(n, _SMALL_PRIMORIAL) == 1 or n in _SMALL_PRIME_SET


_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = prod(_WHEEL_PRIMES)  # 15,015


def _wheel_sieve() -> bytes:
    """Byte w is 1 when neither w nor 2w + 1 is divisible by 3, 5, 7, 11
    or 13; index it with q mod _WHEEL."""
    table = bytearray(b"\x01") * _WHEEL
    for r in _WHEEL_PRIMES:
        # r divides q when q = 0 mod r, and 2q + 1 when q = (r - 1) / 2
        for residue in (0, (r - 1) // 2):
            table[residue::r] = bytes(len(range(residue, _WHEEL, r)))
    return bytes(table)


_WHEEL_SIEVE = _wheel_sieve()


def _pair_sieved(q: int) -> bool:
    """`_sieved(q) and _sieved(2q + 1)` for q > 997, cheapest test first:
    one table lookup rejects about 90% of candidates, then one gcd
    covers both numbers."""
    return (_WHEEL_SIEVE[q % _WHEEL] == 1
            and gcd(q * (2 * q + 1), _SMALL_PRIMORIAL) == 1)


def _fermat(n: int) -> bool:
    """Base-2 Fermat test: true for every odd prime, so it only ever
    rejects composites."""
    return pow(2, n - 1, n) == 1


# Both searches draw candidates from `rng` in turn and return the first
# that `sympy.isprime` accepts (q and p both, for a safe prime). The
# filters in front of it reject only composites, so they set what a
# search costs, never which prime it finds. A Fermat test in front of a
# plain prime's `isprime` measured no faster, so only the safe-prime
# search has one.


def random_prime(bits: int, rng: random.Random) -> int:
    """Uniform-ish odd prime with exactly `bits` bits."""
    if bits < 8:
        raise ValueError("prime size below 8 bits is not supported")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _sieved(candidate) and sympy.isprime(candidate):
            return candidate


def random_safe_prime(bits: int, rng: random.Random) -> tuple:
    """Safe prime p = 2q + 1 with exactly `bits` bits; returns (p, q)."""
    if bits < 16:
        raise ValueError("safe prime search below 16 bits is not supported")
    while True:
        # q has bits - 1 >= 15 bits, so it exceeds 997 as _pair_sieved needs
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not _pair_sieved(q):
            continue
        p = 2 * q + 1
        if (_fermat(q) and _fermat(p)
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

    def identity(self) -> "GroupElement":
        return GroupElement._unchecked(1, self)

    def element(self, value: int) -> "GroupElement":
        """Wrap an int, enforcing subgroup membership."""
        return GroupElement(value, self)


@dataclass(frozen=True)
class GroupElement:
    """Member of the order-q subgroup.

    The public constructor checks membership. Products, inverses, powers
    and the identity are built by `_unchecked`, because the subgroup is
    closed under them; only their operands' types and groups are checked.
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

    @classmethod
    def _unchecked(cls, value: int, group: CyclicGroupSpec) -> "GroupElement":
        """Wrap the result of a group operation without re-testing it."""
        element = object.__new__(cls)
        object.__setattr__(element, "value", value)
        object.__setattr__(element, "group", group)
        return element

    def _match(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise TypeError("expected a GroupElement, got %r" % (other,))
        if other.group != self.group:
            raise ModulusMismatch("cannot combine elements of two groups")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._match(other)
        return GroupElement._unchecked(
            self.value * other.value % self.group.p, self.group
        )

    def inverse(self) -> "GroupElement":
        return GroupElement._unchecked(
            pow(self.value, -1, self.group.p), self.group
        )


def group_exp(g: GroupElement, e) -> GroupElement:
    """g raised to an exponent living in Z_q.

    Accepts an int (reduced mod q, so negative exponents become q - |e|
    residues) or a FieldElement whose modulus must equal q.
    """
    q = g.group.q
    if isinstance(e, FieldElement):
        if e.modulus != q:
            raise ModulusMismatch("exponent must live mod the group order")
        e = e.value
    return GroupElement._unchecked(pow(g.value, e % q, g.group.p), g.group)


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
