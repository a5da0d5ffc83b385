"""Token-sum group authentication over masked threshold shares.

The issuer splits a secret s across k masked polynomials: it publishes
distinct evaluation positions w_1..w_k and weights d_1..d_k chosen so that
sum_j d_j * f_j(w_j) = s, and hands participant x_i the share vector
(f_1(x_i), ..., f_k(x_i)). To authenticate as part of a group, each member
releases one scalar that folds its shares toward the w_j positions with
Lagrange weights; the sum of all released scalars equals s exactly when
every listed member contributed. Verification compares H(sum) with the
published H(s), so the scheme is one-time: a completed run reveals s.

Arithmetic is mod a public prime chosen at issuance time; participant
identifiers are the field elements 1..n. The dealer's material is held
in FieldElements, while tokens, the aggregate and the check run on plain
ints. This module holds only that math and the wire decode: the protocol
around it (the invitation, who must have spoken, the quorum rule) is
`parties.Party`'s.
"""

import random
from dataclasses import dataclass, field
from math import ceil

from .algebra import (
    FieldElement,
    Polynomial,
    ThresholdParams,
    lagrange_coefficient,
    poly_eval,
    random_prime,
    residue_digest,
)
from .channel import decode_residue_hex
from .errors import GroupAuthError, InvalidThreshold

SCHEME_TAG = "harn2013"


@dataclass(frozen=True)
class HarnParams(ThresholdParams):
    """Public issuance parameters."""

    k: int
    prime: int

    def __post_init__(self):
        super().__post_init__()
        if self.k * self.t <= self.n - 1:
            raise InvalidThreshold("need k*t > n-1 to stop share pooling")

    def decode(self, payload: str) -> int | None:
        """Wire token -> residue mod the prime, or None if malformed."""
        try:
            return decode_residue_hex(payload, self.prime)
        except GroupAuthError:
            return None


# point sets whose token numerators one bundle remembers; see
# HarnPublicBundle
NUMERATOR_MEMO_VIEWS = 4


@dataclass(frozen=True)
class HarnPublicBundle:
    """Everything the issuer publishes: positions, weights, H(s).

    `_numerators` is a memo every token of one point set shares: for the
    sorted member ids of a group it keeps c_j = prod_r (w_j - x_r) over
    the whole group, one int per position w_j, and every party of a
    world holds the same bundle. `harn_compute_token` stores an entry
    only after `lagrange_coefficient` has accepted the point set, so a
    degenerate group leaves none.

    Its memory is bounded whatever arrives on the wire: it keeps the
    NUMERATOR_MEMO_VIEWS most recently stored point sets and drops the
    oldest, so it never holds more than that many keys of at most n ids
    and values of k ints. An adversary who injects invitations to many
    distinct groups only evicts entries; each such group then costs its
    members O(k*m) once more, which is what every token cost without the
    memo.
    """

    params: HarnParams
    w: tuple  # k distinct FieldElements, disjoint from identifiers
    d: tuple  # k FieldElements with sum_j d_j f_j(w_j) = s
    secret_hash: bytes
    _numerators: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        k = self.params.k
        if len(self.w) != k or len(self.d) != k:
            raise ValueError("need exactly k positions and k weights")
        wv = {x.value for x in self.w}
        if len(wv) != k:
            raise ValueError("positions w must be distinct")
        if wv & {x.value for x in self.params.identifiers}:
            raise ValueError("positions w must avoid participant identifiers")


@dataclass(frozen=True)
class HarnCredential:
    """Secret share vector (f_1(x), ..., f_k(x)) held by one participant."""

    owner: FieldElement
    tokens: tuple


def harn_gm_init(n: int, t: int, prime_bits: int = 64,
                 rng_seed: int = 0) -> tuple:
    """Issue credentials for n participants with threshold t.

    Uses k = ceil(n/t) masked polynomials of degree t-1, which satisfies
    the k*t > n-1 safety condition. Returns (bundle, credentials, s);
    the secret s is returned for test oracles and never leaves the issuer
    in a real deployment.
    """
    if n < 2 or not 2 <= t <= n:
        raise InvalidThreshold("need n >= 2 and 2 <= t <= n")
    rng = random.Random(rng_seed)
    p = random_prime(prime_bits, rng)
    k = ceil(n / t)
    s = FieldElement(rng.randrange(p), p)
    identifiers = tuple(FieldElement(i, p) for i in range(1, n + 1))
    params = HarnParams(n=n, t=t, k=k, prime=p, identifiers=identifiers)

    polys = [Polynomial.random(t - 1, p, rng) for _ in range(k)]

    taken = {x.value for x in identifiers}
    w = []
    while len(w) < k:
        cand = rng.randrange(p)
        if cand in taken:
            continue
        taken.add(cand)
        w.append(FieldElement(cand, p))

    # free weights for the first k-1 polynomials (the zip below stops with
    # d), then solve the last one; resample f_k until f_k(w_k) is invertible
    d = [FieldElement(rng.randrange(p), p) for _ in range(k - 1)]
    partial = sum(dj.value * poly_eval(f, wj).value
                  for dj, f, wj in zip(d, polys, w)) % p
    last = poly_eval(polys[-1], w[-1]).value
    while last == 0:
        polys[-1] = Polynomial.random(t - 1, p, rng)
        last = poly_eval(polys[-1], w[-1]).value
    d.append(FieldElement((s.value - partial) * pow(last, -1, p), p))

    bundle = HarnPublicBundle(
        params=params,
        w=tuple(w),
        d=tuple(d),
        secret_hash=residue_digest(s.value, p),
    )
    credentials = [
        HarnCredential(owner=x, tokens=tuple(poly_eval(f, x) for f in polys))
        for x in identifiers
    ]
    return bundle, credentials, s


def harn_compute_token(credential: HarnCredential, bundle: HarnPublicBundle,
                       group) -> int:
    """Release this member's scalar for one joint authentication.

    group lists the participant ids of everyone expected to take part,
    the owner included (`parties.Party` checks that, and the quorum,
    before any token). The scalar is
        sum_j d_j * f_j(x_own) * lagrange(w_j; x_own, others)
    so that summing over all m members telescopes to s when m >= t. All k
    weights come from one `lagrange_coefficient` call, given the point
    set's numerators from the bundle's memo (computed in O(k*m) by the
    first member of the group to get there), so a token costs O(k + m)
    and one inversion; the sum runs on ints.
    """
    params = bundle.params
    own = credential.owner
    others = [params.identifier(i) for i in group if i != own.value]
    points = tuple(sorted([own.value, *(x.value for x in others)]))
    numerators = bundle._numerators.get(points)
    fresh = numerators is None
    if fresh:
        numerators = _view_numerators(bundle.w, points, params.prime)
    weights = lagrange_coefficient(bundle.w, own, others, numerators)
    if fresh:
        _remember(bundle._numerators, points, numerators)
    total = sum(
        dj.value * fj.value * lam.value
        for dj, fj, lam in zip(bundle.d, credential.tokens, weights)
    )
    return total % params.prime


def _view_numerators(w: tuple, points: tuple, prime: int) -> tuple:
    """c_j = prod_{x in points} (w_j - x) mod prime, one per position."""
    out = []
    for wj in w:
        c = 1
        for x in points:
            c = c * (wj.value - x) % prime
        out.append(c)
    return tuple(out)


def _remember(memo: dict, points: tuple, numerators: tuple) -> None:
    """Store a point set's numerators, dropping the oldest entry past
    NUMERATOR_MEMO_VIEWS."""
    if len(memo) >= NUMERATOR_MEMO_VIEWS:
        del memo[next(iter(memo))]
    memo[points] = numerators


def harn_aggregate(values, prime: int) -> int:
    """Sum of released token values (plain ints) mod the prime."""
    return sum(values) % prime


def harn_verify(tokens, bundle: HarnPublicBundle) -> bool:
    """Whether the sum of the released scalars `tokens` (ints) hashes to
    the published H(s).

    The sum of an accepted run is s itself, so a completed honest run
    hands the one-time secret to every observer, which is what the
    impersonation attack exploits.
    """
    p = bundle.params.prime
    return residue_digest(harn_aggregate(tokens, p), p) == bundle.secret_hash
