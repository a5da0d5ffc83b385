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
identifiers are the field elements 1..n. The secret, identifiers,
positions and weights are FieldElements; the polynomials, shares,
tokens, the aggregate and the check are plain ints. Everything the
issuer publishes is one `HarnParams`, as `XiaParams` is for the
masked-product scheme. This module holds only that math: the wire
format is the params' default (`ThresholdParams`), and the protocol
around it (the invitation, who must have spoken, the quorum rule) is
`parties.Party`'s.
"""

import random
from dataclasses import dataclass, field
from math import ceil
from operator import mul

from .algebra import (
    FieldElement,
    ThresholdParams,
    lagrange_coefficient,
    poly_eval,
    poly_eval_points,
    random_prime,
    residue_digest,
)
from .errors import DegenerateShareSet, InvalidThreshold, NotAMember

SCHEME_TAG = "harn2013"


@dataclass(frozen=True)
class HarnParams(ThresholdParams):
    """Everything the issuer publishes: the prime `modulus`, positions w,
    weights d and H(s). A wire value is a residue mod the prime, in the
    default format of `ThresholdParams`. Tokens interpolate toward the
    positions w, so a group's numerators are c_j = prod_r (w_j - x_r).
    """

    k: int
    modulus: int
    w: tuple  # k distinct FieldElements, disjoint from the ids 1..n
    d: tuple  # k FieldElements with sum_j d_j f_j(w_j) = s
    secret_hash: bytes
    _interpolation: tuple = field(init=False, repr=False, compare=False)
    _d: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.k * self.t <= self.n - 1:
            raise InvalidThreshold("need k*t > n-1 to stop share pooling")
        if len(self.w) != self.k or len(self.d) != self.k:
            raise ValueError("need exactly k positions and k weights")
        positions = {x.value for x in self.w}
        if len(positions) != self.k:
            raise ValueError("positions w must be distinct")
        if not self._ids.isdisjoint(positions):
            raise ValueError("positions w must avoid participant identifiers")
        # w and d as ints, read by every token
        object.__setattr__(self, "_interpolation",
                           (tuple(x.value for x in self.w), self.modulus))
        object.__setattr__(self, "_d", tuple(dj.value for dj in self.d))


@dataclass(frozen=True)
class HarnCredential:
    """Secret share vector (f_1(x), ..., f_k(x)), as ints mod the prime,
    held by the participant with identifier x, `owner`."""

    owner: FieldElement
    tokens: tuple


def harn_gm_init(n: int, t: int, prime_bits: int = 64,
                 rng_seed: int = 0) -> tuple:
    """Issue credentials for n participants with threshold t.

    Uses k = ceil(n/t) masked polynomials of degree t-1, which satisfies
    the k*t > n-1 safety condition. Returns (params, credentials, s);
    the secret s is returned for test oracles and never leaves the issuer
    in a real deployment.
    """
    if n < 2 or not 2 <= t <= n:
        raise InvalidThreshold("need n >= 2 and 2 <= t <= n")
    rng = random.Random(rng_seed)
    p = random_prime(prime_bits, rng)
    k = ceil(n / t)
    s = FieldElement(rng.randrange(p), p)
    ids = range(1, n + 1)

    def draw_polynomial():  # t int coefficients, constant term first
        return [rng.randrange(p) for _ in range(t)]

    polys = [draw_polynomial() for _ in range(k)]

    taken = set(ids)
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
    partial = sum(dj.value * poly_eval(f, wj.value, p)
                  for dj, f, wj in zip(d, polys, w)) % p
    last = poly_eval(polys[-1], w[-1].value, p)
    while last == 0:
        polys[-1] = draw_polynomial()
        last = poly_eval(polys[-1], w[-1].value, p)
    d.append(FieldElement((s.value - partial) * pow(last, -1, p), p))

    params = HarnParams(
        n=n, t=t, k=k, modulus=p, w=tuple(w), d=tuple(d),
        secret_hash=residue_digest(s.value, p),
    )
    # one column of shares per polynomial, read back one row per member
    columns = [poly_eval_points(f, ids, p) for f in polys]
    credentials = [
        HarnCredential(owner=FieldElement(i, p), tokens=row)
        for i, row in zip(ids, zip(*columns))
    ]
    return params, credentials, s


def harn_compute_token(credential: HarnCredential, params: HarnParams,
                       group) -> int:
    """Release this member's scalar for one joint authentication.

    group lists the participant ids of everyone expected to take part,
    the owner included: NotAMember if it leaves out the owner or names a
    non-participant (`parties.Party` checks both, and the quorum, before
    any token). The scalar is
        sum_j d_j * f_j(x_own) * lagrange(w_j; x_own, others)
    so that summing over all m members telescopes to s when m >= t. All k
    weights come from one `lagrange_coefficient` call, given the numerators
    that the params' memo keeps per sorted group, so a token costs O(k + m)
    and one inversion, and its sum runs in C. A group that repeats any
    id, the owner's included, raises DegenerateShareSet: the memo keeps
    no numerators for it.
    """
    own = credential.owner.value
    if own not in group or not params.all_members(group):
        raise NotAMember("group %s omits %d or names a non-participant"
                         % (list(group), own))
    others = [i for i in group if i != own]
    targets, p = params._interpolation
    numerators = params._numerators[tuple(sorted(group))]
    if numerators is None:
        raise DegenerateShareSet("group %s repeats an id" % list(group))
    weights = lagrange_coefficient(targets, own, others, p, numerators)
    return sum(map(mul, map(mul, params._d, credential.tokens), weights)) % p


def harn_aggregate(values, prime: int) -> int:
    """Sum of released token values (plain ints) mod the prime."""
    return sum(values) % prime


def harn_verify(tokens, params: HarnParams) -> bool:
    """Whether the sum of the released scalars `tokens` (ints) hashes to
    the published H(s).

    The sum of an accepted run is s itself, so a completed honest run
    hands the one-time secret to every observer, which is what the
    impersonation attack exploits.
    """
    p = params.modulus
    return residue_digest(harn_aggregate(tokens, p), p) == params.secret_hash
