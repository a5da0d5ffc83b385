"""Token-sum group authentication over masked threshold shares.

The issuer splits a secret s across k masked polynomials: it publishes
distinct evaluation positions w_1..w_k and weights d_1..d_k chosen so that
sum_j d_j * f_j(w_j) = s, and hands participant x_i the share vector
(f_1(x_i), ..., f_k(x_i)). To authenticate as part of a group, each member
releases one scalar that folds its shares toward the w_j positions with
Lagrange weights; the sum of all released scalars equals s exactly when
every listed member contributed. Verification compares H(sum) with the
published H(s), so the scheme is one-time: a completed run reveals s.

Everything operates on FieldElement values mod a public prime chosen at
issuance time; participant identifiers are the field elements 1..n.
"""

import random
from dataclasses import dataclass, field
from math import ceil

from .algebra import (
    FieldElement,
    Polynomial,
    lagrange_coefficient,
    poly_eval,
    random_prime,
    residue_digest,
)
from .errors import (
    InsufficientQuorum,
    InvalidThreshold,
    MalformedTranscript,
    ModulusMismatch,
    NotAMember,
)

SCHEME_TAG = "harn2013"


@dataclass(frozen=True)
class HarnParams:
    """Public issuance parameters."""

    n: int
    t: int
    k: int
    prime: int
    identifiers: tuple  # FieldElement per participant, value i for party i
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.t <= self.n:
            raise InvalidThreshold("need 2 <= t <= n")
        if self.k * self.t <= self.n - 1:
            raise InvalidThreshold("need k*t > n-1 to stop share pooling")
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
            raise NotAMember(
                "no participant with identifier %d" % party_id
            ) from None

    def all_members(self, party_ids) -> bool:
        """Whether every id in `party_ids` names a participant."""
        return self._by_id.keys() >= set(party_ids)


@dataclass(frozen=True)
class HarnPublicBundle:
    """Everything the issuer publishes: positions, weights, H(s)."""

    params: HarnParams
    w: tuple  # k distinct FieldElements, disjoint from identifiers
    d: tuple  # k FieldElements with sum_j d_j f_j(w_j) = s
    secret_hash: bytes
    hash_id: str

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


@dataclass(frozen=True)
class HarnToken:
    """One participant's released authentication scalar."""

    sender: FieldElement
    value: FieldElement


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
        hash_id="sha256",
    )
    credentials = [
        HarnCredential(owner=x, tokens=tuple(poly_eval(f, x) for f in polys))
        for x in identifiers
    ]
    return bundle, credentials, s


def _normalize_group(group, params: HarnParams) -> list:
    """Accept ints or FieldElements; return FieldElements mod the prime.
    A FieldElement of another field raises ModulusMismatch here, before
    any entry is compared with the owner's identifier."""
    out = []
    for g in group:
        if isinstance(g, FieldElement):
            if g.modulus != params.prime:
                raise ModulusMismatch(
                    "group member %d lives mod %d, not mod the prime"
                    % (g.value, g.modulus)
                )
            out.append(g)
        else:
            out.append(FieldElement(int(g), params.prime))
    return out


def harn_compute_token(credential: HarnCredential, bundle: HarnPublicBundle,
                       group) -> HarnToken:
    """Release this member's scalar for one joint authentication.

    group lists the identifiers of everyone expected to participate
    (including the owner). The scalar is
        sum_j d_j * f_j(x_own) * lagrange(w_j; x_own, others)
    so that summing over all m members telescopes to s when m >= t. All k
    weights come from one `lagrange_coefficient` call, which shares the
    denominator prod_r (x_own - x_r) and its inversion; the sum runs on
    ints and is wrapped once.
    """
    params = bundle.params
    members = _normalize_group(group, params)
    own = credential.owner
    if own.value not in {x.value for x in members}:
        raise NotAMember("credential owner %d not in group" % own.value)
    if len(members) < params.t:
        raise InsufficientQuorum(
            "group of %d below threshold %d" % (len(members), params.t)
        )
    others = [x for x in members if x.value != own.value]
    weights = lagrange_coefficient(bundle.w, own, others)
    total = sum(
        dj.value * fj.value * lam.value
        for dj, fj, lam in zip(bundle.d, credential.tokens, weights)
    )
    return HarnToken(sender=own, value=FieldElement(total, params.prime))


def harn_aggregate(values, prime: int) -> int:
    """Sum of released token values (plain ints) mod the prime."""
    return sum(values) % prime


def harn_verify(tokens, bundle: HarnPublicBundle) -> tuple:
    """Aggregate released scalars and compare against the published H(s).

    Returns (accepted, recovered) where recovered is the summed value;
    a completed honest run therefore hands the one-time secret s to every
    observer, which is what the impersonation attack exploits. Duplicate
    senders are rejected as malformed; an empty token list simply fails
    the hash comparison.
    """
    p = bundle.params.prime
    tokens = list(tokens)
    seen = set()
    for token in tokens:
        if token.sender.value in seen:
            raise MalformedTranscript(
                "two tokens claim sender %d" % token.sender.value
            )
        seen.add(token.sender.value)
    total = harn_aggregate([token.value.value for token in tokens], p)
    accepted = residue_digest(total, p, bundle.hash_id) == bundle.secret_hash
    return accepted, FieldElement(total, p)
