"""Masked-product group authentication with one-time session indices.

Setup publishes a safe-prime group, one generator g_sigma per one-time
session index sigma, and the digest of (g_sigma)^s for a secret s shared
via a degree t-1 polynomial f with f(0) = s; participant x_i holds the
share s_i = f(x_i).

In session sigma each member broadcasts a commitment (g_sigma)^{u_i} for
a fresh nonce u_i, builds the mask
    gamma_i = prod_{x_j < x_i} C_j * prod_{x_j > x_i} C_j^{-1}
over the peers' commitments (ordered by identifier value), and releases
    c_i = (g_sigma)^{s_i * L_i} * gamma_i^{u_i}
where L_i interpolates toward 0. The masks telescope away in the product
of all m tokens, which equals (g_sigma)^s for any honest quorum, so the
verifier only compares one digest. Individual tokens are never checked,
which the channel attacks exploit.

This module holds the scheme's math on plain ints: setup, the wire
decode, the commitment, the mask, the token and the digest check. The
protocol around them (rounds, who must have spoken, the quorum rule)
is `parties.Party`'s; the only per-session state kept here is each
credential's ledger of used session indices.
"""

import random
from dataclasses import dataclass, field

from .algebra import (
    CyclicGroupSpec,
    FieldElement,
    GroupElement,
    Polynomial,
    ThresholdParams,
    derive_seed,
    group_exp,
    group_setup,
    lagrange_coefficient,
    poly_eval,
    residue_digest,
)
from .channel import decode_residue_hex
from .errors import GroupAuthError, InvalidThreshold, SessionExhausted

SCHEME_TAG = "xia2019"


@dataclass(frozen=True)
class XiaParams(ThresholdParams):
    """Public setup: group, per-session generators, share positions,
    and one verification digest per session index.

    `decode` is the wire boundary: it validates each distinct payload
    once and remembers the accepted value. Every party of one world
    shares one params object, so a broadcast value is checked once, not
    once per recipient. The memo lives as long as the params object,
    which is meant to serve one world; rejected payloads are not
    remembered, so injected junk cannot grow it.
    """

    ell: int
    group: CyclicGroupSpec
    generators: tuple  # ell GroupElements, one per session index
    session_hashes: tuple  # ell digests of (g_sigma)^s
    _decoded: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.ell < 1:
            raise ValueError("need at least one session index")
        if len(self.generators) != self.ell:
            raise ValueError("need one generator per session index")
        if len(self.session_hashes) != self.ell:
            raise ValueError("need one digest per session index")
        if len({g.value for g in self.generators}) != self.ell:
            raise ValueError("generators must be distinct")

    def generator_for(self, session: int) -> GroupElement:
        if not 1 <= session <= self.ell:
            raise SessionExhausted("session index %d out of range" % session)
        return self.generators[session - 1]

    def hash_for(self, session: int) -> bytes:
        self.generator_for(session)  # range check
        return self.session_hashes[session - 1]

    def decode(self, payload: str) -> int | None:
        """Wire value -> subgroup element as an int, or None if
        malformed; accepted values are memoized per distinct payload."""
        try:
            return self._decoded[payload]
        except KeyError:
            pass
        try:
            value = self.group.element(
                decode_residue_hex(payload, self.group.p)
            ).value
        except GroupAuthError:
            return None
        self._decoded[payload] = value
        return value


@dataclass
class XiaCredential:
    """One participant's share of f plus its one-time session ledger."""

    owner: FieldElement
    share: FieldElement
    used_sessions: set = field(default_factory=set)

    def start_session(self, session: int, params: XiaParams) -> None:
        """Claim session index `session`; every sigma is single-use per
        credential, and an index outside 1..ell is never available."""
        params.generator_for(session)  # range check
        if session in self.used_sessions:
            raise SessionExhausted(
                "credential %d already used session %d"
                % (self.owner.value, session)
            )
        self.used_sessions.add(session)


def xia_gm_init(n: int, t: int, ell: int, prime_bits: int = 64,
                rng_seed: int = 0) -> tuple:
    """Run setup for n participants, threshold t, ell session indices.

    Returns (params, credentials, s); s is exposed for test oracles only.
    Identifiers live mod q, the share-arithmetic modulus.
    """
    if n < 2 or not 2 <= t <= n:
        raise InvalidThreshold("need n >= 2 and 2 <= t <= n")
    if ell < 1:
        raise ValueError("need at least one session index")
    spec, generators = group_setup(
        prime_bits, ell, derive_seed(rng_seed, "group")
    )
    rng = random.Random(derive_seed(rng_seed, "shares"))
    q = spec.q
    s = FieldElement(rng.randrange(q), q)
    f = Polynomial.random(t - 1, q, rng, constant=s)
    identifiers = tuple(FieldElement(i, q) for i in range(1, n + 1))
    session_hashes = tuple(
        residue_digest(group_exp(g, s).value, spec.p) for g in generators
    )
    params = XiaParams(
        n=n, t=t, ell=ell, group=spec, generators=tuple(generators),
        identifiers=identifiers, session_hashes=session_hashes,
    )
    credentials = [
        XiaCredential(owner=x, share=poly_eval(f, x)) for x in identifiers
    ]
    return params, credentials, s


def xia_commit(params: XiaParams, session: int,
               rng: random.Random) -> tuple:
    """Draw a fresh nonce u in Z_q; returns (u, (g_sigma)^u)."""
    nonce = rng.randrange(params.group.q)
    return nonce, group_exp(params.generator_for(session), nonce).value


def gamma_mask(owner: int, commitments: dict, p: int) -> int:
    """Fold the peers' commitments into the mask of member `owner`.

    `commitments` maps member ids to commitments mod p; the owner's own
    entry, if present, is skipped. Peers below the owner (by identifier
    value) contribute C_j, peers above contribute C_j^{-1}; the exponents
    cancel pairwise across the group, which is what makes the token
    product clean. Each side is multiplied out first, so the mask costs
    one inversion.
    """
    lower = upper = 1
    for peer, commitment in commitments.items():
        if peer < owner:
            lower = lower * commitment % p
        elif peer > owner:
            upper = upper * commitment % p
    return lower * pow(upper, -1, p) % p


def xia_compute_token(credential: XiaCredential, params: XiaParams,
                      session: int, commitments: dict, nonce: int) -> int:
    """This member's masked token (g_sigma)^{s_i * L_i} * gamma_i^{u_i}.

    `commitments` maps every member of the session's group, this one
    included, to its commitment; the group is its key set. `nonce` is
    the u_i behind this member's own commitment.
    """
    p = params.group.p
    own = credential.owner
    others = [params.identifier(peer) for peer in commitments
              if peer != own.value]
    weight = lagrange_coefficient(FieldElement(0, params.group.q), own,
                                  others)
    base = group_exp(params.generator_for(session),
                     credential.share.value * weight.value)
    mask = gamma_mask(own.value, commitments, p)
    return base.value * pow(mask, nonce, p) % p


def xia_aggregate(values, p: int) -> int:
    """Product of released token values (plain ints) mod p."""
    product = 1
    for value in values:
        product = product * value % p
    return product


def xia_verify(tokens, session: int, params: XiaParams) -> bool:
    """Whether the product of `tokens` (ints) hits the digest of
    (g_sigma)^s for session index `session`.

    Only the aggregate is checked: any token multiset whose product hits
    (g_sigma)^s is accepted, regardless of who actually produced it.
    """
    p = params.group.p
    digest = residue_digest(xia_aggregate(tokens, p), p)
    return digest == params.hash_for(session)
