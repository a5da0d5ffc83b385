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
protocol around them (rounds, who must have spoken, the quorum rule,
each index opening at most once per party) is `parties.Party`'s; a
credential is immutable dealer output.
"""

import random
from dataclasses import dataclass, field

from .algebra import (
    CyclicGroupSpec,
    FieldElement,
    GroupElement,
    ThresholdParams,
    _Memo,
    derive_seed,
    fixed_base_table,
    group_exp,
    group_setup,
    lagrange_coefficient,
    poly_eval_points,
    residue_digest,
)
from .errors import InvalidThreshold, NotAMember, SessionExhausted

SCHEME_TAG = "xia2019"

# Powers of one generator served by `pow` before its table is built. At
# 64 to 256 bits a table costs about 7 pows to build and a power through
# it about a quarter of one, so it pays back only over about 9 more
# powers. A session serves two powers per member and the adversary's
# draws: 2 to 14 in the demos' small groups, which pow alone serves best.
_POWS_BEFORE_TABLE = 16


@dataclass(frozen=True)
class XiaParams(ThresholdParams):
    """Public setup: group, per-session generators, share positions,
    and one verification digest per session index. A wire value must be
    a member of the order-q subgroup (see `ThresholdParams.decode`).
    `_served` counts each session index's powers by `pow`; once one has
    served `_POWS_BEFORE_TABLE`, `_powers` keeps its `fixed_base_table`.
    `_masks` (the products each mask is read from) and `_verdicts`
    (`xia_verify`'s aggregate checks) are memos (see `_Memo`). A party
    computes one token and checks one multiset per index it opens, so a
    world stores at most n * ell entries in each, whatever is injected."""

    ell: int
    group: CyclicGroupSpec
    generators: tuple  # ell GroupElements, one per session index
    session_hashes: tuple  # ell digests of (g_sigma)^s
    _served: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _powers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _masks: dict = field(init=False, repr=False, compare=False)
    _verdicts: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_masks", _Memo(self._mask_products))
        object.__setattr__(self, "_verdicts", _Memo(self._verdict))

    def generator_for(self, session: int) -> GroupElement:
        if not 1 <= session <= self.ell:
            raise SessionExhausted("session index %d out of range" % session)
        return self.generators[session - 1]

    def power(self, session: int, e: int) -> int:
        """(g_sigma)^e for session index sigma, as an int: by `pow` for
        the session's first `_POWS_BEFORE_TABLE` powers, then through its
        table."""
        g = self.generator_for(session)
        table = self._powers.get(session)
        if table is None:
            served = self._served[session] = self._served.get(session, 0) + 1
            if served <= _POWS_BEFORE_TABLE:
                return group_exp(g, e)
            table = self._powers[session] = fixed_base_table(g)
        return group_exp(g, e, table)

    def hash_for(self, session: int) -> bytes:
        self.generator_for(session)  # range check
        return self.session_hashes[session - 1]

    @property
    def modulus(self) -> int:
        """The prime p of every residue on the wire."""
        return self.group.p

    @property
    def _interpolation(self) -> tuple:
        return (0,), self.group.q

    def _check(self, payload: str) -> int:
        """Wire value -> subgroup element as an int."""
        return GroupElement(super()._check(payload), self.group).value

    def _mask_products(self, commitments: tuple) -> tuple:
        """For C_1..C_m in ascending id order, mod p: the prefix products
        P_k = C_1 * ... * C_(k-1) and 1 / T for their full product T. The
        k-th member's mask is P_k^2 * C_k / T."""
        p = self.group.p
        prefix = [1]
        for commitment in commitments:
            prefix.append(prefix[-1] * commitment % p)
        return prefix, pow(prefix.pop(), -1, p)

    def _verdict(self, key: tuple) -> bool:
        """Whether the tokens of key = (session, tokens) multiply to a
        product whose digest is the session's."""
        session, tokens = key
        p = self.group.p
        return (residue_digest(xia_aggregate(tokens, p), p)
                == self.hash_for(session))


@dataclass(frozen=True)
class XiaCredential:
    """One participant's share of f, held by the participant `owner`."""

    owner: FieldElement
    share: FieldElement


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
    f = [s.value] + [rng.randrange(q) for _ in range(t - 1)]
    session_hashes = tuple(
        residue_digest(group_exp(g, s.value), spec.p) for g in generators
    )
    params = XiaParams(
        n=n, t=t, ell=ell, group=spec, generators=tuple(generators),
        session_hashes=session_hashes,
    )
    shares = poly_eval_points(f, range(1, n + 1), q)
    credentials = [
        XiaCredential(owner=FieldElement(i, q), share=FieldElement(share, q))
        for i, share in enumerate(shares, 1)
    ]
    return params, credentials, s


def xia_commit(params: XiaParams, session: int,
               rng: random.Random) -> tuple:
    """Draw a fresh nonce u in Z_q; returns (u, (g_sigma)^u)."""
    nonce = rng.randrange(params.group.q)
    return nonce, params.power(session, nonce)


def xia_compute_token(credential: XiaCredential, params: XiaParams,
                      session: int, commitments: dict, nonce: int) -> int:
    """This member's masked token (g_sigma)^{s_i * L_i} * gamma_i^{u_i}.

    `commitments` maps every member of the session's group, this one
    included, to its commitment; the group is its key set. `nonce` is
    the u_i behind this member's own commitment.
    """
    p, own = params.group.p, credential.owner.value
    if own not in commitments or not params.all_members(commitments):
        raise NotAMember("commitments omit %d or name a non-participant"
                         % own)
    ids = sorted(commitments)
    others = [peer for peer in ids if peer != own]
    weight, = lagrange_coefficient((0,), own, others, params.group.q,
                                   params._numerators[tuple(ids)])
    base = params.power(session, credential.share.value * weight)
    prefix, inverse = params._masks[tuple(commitments[i] for i in ids)]
    below = prefix[ids.index(own)]
    return base * pow(below * below * commitments[own] * inverse % p,
                      nonce, p) % p


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
    (g_sigma)^s is accepted, regardless of who actually produced it. The
    verdict depends on the multiset alone: `params._verdicts` keeps it by
    (session, the tokens sorted into a tuple), so a world's members
    compute their product once. `tokens` is read once. An index outside
    1..ell raises SessionExhausted, checked here because the memo would
    turn that error into None.
    """
    params.generator_for(session)  # range check
    return params._verdicts[session, tuple(sorted(tokens))]
