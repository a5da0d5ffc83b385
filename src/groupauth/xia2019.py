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
"""

import random
from dataclasses import dataclass, field

from .algebra import (
    CyclicGroupSpec,
    FieldElement,
    GroupElement,
    Polynomial,
    derive_seed,
    group_exp,
    group_product,
    group_setup,
    lagrange_coefficient,
    poly_eval,
    residue_digest,
)
from .channel import (
    BeliefState,
    Envelope,
    REASON_HASH_MISMATCH,
    ROUND_COMMITMENT,
    decode_residue_hex,
    encode_residue_hex,
)
from .errors import (
    GroupAuthError,
    IncompleteRound,
    InsufficientQuorum,
    InvalidThreshold,
    MalformedTranscript,
    NotAMember,
    ProtocolOrderViolation,
    SessionExhausted,
)

SCHEME_TAG = "xia2019"

AWAIT_COMMITMENTS = "await-commitments"
AWAIT_TOKENS = "await-tokens"
DECIDED = "decided"


@dataclass(frozen=True)
class XiaParams:
    """Public setup: group, per-session generators, share positions,
    and one verification digest per session index.

    `decode` is the wire boundary: it validates each distinct payload
    once and remembers the accepted element. Every party of one world
    shares one params object, so a broadcast value is checked once, not
    once per recipient. The memo lives as long as the params object,
    which is meant to serve one world; rejected payloads are not
    remembered, so injected junk cannot grow it.
    """

    n: int
    t: int
    ell: int
    group: CyclicGroupSpec
    generators: tuple  # ell GroupElements, one per session index
    identifiers: tuple  # FieldElements mod q, value i for party i
    session_hashes: tuple  # ell digests of (g_sigma)^s
    hash_id: str
    _by_id: dict = field(init=False, repr=False, compare=False)
    _decoded: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if not 2 <= self.t <= self.n:
            raise InvalidThreshold("need 2 <= t <= n")
        if self.ell < 1:
            raise ValueError("need at least one session index")
        if len(self.generators) != self.ell:
            raise ValueError("need one generator per session index")
        if len(self.session_hashes) != self.ell:
            raise ValueError("need one digest per session index")
        if len({g.value for g in self.generators}) != self.ell:
            raise ValueError("generators must be distinct")
        values = [x.value for x in self.identifiers]
        if len(values) != self.n or len(set(values)) != self.n or 0 in values:
            raise ValueError("identifiers must be n distinct non-zero residues")
        by_id = {x.value: x for x in self.identifiers}
        object.__setattr__(self, "_by_id", by_id)

    def generator_for(self, session: int) -> GroupElement:
        if not 1 <= session <= self.ell:
            raise SessionExhausted("session index %d out of range" % session)
        return self.generators[session - 1]

    def hash_for(self, session: int) -> bytes:
        if not 1 <= session <= self.ell:
            raise SessionExhausted("session index %d out of range" % session)
        return self.session_hashes[session - 1]

    def identifier(self, party_id: int) -> FieldElement:
        try:
            return self._by_id[party_id]
        except KeyError:
            raise NotAMember(
                "no participant with identifier %d" % party_id
            ) from None

    def all_members(self, party_ids) -> bool:
        """Whether every id in `party_ids` names a participant."""
        return self._by_id.keys() >= set(party_ids)

    def decode(self, payload: str) -> GroupElement | None:
        """Wire value -> subgroup element, or None if malformed; accepted
        values are memoized per distinct payload."""
        try:
            return self._decoded[payload]
        except KeyError:
            pass
        try:
            element = self.group.element(
                decode_residue_hex(payload, self.group.p)
            )
        except GroupAuthError:
            return None
        self._decoded[payload] = element
        return element


@dataclass
class XiaCredential:
    """One participant's share of f plus its one-time session ledger."""

    owner: FieldElement
    share: FieldElement
    used_sessions: set = field(default_factory=set)

    def start_session(self, session: int, group_view,
                      params: XiaParams) -> "XiaSessionState":
        """Open a session state; every sigma is single-use per credential."""
        params.generator_for(session)  # range check
        if session in self.used_sessions:
            raise SessionExhausted(
                "credential %d already used session %d"
                % (self.owner.value, session)
            )
        view = tuple(sorted(int(x) for x in group_view))
        if self.owner.value not in view:
            raise NotAMember(
                "credential %d not in proposed group" % self.owner.value
            )
        self.used_sessions.add(session)
        return XiaSessionState(
            session=session, owner_id=self.owner.value,
            group_view=view, params=params,
        )


@dataclass
class XiaToken:
    """One participant's released masked token."""

    sender: FieldElement
    value: GroupElement


@dataclass
class XiaSessionState:
    """Per-session state machine for one participant.

    Phases move forward only: await-commitments -> await-tokens -> decided.
    received_* map identifier value -> group element; the owner's own
    contributions are stored alongside the peers'.
    """

    session: int
    owner_id: int
    group_view: tuple
    params: XiaParams
    phase: str = AWAIT_COMMITMENTS
    own_nonce: FieldElement | None = None
    received_commitments: dict = field(default_factory=dict)
    received_tokens: dict = field(default_factory=dict)
    decision: BeliefState | None = None


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
        hash_id="sha256",
    )
    credentials = [
        XiaCredential(owner=x, share=poly_eval(f, x)) for x in identifiers
    ]
    return params, credentials, s


def xia_commit(state: XiaSessionState, rng: random.Random) -> Envelope:
    """Sample the session nonce and wrap the commitment for broadcast."""
    if state.phase != AWAIT_COMMITMENTS or state.own_nonce is not None:
        raise ProtocolOrderViolation("commitment already sent")
    params = state.params
    u = FieldElement(rng.randrange(params.group.q), params.group.q)
    state.own_nonce = u
    commitment = group_exp(params.generator_for(state.session), u)
    state.received_commitments[state.owner_id] = commitment
    return Envelope(
        claimed_sender=state.owner_id,
        session=(SCHEME_TAG, state.session),
        round=ROUND_COMMITMENT,
        payload=encode_residue_hex(commitment.value, params.group.p),
    )


def gamma_mask(state: XiaSessionState) -> GroupElement:
    """Fold peer commitments into this member's mask.

    Peers below the owner (by identifier value) contribute C_j, peers
    above contribute C_j^{-1}; the exponents cancel pairwise across the
    group, which is what makes the token product clean. Each side is
    multiplied out first, so the mask costs one inversion.
    """
    lower = []
    upper = []
    for peer in state.group_view:
        if peer == state.owner_id:
            continue
        commitment = state.received_commitments.get(peer)
        if commitment is None:
            raise IncompleteRound("missing commitment from %d" % peer)
        if peer < state.owner_id:
            lower.append(commitment)
        else:
            upper.append(commitment)
    group = state.params.group
    return group_product(group, lower) * group_product(group, upper).inverse()


def xia_compute_token(state: XiaSessionState, credential: XiaCredential,
                      params: XiaParams) -> XiaToken:
    """Release this member's masked token once all commitments arrived."""
    if state.phase != AWAIT_COMMITMENTS:
        raise ProtocolOrderViolation("token already computed")
    if len(state.group_view) < params.t:
        raise InsufficientQuorum(
            "group of %d below threshold %d"
            % (len(state.group_view), params.t)
        )
    if state.own_nonce is None:
        raise IncompleteRound("own commitment has not been sent")
    missing = [
        peer for peer in state.group_view
        if peer not in state.received_commitments
    ]
    if missing:
        raise IncompleteRound("missing commitments from %s" % missing)

    q = params.group.q
    own = params.identifier(state.owner_id)
    others = [
        params.identifier(peer) for peer in state.group_view
        if peer != state.owner_id
    ]
    weight = lagrange_coefficient(FieldElement(0, q), own, others)
    base = group_exp(
        params.generator_for(state.session), credential.share * weight
    )
    token_value = base * group_exp(gamma_mask(state), state.own_nonce)
    state.received_tokens[state.owner_id] = token_value
    state.phase = AWAIT_TOKENS
    return XiaToken(sender=own, value=token_value)


def xia_aggregate(values, p: int) -> int:
    """Product of released token values (plain ints) mod p."""
    product = 1
    for value in values:
        product = product * value % p
    return product


def xia_verify(tokens, state: XiaSessionState,
               params: XiaParams) -> BeliefState:
    """Compare the token product against the session digest and decide.

    Only the aggregate is checked: any token multiset whose product hits
    (g_sigma)^s is accepted, regardless of who actually produced it.
    """
    if state.phase == DECIDED:
        raise ProtocolOrderViolation("session already decided")
    tokens = list(tokens)
    seen = set()
    for token in tokens:
        sender = token.sender.value
        if sender in seen:
            raise MalformedTranscript("two tokens claim sender %d" % sender)
        seen.add(sender)
    product = xia_aggregate([token.value.value for token in tokens],
                            params.group.p)
    accepted = (
        residue_digest(product, params.group.p, params.hash_id)
        == params.hash_for(state.session)
    )
    if accepted:
        belief = BeliefState(True, members=frozenset(state.group_view))
    else:
        belief = BeliefState(False, reason=REASON_HASH_MISMATCH)
    state.phase = DECIDED
    state.decision = belief
    return belief
