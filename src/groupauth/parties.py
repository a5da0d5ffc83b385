"""Honest participants: one round engine, one class per scheme, and the
world runner.

Parties are event handlers: the simulator hands each send once to the
class's `receive`, with every (party, api) pair it reaches in order, and
each party reacts by broadcasting or by recording a decision. Parties
never see who really sent an envelope; they trust claimed_sender, which
is the whole point of the exercise.

Both schemes have one shape: after an invitation, each member broadcasts
one contribution per round (masked-product: a commitment, then a token;
token-sum: a token) and decides once it holds a token from every member
of its view. `Party` is the only copy of that protocol: it keeps each
session's per-round {sender: value} maps (values are plain ints, the
party's own included), applies the membership and quorum rules, and
turns the scheme's aggregate check into the decision. Envelopes for
unknown sessions or for another round than the one in progress, senders
outside the view, duplicates and malformed payloads are ignored rather
than treated as fatal. The params all parties share own the wire
format: the engine writes each contribution with their `encode_own`,
which stores it as decoded so that no party checks it, and reads the
rest with their `decode`, once per send. Work that depends only on wire
values and the public material (decode, invitations, a group's Lagrange
numerators, xia2019's masks and aggregate check) runs once per world, in
those params; every check left per recipient is O(1).

`HarnParty` and `XiaParty` are the two schemes (see `Party` for what a
scheme class answers), and `SCHEMES` maps each wire tag to its class; a
further scheme registers there, with no change to the engine.

A session id opens at most once per party, and only if the scheme
admits it (xia2019: an index 1..ell). `Party._join` alone applies that
rule, live and in replay; credentials are immutable and keep no ledger.

The replay form, which the audit hands each recorded envelope that
reached the party or that it sent genuinely, in seq order, holds no
credential and broadcasts nothing: each time it enters a round, its
own contribution is the next payload it broadcast genuinely in that
round, passed through the same decode step as a peer's (if missing or
invalid, the party never contributes), and an invitation it broadcast
genuinely (a `SentInvitation`) is replayed as the `initiate` that sent
it. Everything else, the quorum rule and the one-time rule, is the
live path.
"""

from dataclasses import dataclass, field

from .algebra import derive_rng
from .channel import (
    BeliefState,
    ChannelSimulator,
    Envelope,
    PartyAPI,
    REASON_HASH_MISMATCH,
    REASON_QUORUM,
    REASON_SESSION_EXHAUSTED,
    ROUND_COMMITMENT,
    ROUND_INVITATION,
    ROUND_TOKEN,
    Transcript,
    invitation_envelope,
)
from .errors import NotAMember
from .harn2013 import (
    SCHEME_TAG as HARN_TAG,
    HarnParams,
    harn_aggregate,
    harn_compute_token,
    harn_gm_init,
    harn_verify,
)
from .xia2019 import (
    SCHEME_TAG as XIA_TAG,
    XiaParams,
    xia_aggregate,
    xia_commit,
    xia_compute_token,
    xia_gm_init,
    xia_verify,
)


@dataclass(frozen=True)
class SentInvitation(Envelope):
    """An invitation as the party it is handed to broadcast it genuinely:
    the audit gives the replay form its own invitations in this type."""


@dataclass(slots=True)
class _Session:
    """One party's state in one session."""

    key: tuple  # (scheme tag, session id), as on the wire
    view: tuple  # sorted member ids from the invitation
    members: frozenset  # the same ids, for the sender check
    state: int | None = None  # the scheme's own value (xia: this nonce)
    round: str | None = None  # round in progress; None once decided
    # round -> {claimed sender: decoded contribution}, this party's own
    # included. Every key is a view member, so a round is complete
    # exactly when its map holds len(view) entries.
    received: dict = field(default_factory=dict)
    current: dict | None = None  # received[round]


class Party:
    """Honest participant: the round engine both schemes share.

    A subclass is one scheme. It sets `scheme` (its session tag), `rounds`
    (the rounds after the invitation, the token round last),
    `per_session_generators` (whether sessions are the dealer's one-time
    indices 1..ell, each with its own generator) and `draws_nonces`
    (whether its contributions use `rng`, so a world seeds one for each
    party), and supplies the scheme steps `_contribute` (this party's own
    int for a round) and `_verify` (the aggregate check on the token
    round's ints; `session.received` says who claimed each), plus
    `_admits` if it narrows which session ids may open. Its public
    material is one `ThresholdParams` subclass, `params`, which owns the
    wire format: `encode_own` writes a contribution's payload; `decode`
    (wire payload -> int or None) and `invitation` are the boundary
    checks. At class level it answers `issue(config)` (the dealer run:
    params, credentials, secret), `aggregate(values, modulus)` (what the
    digest check binds), `nudge(params, session, value)` (a token moved
    off its value, still well-formed) and, where the default below does
    not fit, `material_facts`. The engine owns the scheme-tag filter,
    membership, the one-time session rule (`_join`), per-session state,
    first-wins intake, round completion, the quorum rule before the token
    round, the replay form and decision recording.

    `rng` is the nonce source of a scheme that draws nonces, else None.
    Passing `recorded`, a map from (session, round) to the list of
    payloads this party broadcast genuinely in it, in order, gives the
    replay form (module doc), which takes them off the front as it
    enters rounds.
    """

    scheme = None
    rounds = ()
    per_session_generators = False
    draws_nonces = False

    def __init__(self, party_id: int, credential, params, rng=None,
                 recorded: dict | None = None):
        self.party_id = party_id
        self.credential = credential
        self.params = params
        self.decode = params.decode  # wire payload -> int or None
        self.rng = rng
        self.recorded = recorded
        self.sessions = {}

    @staticmethod
    def material_facts(params) -> dict:
        """The report's facts about the public material."""
        return {"modulus_hex": format(params.modulus, "x"),
                "parties": params.n, "threshold": params.t}

    # -- the round engine ---------------------------------------------------

    def initiate(self, group_ids, session_id: int, api: PartyAPI) -> None:
        invitation = invitation_envelope(self.scheme, self.party_id,
                                         session_id, group_ids)
        parsed = self.params.invitation(invitation.payload)
        if parsed is None or self.party_id not in parsed[1]:
            raise NotAMember("party %d cannot initiate group %s"
                             % (self.party_id, sorted(group_ids)))
        api.broadcast(invitation)
        self._join(parsed[0], parsed[1], session_id, api, own=True)

    @staticmethod
    def receive(envelope: Envelope, targets) -> None:
        """Take one send: `targets` are the (party, api) pairs it reaches,
        in the order its record lists them. The envelope is read once and
        its payload decoded at most once per params object; an invitation
        goes to each target's `on_envelope`."""
        (scheme, session_id), round_ = envelope.session, envelope.round
        if round_ == ROUND_INVITATION:
            for party, api in targets:
                party.on_envelope(envelope, api)
            return
        sender, payload = envelope.claimed_sender, envelope.payload
        decoded_by = value = None
        for party, api in targets:
            if scheme != party.scheme:
                continue
            session = party.sessions.get(session_id)
            if session is None or round_ != session.round:
                continue
            # first-wins intake; a party's own contribution never comes
            # from the wire
            received = session.current
            if (sender == party.party_id or sender not in session.members
                    or sender in received):
                continue
            if party.params is not decoded_by:
                decoded_by, value = party.params, party.decode(payload)
            if value is None:
                continue
            received[sender] = value
            if len(received) == len(session.view):
                party._advance(session, api)

    def on_envelope(self, envelope: Envelope, api: PartyAPI) -> None:
        """Take one delivery: an invitation here, anything else through
        `receive` with this party as the only target. In the replay form,
        a `SentInvitation` is replayed as the `initiate` that sent it."""
        if envelope.round != ROUND_INVITATION:
            Party.receive(envelope, ((self, api),))
            return
        scheme, session_id = envelope.session
        if scheme != self.scheme:
            return
        parsed = self.params.invitation(envelope.payload)
        if (parsed is None or parsed[2] != session_id
                or self.party_id not in parsed[1]):
            return
        self._join(parsed[0], parsed[1], session_id, api,
                   own=isinstance(envelope, SentInvitation))

    def _join(self, view: tuple, members: frozenset, session_id: int,
              api: PartyAPI, own: bool) -> None:
        """Open a session if this party has never opened its id (so a
        one-time secret is never used twice) and the scheme admits it.
        Otherwise this party's `own` invitation decides
        `session-exhausted`, and one from the wire is ignored."""
        session = _Session((self.scheme, session_id), view, members)
        if session_id in self.sessions or not self._admits(session_id):
            if own:
                self._decide(session, BeliefState(
                    False, reason=REASON_SESSION_EXHAUSTED), api)
            return
        self.sessions[session_id] = session
        self._enter(session, self.rounds[0], api)

    def _enter(self, session: _Session, round_: str, api: PartyAPI) -> None:
        """Start a round: the quorum rule before the token round, then
        this party's own contribution (its recorded one when replaying)."""
        if round_ == ROUND_TOKEN and len(session.view) < self.params.t:
            self._decide(session, BeliefState(False, reason=REASON_QUORUM),
                         api)
            return
        session.round = round_
        received = session.received[round_] = session.current = {}
        if self.recorded is None:
            value = self._contribute(session, round_)
            api.broadcast(Envelope(
                claimed_sender=self.party_id, session=session.key,
                round=round_, payload=self.params.encode_own(value),
            ))
        else:
            payloads = self.recorded.get((session.key, round_))
            value = self.decode(payloads.pop(0)) if payloads else None
        if value is not None:
            received[self.party_id] = value
        if len(received) == len(session.view):
            self._advance(session, api)

    def _advance(self, session: _Session, api: PartyAPI) -> None:
        """Every view member has contributed to the round in progress:
        start the next round or, after the token round, decide on the
        aggregate check."""
        if session.round != ROUND_TOKEN:
            following = self.rounds[self.rounds.index(session.round) + 1]
            self._enter(session, following, api)
        elif self._verify(session, session.received[ROUND_TOKEN].values()):
            self._decide(session, BeliefState(
                True, members=session.members), api)
        else:
            self._decide(session, BeliefState(
                False, reason=REASON_HASH_MISMATCH), api)

    def _decide(self, session: _Session, belief: BeliefState,
                api: PartyAPI) -> None:
        session.round = None  # takes nothing more
        api.decide(session.key, belief)

    def _admits(self, session_id: int) -> bool:
        """Whether the scheme lets a session with this id open."""
        return True


class HarnParty(Party):
    """The token-sum scheme: invitation -> token; all tokens in -> verify
    the sum. The tamper nudge adds one."""

    scheme = HARN_TAG
    rounds = (ROUND_TOKEN,)
    # perfbench/tracer.py wraps the on_envelope in each party class's own
    # __dict__, so both classes keep this entry until it wraps Party's; it
    # times invitations and single deliveries, not per-send intake
    on_envelope = Party.on_envelope

    @staticmethod
    def issue(config) -> tuple:
        return harn_gm_init(config.n, config.t, prime_bits=config.prime_bits,
                            rng_seed=config.seed)

    aggregate = staticmethod(harn_aggregate)

    @staticmethod
    def nudge(params: HarnParams, session: int, value: int) -> int:
        return (value + 1) % params.modulus

    def _contribute(self, session: _Session, round_: str) -> int:
        return harn_compute_token(self.credential, self.params, session.view)

    def _verify(self, session: _Session, tokens) -> bool:
        return harn_verify(tokens, self.params)


class XiaParty(Party):
    """The masked-product scheme.

    Invitation -> commit; all commitments in -> token; all tokens in ->
    verify the product. The nonce source is a party-local seeded rng so
    channel runs are reproducible; each session's nonce sits in its
    `state` slot until the token round uses it. The tamper nudge
    multiplies by the session's generator, so the token stays in the
    subgroup.
    """

    scheme = XIA_TAG
    rounds = (ROUND_COMMITMENT, ROUND_TOKEN)
    per_session_generators = True
    draws_nonces = True
    # kept for the benchmark's tracer, as in HarnParty (invitations and
    # single deliveries only)
    on_envelope = Party.on_envelope

    @staticmethod
    def issue(config) -> tuple:
        return xia_gm_init(config.n, config.t, ell=config.ell,
                           prime_bits=config.prime_bits, rng_seed=config.seed)

    aggregate = staticmethod(xia_aggregate)

    @staticmethod
    def nudge(params: XiaParams, session: int, value: int) -> int:
        return value * params.generator_for(session).value % params.modulus

    @staticmethod
    def material_facts(params: XiaParams) -> dict:
        return {**Party.material_facts(params),
                "subgroup_order_hex": format(params.group.q, "x"),
                "session_indices": params.ell}

    def _admits(self, session_id: int) -> bool:
        return 1 <= session_id <= self.params.ell

    def _contribute(self, session: _Session, round_: str) -> int:
        session_id = session.key[1]
        if round_ == ROUND_COMMITMENT:
            session.state, commitment = xia_commit(self.params, session_id,
                                                   self.rng)
            return commitment
        return xia_compute_token(self.credential, self.params, session_id,
                                 session.received[ROUND_COMMITMENT],
                                 session.state)

    def _verify(self, session: _Session, tokens) -> bool:
        return xia_verify(tokens, session.key[1], self.params)


# wire tag -> the class that is that scheme
SCHEMES = {party.scheme: party for party in (HarnParty, XiaParty)}


def run_world(scheme, params, credentials, seed: int, group,
              session: int, policy=None, script=None) -> Transcript:
    """Build one simulated world and run it to quiescence.

    One live honest party of class `scheme` per credential (`params` is
    the scheme's public material; if the scheme draws nonces, each party
    gets its own rng, seeded from `seed`) and the optional adversary
    `script` share a channel with `policy`. The smallest member of
    `group` invites it into `session`, then the script starts, then the
    queue drains.
    """
    sim = ChannelSimulator(policy=policy)
    members = {}
    for credential in credentials:
        pid = credential.owner.value
        rng = derive_rng(seed, "party", pid) if scheme.draws_nonces else None
        party = scheme(pid, credential, params, rng)
        members[pid] = (party, sim.register(party))
    if script is not None:
        adversary_api = sim.register_adversary(script)
    initiator, api = members[min(group)]
    initiator.initiate(group, session, api)
    if script is not None:
        script.on_start(adversary_api)
    return sim.run_until_quiescent()
