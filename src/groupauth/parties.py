"""Honest participants: one round engine, one class per scheme, and the
world runner.

Parties are event handlers: the simulator calls on_envelope for every
delivery, and the party reacts by broadcasting or by recording a
decision. Parties never see who really sent an envelope; they trust
claimed_sender, which is the whole point of the exercise.

Both schemes have one shape: after an invitation, each member broadcasts
one contribution per round (masked-product: a commitment, then a token;
token-sum: a token) and decides once it holds a token from every member
of its view. `Party` is the only copy of that protocol: it keeps each
session's per-round {sender: value} maps (values are plain ints, the
party's own included), applies the membership and quorum rules, and
turns the scheme's aggregate check into the decision. Envelopes for
unknown sessions or for another round than the one in progress, senders
outside the view, duplicates and malformed payloads are ignored rather
than treated as fatal.

`HarnParty` and `XiaParty` are the two schemes (see `Party` for what a
scheme class answers), and `SCHEMES` maps each wire tag to its class.

The replay form, which the transcript audit feeds a recorded inbox,
holds no credential and broadcasts nothing: each time it enters a
round, its own contribution is the next payload it broadcast genuinely
in that round, passed through the same decode step as a peer's (if
missing or invalid, the party never contributes), and an invitation it
broadcast genuinely (a `SentInvitation`) is replayed as the `initiate`
that sent it. Everything else, the quorum rule and the session ledger
included, is the live code path.
"""

from dataclasses import dataclass, field, replace

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
    decode_json_hex,
    encode_json_hex,
    encode_residue_hex,
)
from .errors import GroupAuthError, NotAMember, SessionExhausted
from .harn2013 import (
    SCHEME_TAG as HARN_TAG,
    HarnPublicBundle,
    harn_aggregate,
    harn_compute_token,
    harn_gm_init,
    harn_verify,
)
from .xia2019 import (
    SCHEME_TAG as XIA_TAG,
    XiaCredential,
    XiaParams,
    xia_aggregate,
    xia_commit,
    xia_compute_token,
    xia_gm_init,
    xia_verify,
)


def invitation_envelope(scheme: str, inviter: int, session: int,
                        group_ids) -> Envelope:
    """In-band, unauthenticated session announcement."""
    return Envelope(
        claimed_sender=inviter,
        session=(scheme, session),
        round=ROUND_INVITATION,
        payload=encode_json_hex(
            {"group": sorted(int(i) for i in group_ids), "session": session}
        ),
    )


def parse_invitation(envelope: Envelope) -> tuple:
    """Return (group_ids, session) or None if structurally invalid."""
    try:
        body = decode_json_hex(envelope.payload)
        group_ids = tuple(sorted(int(i) for i in body["group"]))
        session = int(body["session"])
    except (GroupAuthError, KeyError, TypeError, ValueError, OverflowError):
        return None
    if session != envelope.session[1] or not group_ids:
        return None
    if len(set(group_ids)) != len(group_ids):
        return None
    return group_ids, session


@dataclass(frozen=True)
class SentInvitation(Envelope):
    """An invitation as the party it is handed to broadcast it genuinely:
    the audit gives the replay form its own invitations in this type."""


@dataclass
class _Session:
    """One party's state in one session."""

    key: tuple  # (scheme tag, session id), as on the wire
    view: tuple  # sorted member ids from the invitation
    state: int | None = None  # the scheme's own value (xia: this nonce)
    round: str | None = None  # round in progress; None once decided
    # round -> {claimed sender: decoded contribution}, this party's own
    # included. Every key is a view member, so a round is complete
    # exactly when its map holds len(view) entries.
    received: dict = field(default_factory=dict)


class Party:
    """Honest participant: the round engine both schemes share.

    A subclass is one scheme. It sets `scheme` (its session tag), `rounds`
    (the rounds after the invitation, the token round last) and
    `per_session_generators` (whether sessions are the dealer's one-time
    indices 1..ell, each with its own generator), and supplies the scheme
    steps `_contribute` (this party's own int for a round) and `_verify`
    (the aggregate check on the token round's ints), plus `_admits` and
    `_open` if it narrows admission or keeps a session ledger; its
    parameters' `decode` (wire payload -> int or None) is the boundary
    check. At class level it answers for its public `material`:
    `issue(config)` (the dealer run: material, credentials, secret),
    `modulus_of` (of every residue on the wire), `aggregate(values,
    modulus)` (what the digest check binds), `nudge(material, session,
    value)` (a token moved off its value, still well-formed) and, where
    the defaults below do not fit, `participants`, `fresh_copy` and
    `material_facts`. The engine owns the scheme-tag filter, membership,
    invitation admission, per-session state, first-wins intake, round
    completion, the quorum rule before the token round, the replay form
    and decision recording.

    `rng` is the nonce source of a scheme that draws nonces. Passing
    `recorded`, a map from (session, round) to the list of payloads this
    party broadcast genuinely in it, in order, gives the replay form
    (module doc), which takes them off the front as it enters rounds.
    """

    scheme = None
    rounds = ()
    per_session_generators = False

    def __init__(self, party_id: int, credential, material, rng=None,
                 recorded: dict | None = None):
        self.party_id = party_id
        self.credential = credential
        self.material = material
        self.params = self.participants(material)
        self.decode = self.params.decode  # wire payload -> int or None
        self.modulus = self.modulus_of(material)
        self.rng = rng
        self.recorded = recorded
        self.sessions = {}

    @staticmethod
    def participants(material):
        """The material's `ThresholdParams`."""
        return material

    @staticmethod
    def fresh_copy(material, credentials) -> tuple:
        """(material, credentials) for another world of the same dealer
        run: new copies of whatever keeps per-world state."""
        return material, list(credentials)

    @classmethod
    def material_facts(cls, material) -> dict:
        """The report's facts about the public material."""
        params = cls.participants(material)
        return {"modulus_hex": format(cls.modulus_of(material), "x"),
                "parties": params.n, "threshold": params.t}

    # -- the round engine ---------------------------------------------------

    def initiate(self, group_ids, session_id: int, api: PartyAPI) -> None:
        view = tuple(sorted(group_ids))
        if len(set(view)) != len(view) or not self._member_of(view):
            raise NotAMember("party %d cannot initiate group %s"
                             % (self.party_id, list(view)))
        api.broadcast(invitation_envelope(self.scheme, self.party_id,
                                          session_id, view))
        self._join(view, session_id, api)

    def on_envelope(self, envelope: Envelope, api: PartyAPI) -> None:
        """Take one delivery. In the replay form, a `SentInvitation` is
        replayed as the `initiate` that sent it, which claims its session
        even if one is open (as live)."""
        scheme, session_id = envelope.session
        if scheme != self.scheme:
            return
        if envelope.round == ROUND_INVITATION:
            parsed = parse_invitation(envelope)
            if parsed is None or not self._member_of(parsed[0]):
                return
            if isinstance(envelope, SentInvitation) or (
                    session_id not in self.sessions
                    and self._admits(session_id)):
                self._join(parsed[0], session_id, api)
            return
        session = self.sessions.get(session_id)
        if session is None or envelope.round != session.round:
            return
        # first-wins intake; a party's own contribution never comes from
        # the wire
        sender = envelope.claimed_sender
        received = session.received[session.round]
        if (sender == self.party_id or sender not in session.view
                or sender in received):
            return
        value = self.decode(envelope.payload)
        if value is None:
            return
        received[sender] = value
        self._advance(session, api)

    def _member_of(self, view: tuple) -> bool:
        """Whether `view` names this party and only participants."""
        return self.party_id in view and self.params.all_members(view)

    def _join(self, view: tuple, session_id: int, api: PartyAPI) -> None:
        session = _Session((self.scheme, session_id), view)
        try:
            self._open(session_id)
        except SessionExhausted:
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
        received = session.received[round_] = {}
        if self.recorded is None:
            value = self._contribute(session, round_)
            api.broadcast(Envelope(
                claimed_sender=self.party_id, session=session.key,
                round=round_, payload=encode_residue_hex(value, self.modulus),
            ))
        else:
            payloads = self.recorded.get((session.key, round_))
            value = self.decode(payloads.pop(0)) if payloads else None
        if value is not None:
            received[self.party_id] = value
        self._advance(session, api)

    def _advance(self, session: _Session, api: PartyAPI) -> None:
        """Once every view member has contributed to the round in
        progress, start the next round or, after the token round, decide
        on the aggregate check."""
        if len(session.received[session.round]) != len(session.view):
            return
        if session.round != ROUND_TOKEN:
            following = self.rounds[self.rounds.index(session.round) + 1]
            self._enter(session, following, api)
        elif self._verify(session, session.received[ROUND_TOKEN].values()):
            self._decide(session, BeliefState(
                True, members=frozenset(session.view)), api)
        else:
            self._decide(session, BeliefState(
                False, reason=REASON_HASH_MISMATCH), api)

    def _decide(self, session: _Session, belief: BeliefState,
                api: PartyAPI) -> None:
        session.round = None  # takes nothing more
        api.decide(session.key, belief)

    def _admits(self, session_id: int) -> bool:
        """Whether an invitation to a session not yet seen may open it."""
        return True

    def _open(self, session_id: int) -> None:
        """Claim a new session; raises SessionExhausted if it may not
        open."""


class HarnParty(Party):
    """The token-sum scheme: invitation -> token; all tokens in -> verify
    the sum. The tamper nudge adds one."""

    scheme = HARN_TAG
    rounds = (ROUND_TOKEN,)
    # perfbench/tracer.py wraps the on_envelope in each party class's own
    # __dict__, so both classes keep this entry until it wraps Party's.
    on_envelope = Party.on_envelope

    @staticmethod
    def issue(config) -> tuple:
        return harn_gm_init(config.n, config.t, prime_bits=config.prime_bits,
                            rng_seed=config.seed)

    @staticmethod
    def participants(material: HarnPublicBundle):
        return material.params

    @staticmethod
    def modulus_of(material: HarnPublicBundle) -> int:
        return material.params.prime

    aggregate = staticmethod(harn_aggregate)

    @staticmethod
    def nudge(material: HarnPublicBundle, session: int, value: int) -> int:
        return (value + 1) % material.params.prime

    def _contribute(self, session: _Session, round_: str) -> int:
        return harn_compute_token(self.credential, self.material,
                                  session.view)

    def _verify(self, session: _Session, tokens) -> bool:
        return harn_verify(tokens, self.material)


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
    # kept for the benchmark's tracer, as in HarnParty
    on_envelope = Party.on_envelope

    @staticmethod
    def issue(config) -> tuple:
        return xia_gm_init(config.n, config.t, ell=config.ell,
                           prime_bits=config.prime_bits, rng_seed=config.seed)

    @staticmethod
    def fresh_copy(material: XiaParams, credentials) -> tuple:
        # a new decode memo, and empty session ledgers
        return (replace(material),
                [XiaCredential(c.owner, c.share) for c in credentials])

    @staticmethod
    def modulus_of(material: XiaParams) -> int:
        return material.group.p

    aggregate = staticmethod(xia_aggregate)

    @staticmethod
    def nudge(material: XiaParams, session: int, value: int) -> int:
        return value * material.generator_for(session).value \
            % material.group.p

    @classmethod
    def material_facts(cls, material: XiaParams) -> dict:
        return {**super().material_facts(material),
                "subgroup_order_hex": format(material.group.q, "x"),
                "session_indices": material.ell}

    def _admits(self, session_id: int) -> bool:
        return 1 <= session_id <= self.params.ell

    def _open(self, session_id: int) -> None:
        # the credential's ledger refuses an index out of range or reused;
        # the replay form has none and checks the sessions it opened, the
        # same set for a world started with fresh credentials
        if self.recorded is None:
            self.credential.start_session(session_id, self.params)
        elif session_id in self.sessions or not self._admits(session_id):
            raise SessionExhausted("session %d reused or out of range"
                                   % session_id)

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


def run_world(scheme, material, credentials, seed: int, group,
              session: int, policy=None, script=None) -> Transcript:
    """Build one simulated world and run it to quiescence.

    One live honest party of class `scheme` per credential (`material` is
    the scheme's public material) and the optional adversary `script`
    share a channel with `policy`. The smallest member of `group` invites
    it into `session`, then the script starts, then the queue drains.
    """
    sim = ChannelSimulator(policy=policy)
    members = {}
    for credential in credentials:
        pid = credential.owner.value
        party = scheme(pid, credential, material,
                       derive_rng(seed, "party", pid))
        members[pid] = (party, sim.register(party))
    if script is not None:
        adversary_api = sim.register_adversary(script)
    initiator, api = members[min(group)]
    initiator.initiate(group, session, api)
    if script is not None:
        script.on_start(adversary_api)
    return sim.run_until_quiescent()
