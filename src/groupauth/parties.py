"""Honest participants: one round engine for both schemes, and the world
runner.

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
turns the scheme's aggregate check into the decision. `HarnParty` and
`XiaParty` supply only the scheme steps, which call the plain-int math
of `harn2013` and `xia2019`. Envelopes for unknown sessions or for
another round than the one in progress, senders outside the view,
duplicates and malformed payloads are ignored rather than treated as
fatal.

The replay form, which the transcript audit feeds a recorded inbox,
holds no credential and broadcasts nothing: its own contribution to a
round is the payload it first broadcast genuinely in that round, passed
through the same decode step as a peer's (if missing or invalid, the
party never contributes). Everything else, the quorum rule included, is
the live code path.
"""

import random
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
    decode_json_hex,
    decode_residue_hex,
    encode_json_hex,
    encode_residue_hex,
)
from .errors import GroupAuthError, NotAMember, SessionExhausted
from .harn2013 import (
    SCHEME_TAG as HARN_TAG,
    HarnCredential,
    HarnPublicBundle,
    harn_compute_token,
    harn_verify,
)
from .xia2019 import (
    SCHEME_TAG as XIA_TAG,
    XiaCredential,
    XiaParams,
    xia_commit,
    xia_compute_token,
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

    A subclass sets `scheme` (its session tag) and `rounds` (the rounds
    after the invitation, the token round last) and supplies the scheme
    steps `decode` (wire payload -> int or None), `_contribute` (this
    party's own int for a round) and `_verify` (the aggregate check on
    the token round's ints), plus `_admits` and `_open` if it narrows
    admission or keeps a session ledger. The engine owns the scheme-tag
    filter, membership, invitation admission, per-session state,
    first-wins intake, round completion, the quorum rule before the
    token round, the replay form and decision recording.

    Passing `recorded`, a map from (session, round) to the payload this
    party first broadcast genuinely, gives the replay form (module doc).
    """

    scheme = None
    rounds = ()

    def __init__(self, party_id: int, credential, params, modulus: int,
                 recorded: dict | None):
        self.party_id = party_id
        self.credential = credential
        self.params = params  # the scheme's public parameters
        self.modulus = modulus  # of every residue this party broadcasts
        self.recorded = recorded
        self.sessions = {}

    def initiate(self, group_ids, session_id: int, api: PartyAPI) -> None:
        view = tuple(sorted(group_ids))
        if (self.party_id not in view or len(set(view)) != len(view)
                or not self.params.all_members(view)):
            raise NotAMember("party %d cannot initiate group %s"
                             % (self.party_id, list(view)))
        api.broadcast(invitation_envelope(self.scheme, self.party_id,
                                          session_id, view))
        self._join(view, session_id, api)

    def on_envelope(self, envelope: Envelope, api: PartyAPI) -> None:
        scheme, session_id = envelope.session
        if scheme != self.scheme:
            return
        if envelope.round == ROUND_INVITATION:
            parsed = parse_invitation(envelope)
            if parsed is None or session_id in self.sessions:
                return
            view = parsed[0]
            if self.party_id in view and self._admits(view, session_id):
                self._join(view, session_id, api)
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
            payload = self.recorded.get((session.key, round_))
            value = None if payload is None else self.decode(payload)
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

    def _admits(self, view: tuple, session_id: int) -> bool:
        """Whether an invitation naming this party may open a session."""
        return self.params.all_members(view)

    def _open(self, session_id: int) -> None:
        """Claim a new session; raises SessionExhausted if it may not
        open."""


class HarnParty(Party):
    """Honest participant for the token-sum scheme: invitation -> token;
    all tokens in -> verify the sum."""

    scheme = HARN_TAG
    rounds = (ROUND_TOKEN,)
    # perfbench/tracer.py wraps the on_envelope in each party class's own
    # __dict__, so both classes keep this entry until it wraps Party's.
    on_envelope = Party.on_envelope

    def __init__(self, party_id: int, credential: HarnCredential | None,
                 bundle: HarnPublicBundle, recorded: dict | None = None):
        super().__init__(party_id, credential, bundle.params,
                         bundle.params.prime, recorded)
        self.bundle = bundle

    def decode(self, payload: str):
        """Wire token -> residue mod the prime, or None if malformed."""
        try:
            return decode_residue_hex(payload, self.modulus)
        except GroupAuthError:
            return None

    def _contribute(self, session: _Session, round_: str) -> int:
        return harn_compute_token(self.credential, self.bundle, session.view)

    def _verify(self, session: _Session, tokens) -> bool:
        return harn_verify(tokens, self.bundle)


class XiaParty(Party):
    """Honest participant for the masked-product scheme.

    Invitation -> commit; all commitments in -> token; all tokens in ->
    verify. The nonce source is a party-local seeded rng so channel runs
    are reproducible; each session's nonce sits in its `state` slot
    until the token round uses it.
    """

    scheme = XIA_TAG
    rounds = (ROUND_COMMITMENT, ROUND_TOKEN)
    # kept for the benchmark's tracer, as in HarnParty
    on_envelope = Party.on_envelope

    def __init__(self, party_id: int, credential: XiaCredential | None,
                 params: XiaParams, rng: random.Random | None,
                 recorded: dict | None = None):
        super().__init__(party_id, credential, params, params.group.p,
                         recorded)
        self.rng = rng

    def decode(self, payload: str):
        """Wire value -> subgroup element as an int, or None if
        malformed."""
        return self.params.decode(payload)

    def _admits(self, view: tuple, session_id: int) -> bool:
        return (super()._admits(view, session_id)
                and 1 <= session_id <= self.params.ell)

    def _open(self, session_id: int) -> None:
        # the credential's ledger raises SessionExhausted on reuse; the
        # replay form has none
        if self.recorded is None:
            self.credential.start_session(session_id, self.params)

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


def _party(material, party_id: int, credential, rng, recorded=None):
    if isinstance(material, HarnPublicBundle):
        return HarnParty(party_id, credential, material, recorded)
    return XiaParty(party_id, credential, material, rng, recorded)


def run_world(material, credentials, seed: int, group, session: int,
              policy=None, script=None) -> Transcript:
    """Build one simulated world and run it to quiescence.

    One live honest party per credential (`material` is the scheme's
    public bundle or params) and the optional adversary `script` share a
    channel with `policy`. The smallest member of `group` invites it into
    `session`, then the script starts, then the queue drains.
    """
    sim = ChannelSimulator(policy=policy)
    members = {}
    for credential in credentials:
        pid = credential.owner.value
        party = _party(material, pid, credential,
                       derive_rng(seed, "party", pid))
        members[pid] = (party, sim.register(party))
    if script is not None:
        adversary_api = sim.register_adversary(script)
    initiator, api = members[min(group)]
    initiator.initiate(group, session, api)
    if script is not None:
        script.on_start(adversary_api)
    return sim.run_until_quiescent()


def replay_party(material, party_id: int, recorded: dict):
    """The replay form of party `party_id` (module doc)."""
    return _party(material, party_id, None, None, recorded)
