"""Honest participants: one round engine for both schemes, and the world
runner.

Parties are event handlers: the simulator calls on_envelope for every
delivery, and the party reacts by broadcasting or by recording a
decision. Parties never see who really sent an envelope; they trust
claimed_sender, which is the whole point of the exercise.

Both schemes have one shape: after an invitation, each member broadcasts
one contribution per round (masked-product: a commitment, then a token;
token-sum: a token) and decides once it holds a token from every member
of its view. `Party` runs that shape; `HarnParty` and `XiaParty` supply
the scheme steps. Envelopes for unknown sessions or for another round
than the one in progress, senders outside the view, duplicates and
malformed payloads are ignored rather than treated as fatal.

The replay form, which the transcript audit feeds a recorded inbox,
holds no credential and broadcasts nothing: its own contribution to a
round is the payload it first broadcast genuinely in that round, passed
through the same decode step as a peer's (if missing or invalid, the
party never contributes). Everything else, the quorum rule included, is
the live code path.
"""

import random
from dataclasses import dataclass

from .algebra import FieldElement, derive_rng
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
from .errors import GroupAuthError, SessionExhausted
from .harn2013 import (
    SCHEME_TAG as HARN_TAG,
    HarnCredential,
    HarnPublicBundle,
    HarnToken,
    harn_compute_token,
    harn_verify,
)
from .xia2019 import (
    SCHEME_TAG as XIA_TAG,
    XiaCredential,
    XiaParams,
    XiaSessionState,
    XiaToken,
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
    state: object = None  # the scheme's own session state, if any
    round: str | None = None  # round in progress; None once decided
    # claimed sender -> decoded contribution for the round in progress.
    # Every key is a view member, so the round is complete exactly when
    # len(received) == len(view).
    received: dict | None = None


class Party:
    """Honest participant: the round engine both schemes share.

    A subclass sets `scheme` (its session tag) and `rounds` (the rounds
    after the invitation, the token round last) and supplies the scheme
    steps `decode`, `_admits`, `_contribute` and `_verify`, plus `_open`
    and `_inbox` if it keeps its own session state. The engine owns the
    scheme-tag filter, invitation admission, per-session state,
    first-wins intake, round completion, the quorum rule before the
    token round, the replay form and decision recording.

    Passing `recorded`, a map from (session, round) to the payload this
    party first broadcast genuinely, gives the replay form (module doc).
    """

    scheme = None
    rounds = ()

    def __init__(self, party_id: int, credential, params,
                 recorded: dict | None):
        self.party_id = party_id
        self.credential = credential
        self.params = params  # the scheme's public parameters
        self.recorded = recorded
        self.sessions = {}

    def initiate(self, group_ids, session_id: int, api: PartyAPI) -> None:
        api.broadcast(invitation_envelope(self.scheme, self.party_id,
                                          session_id, group_ids))
        self._join(tuple(sorted(group_ids)), session_id, api)

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
        received = session.received
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
            session.state = self._open(session_id, view)
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
        session.received = self._inbox(session, round_)
        if self.recorded is None:
            api.broadcast(Envelope(
                claimed_sender=self.party_id, session=session.key,
                round=round_, payload=self._contribute(session, round_),
            ))
        else:
            payload = self.recorded.get((session.key, round_))
            value = None if payload is None else self.decode(payload)
            if value is not None:
                session.received[self.party_id] = value
        self._advance(session, api)

    def _advance(self, session: _Session, api: PartyAPI) -> None:
        """Once every view member has contributed to the round in
        progress, start the next round or, after the token round, decide."""
        if len(session.received) != len(session.view):
            return
        if session.round == ROUND_TOKEN:
            self._decide(session, self._verify(session), api)
        else:
            following = self.rounds[self.rounds.index(session.round) + 1]
            self._enter(session, following, api)

    def _decide(self, session: _Session, belief: BeliefState,
                api: PartyAPI) -> None:
        session.round = None  # takes nothing more
        api.decide(session.key, belief)

    def _admits(self, view: tuple, session_id: int) -> bool:
        """Whether an invitation naming this party may open a session."""
        return self.params.all_members(view)

    def _open(self, session_id: int, view: tuple):
        """The scheme's own state for a new session."""
        return None

    def _inbox(self, session: _Session, round_: str) -> dict:
        """The map a round's contributions go into."""
        return {}


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
        super().__init__(party_id, credential, bundle.params, recorded)
        self.bundle = bundle

    def decode(self, payload: str):
        """Wire token -> residue mod the prime, or None if malformed."""
        try:
            return decode_residue_hex(payload, self.params.prime)
        except GroupAuthError:
            return None

    def _contribute(self, session: _Session, round_: str) -> str:
        token = harn_compute_token(self.credential, self.bundle,
                                   session.view).value.value
        session.received[self.party_id] = token
        return encode_residue_hex(token, self.params.prime)

    def _verify(self, session: _Session) -> BeliefState:
        prime = self.params.prime
        tokens = [
            HarnToken(self.params.identifier(i),
                      FieldElement(session.received[i], prime))
            for i in session.view
        ]
        accepted, _ = harn_verify(tokens, self.bundle)
        if accepted:
            return BeliefState(True, members=frozenset(session.view))
        return BeliefState(False, reason=REASON_HASH_MISMATCH)


class XiaParty(Party):
    """Honest participant for the masked-product scheme.

    Invitation -> commit; all commitments in -> token; all tokens in ->
    verify. The nonce source is a party-local seeded rng so channel runs
    are reproducible. Each round's contributions go into the session's
    XiaSessionState, where the mask and token steps read them.
    """

    scheme = XIA_TAG
    rounds = (ROUND_COMMITMENT, ROUND_TOKEN)
    # kept for the benchmark's tracer, as in HarnParty
    on_envelope = Party.on_envelope

    def __init__(self, party_id: int, credential: XiaCredential | None,
                 params: XiaParams, rng: random.Random | None,
                 recorded: dict | None = None):
        super().__init__(party_id, credential, params, recorded)
        self.rng = rng

    def decode(self, payload: str):
        """Wire value -> subgroup element, or None if malformed."""
        return self.params.decode(payload)

    def _admits(self, view: tuple, session_id: int) -> bool:
        return (super()._admits(view, session_id)
                and 1 <= session_id <= self.params.ell)

    def _open(self, session_id: int, view: tuple) -> XiaSessionState:
        # the credential's ledger raises SessionExhausted on reuse; the
        # replay form has none
        if self.recorded is not None:
            return XiaSessionState(session=session_id, owner_id=self.party_id,
                                   group_view=view, params=self.params)
        return self.credential.start_session(session_id, view, self.params)

    def _inbox(self, session: _Session, round_: str) -> dict:
        if round_ == ROUND_COMMITMENT:
            return session.state.received_commitments
        return session.state.received_tokens

    def _contribute(self, session: _Session, round_: str) -> str:
        # both steps enter the party's own value into the state's round map
        if round_ == ROUND_COMMITMENT:
            return xia_commit(session.state, self.rng).payload
        token = xia_compute_token(session.state, self.credential, self.params)
        return encode_residue_hex(token.value.value, self.params.group.p)

    def _verify(self, session: _Session) -> BeliefState:
        tokens = [
            XiaToken(self.params.identifier(i), session.received[i])
            for i in session.view
        ]
        return xia_verify(tokens, session.state, self.params)


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
