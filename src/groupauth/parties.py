"""Honest participant adapters: envelope handling around the state machines.

Parties are event handlers: the simulator calls on_envelope for every
delivery, and the party reacts by broadcasting protocol messages or by
recording a decision. Parties never see who really sent an envelope; they
trust claimed_sender, which is the whole point of the exercise.

Robustness rules shared by both adapters: envelopes for unknown sessions,
senders outside the active group view, duplicate contributions, and
malformed payloads are ignored rather than treated as fatal.

Each adapter also has a replay form, which the transcript audit feeds a
recorded inbox. It holds no credential and broadcasts nothing: its own
contribution to a round is the payload it first broadcast genuinely in
that round, and that payload passes the same decode-and-validate step as
a peer's. A missing or invalid payload means the party never contributes.
Everything else, the quorum rule included, is the live code path.
"""

import random
from dataclasses import dataclass, field

from .algebra import FieldElement, derive_rng
from .channel import (
    BeliefState,
    Envelope,
    PartyAPI,
    REASON_HASH_MISMATCH,
    REASON_QUORUM,
    REASON_SESSION_EXHAUSTED,
    ROUND_COMMITMENT,
    ROUND_INVITATION,
    ROUND_TOKEN,
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
    AWAIT_COMMITMENTS,
    AWAIT_TOKENS,
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


def _take(party, received: dict, view, envelope: Envelope) -> bool:
    """First-wins intake of one peer contribution into `received`.

    The claimed sender must be another member of the view that has not
    contributed yet, and the payload must pass the party's decode step.
    A party's own contribution never comes from the wire. Every key of
    `received` is thus a view member, so a round is complete exactly
    when len(received) == len(view).
    """
    sender = envelope.claimed_sender
    if sender == party.party_id or sender not in view or sender in received:
        return False
    value = party.decode(envelope.payload)
    if value is None:
        return False
    received[sender] = value
    return True


def _take_recorded(party, received: dict, session: tuple,
                   round_: str) -> None:
    """Replay form: enter the party's own recorded contribution, if valid."""
    payload = party.recorded.get((session, round_))
    value = None if payload is None else party.decode(payload)
    if value is not None:
        received[party.party_id] = value


@dataclass
class _HarnRun:
    group_view: tuple
    tokens: dict = field(default_factory=dict)
    decided: bool = False


class HarnParty:
    """Honest participant for the token-sum scheme.

    On an invitation that names it, the party immediately releases its
    token (no commitment round exists) and then waits for one token per
    listed member before verifying the sum.

    Passing `recorded`, a map from (session, round) to the payload this
    party first broadcast genuinely, gives the replay form (module doc).
    """

    def __init__(self, party_id: int, credential: HarnCredential | None,
                 bundle: HarnPublicBundle, recorded: dict | None = None):
        self.party_id = party_id
        self.credential = credential
        self.bundle = bundle
        self.recorded = recorded
        self.runs = {}

    def initiate(self, group_ids, run_id: int, api: PartyAPI) -> None:
        api.broadcast(
            invitation_envelope(HARN_TAG, self.party_id, run_id, group_ids)
        )
        self._join(tuple(sorted(group_ids)), run_id, api)

    def decode(self, payload: str):
        """Wire token -> residue mod the prime, or None if malformed."""
        try:
            return decode_residue_hex(payload, self.bundle.params.prime)
        except GroupAuthError:
            return None

    def on_envelope(self, envelope: Envelope, api: PartyAPI) -> None:
        scheme, run_id = envelope.session
        if scheme != HARN_TAG:
            return
        if envelope.round == ROUND_INVITATION:
            parsed = parse_invitation(envelope)
            if parsed is None or run_id in self.runs:
                return
            group_ids, _ = parsed
            if (self.party_id not in group_ids
                    or not self.bundle.params.all_members(group_ids)):
                return
            self._join(group_ids, run_id, api)
        elif envelope.round == ROUND_TOKEN:
            run = self.runs.get(run_id)
            if run is None or run.decided:
                return
            if _take(self, run.tokens, run.group_view, envelope):
                self._maybe_decide(run_id, api)

    def _join(self, group_ids: tuple, run_id: int, api: PartyAPI) -> None:
        run = _HarnRun(group_view=group_ids)
        self.runs[run_id] = run
        if len(group_ids) < self.bundle.params.t:
            run.decided = True
            api.decide(
                (HARN_TAG, run_id),
                BeliefState(False, reason=REASON_QUORUM),
            )
            return
        if self.recorded is not None:
            _take_recorded(self, run.tokens, (HARN_TAG, run_id), ROUND_TOKEN)
        else:
            token = harn_compute_token(
                self.credential, self.bundle, group_ids
            ).value.value
            run.tokens[self.party_id] = token
            api.broadcast(Envelope(
                claimed_sender=self.party_id,
                session=(HARN_TAG, run_id),
                round=ROUND_TOKEN,
                payload=encode_residue_hex(token, self.bundle.params.prime),
            ))
        self._maybe_decide(run_id, api)

    def _maybe_decide(self, run_id: int, api: PartyAPI) -> None:
        run = self.runs[run_id]
        if run.decided or len(run.tokens) != len(run.group_view):
            return
        params = self.bundle.params
        tokens = [
            HarnToken(params.identifier(i),
                      FieldElement(run.tokens[i], params.prime))
            for i in run.group_view
        ]
        accepted, _ = harn_verify(tokens, self.bundle)
        run.decided = True
        if accepted:
            belief = BeliefState(True, members=frozenset(run.group_view))
        else:
            belief = BeliefState(False, reason=REASON_HASH_MISMATCH)
        api.decide((HARN_TAG, run_id), belief)


class XiaParty:
    """Honest participant for the masked-product scheme.

    Invitation -> commit; all commitments in -> token; all tokens in ->
    verify. The nonce source is a party-local seeded rng so channel runs
    are reproducible.

    Passing `recorded`, a map from (session, round) to the payload this
    party first broadcast genuinely, gives the replay form (module doc).
    """

    def __init__(self, party_id: int, credential: XiaCredential | None,
                 params: XiaParams, rng: random.Random | None,
                 recorded: dict | None = None):
        self.party_id = party_id
        self.credential = credential
        self.params = params
        self.rng = rng
        self.recorded = recorded
        self.sessions = {}
        self.decided = set()

    def initiate(self, group_ids, session: int, api: PartyAPI) -> None:
        api.broadcast(
            invitation_envelope(XIA_TAG, self.party_id, session, group_ids)
        )
        self._join(tuple(sorted(group_ids)), session, api)

    def decode(self, payload: str):
        """Wire value -> subgroup element, or None if malformed."""
        return self.params.decode(payload)

    def on_envelope(self, envelope: Envelope, api: PartyAPI) -> None:
        scheme, session = envelope.session
        if scheme != XIA_TAG:
            return
        if envelope.round == ROUND_INVITATION:
            parsed = parse_invitation(envelope)
            if parsed is None or session in self.sessions:
                return
            group_ids, _ = parsed
            if (self.party_id not in group_ids
                    or not self.params.all_members(group_ids)):
                return
            if not 1 <= session <= self.params.ell:
                return
            self._join(group_ids, session, api)
            return
        state = self.sessions.get(session)
        if state is None:
            return
        if envelope.round == ROUND_COMMITMENT:
            if state.phase == AWAIT_COMMITMENTS and _take(
                    self, state.received_commitments, state.group_view,
                    envelope):
                self._maybe_release_token(session, api)
        elif envelope.round == ROUND_TOKEN:
            if state.phase == AWAIT_TOKENS and _take(
                    self, state.received_tokens, state.group_view, envelope):
                self._maybe_decide(session, api)

    def _join(self, group_ids: tuple, session: int, api: PartyAPI) -> None:
        if self.recorded is not None:
            state = XiaSessionState(session=session, owner_id=self.party_id,
                                    group_view=group_ids, params=self.params)
            self.sessions[session] = state
            _take_recorded(self, state.received_commitments,
                           (XIA_TAG, session), ROUND_COMMITMENT)
        else:
            try:
                state = self.credential.start_session(
                    session, group_ids, self.params
                )
            except SessionExhausted:
                self.decided.add(session)
                api.decide(
                    (XIA_TAG, session),
                    BeliefState(False, reason=REASON_SESSION_EXHAUSTED),
                )
                return
            self.sessions[session] = state
            api.broadcast(xia_commit(state, self.rng))
        self._maybe_release_token(session, api)

    def _maybe_release_token(self, session: int, api: PartyAPI) -> None:
        state = self.sessions[session]
        if state.phase != AWAIT_COMMITMENTS:
            return
        if len(state.received_commitments) != len(state.group_view):
            return
        if len(state.group_view) < self.params.t:
            self.decided.add(session)
            api.decide(
                (XIA_TAG, session),
                BeliefState(False, reason=REASON_QUORUM),
            )
            return
        if self.recorded is not None:
            state.phase = AWAIT_TOKENS
            _take_recorded(self, state.received_tokens, (XIA_TAG, session),
                           ROUND_TOKEN)
        else:
            token = xia_compute_token(state, self.credential, self.params)
            api.broadcast(Envelope(
                claimed_sender=self.party_id,
                session=(XIA_TAG, session),
                round=ROUND_TOKEN,
                payload=encode_residue_hex(
                    token.value.value, self.params.group.p
                ),
            ))
        self._maybe_decide(session, api)

    def _maybe_decide(self, session: int, api: PartyAPI) -> None:
        state = self.sessions[session]
        if state.phase != AWAIT_TOKENS or session in self.decided:
            return
        if len(state.received_tokens) != len(state.group_view):
            return
        tokens = [
            XiaToken(self.params.identifier(i), state.received_tokens[i])
            for i in state.group_view
        ]
        belief = xia_verify(tokens, state, self.params)
        self.decided.add(session)
        api.decide((XIA_TAG, session), belief)


def _party(material, party_id: int, credential, rng, recorded=None):
    if isinstance(material, HarnPublicBundle):
        return HarnParty(party_id, credential, material, recorded)
    return XiaParty(party_id, credential, material, rng, recorded)


def register_parties(sim, material, credentials, seed) -> tuple:
    """One live honest party per credential on `sim`; `material` is the
    scheme's public bundle or params. Returns (parties, apis) by party id."""
    parties = {}
    apis = {}
    for credential in credentials:
        pid = credential.owner.value
        parties[pid] = _party(material, pid, credential,
                              derive_rng(seed, "party", pid))
        apis[pid] = sim.register(parties[pid])
    return parties, apis


def replay_party(material, party_id: int, recorded: dict):
    """The replay form of party `party_id` (module doc)."""
    return _party(material, party_id, None, None, recorded)
