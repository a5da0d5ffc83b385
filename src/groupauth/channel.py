"""Adversary-controlled broadcast channel with deterministic delivery.

The simulator is a single-threaded event queue. Honest parties broadcast
envelopes; a registered adversary may tap every send, block configured
links, and inject envelopes with any claimed sender to any recipient set.
Messages carry no transport authentication, so a forged envelope is
indistinguishable from a genuine one at the receiving party.

Delivery is asynchronous in the adversary's favour: taps fire at send
time, and reactions enqueue after everything already pending, so the
adversary can always speak last within a round. A send reaches its
recipients in the order its record lists them, before the next send does.
Every send and every decision is appended to a JSONL-serialisable
transcript that records both the claimed sender and the true origin.
"""

import json
import weakref
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    MalformedTranscript,
    SimulationDiverged,
    UnknownParty,
)

ROUND_INVITATION = "invitation"
ROUND_COMMITMENT = "commitment"
ROUND_TOKEN = "token"

ADVERSARY_ID = 0
WILDCARD = "*"

REASON_QUORUM = "quorum"
REASON_HASH_MISMATCH = "hash-mismatch"
REASON_SESSION_EXHAUSTED = "session-exhausted"

_HEX_DIGITS = frozenset("0123456789abcdef")
# the one canonical JSON form of payloads and transcript lines
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# json.loads's own parser without its wrappers, for lines as written
_SCAN = json.JSONDecoder().scan_once


# ---------------------------------------------------------------------------
# wire encoding helpers


def hex_width(modulus: int) -> int:
    """Fixed hex-digit width for residues mod `modulus`."""
    return (modulus.bit_length() + 3) // 4


def encode_residue_hex(value: int, modulus: int) -> str:
    """Lowercase fixed-width hex of a canonical residue."""
    if not 0 <= value < modulus:
        raise ValueError("value is not a canonical residue")
    return format(value, "0%dx" % hex_width(modulus))


def _is_lower_hex(text) -> bool:
    """Only the digits encode_residue_hex and bytes.hex write: no sign,
    prefix, underscore, whitespace, uppercase or non-ASCII digit."""
    return type(text) is str and _HEX_DIGITS.issuperset(text)


def decode_residue_hex(text: str, modulus: int) -> int:
    """Inverse of encode_residue_hex on its exact output format.

    Accepts exactly hex_width(modulus) characters from 0-9a-f and a value
    below the modulus, so every residue has one accepted spelling.
    """
    if not _is_lower_hex(text) or len(text) != hex_width(modulus):
        raise MalformedTranscript("bad residue encoding %r" % (text,))
    value = int(text, 16)
    if value >= modulus:
        raise MalformedTranscript("residue %d out of range" % value)
    return value


def encode_json_hex(obj) -> str:
    """Canonical JSON, utf-8, hex; used for structured payloads."""
    return _CANONICAL.encode(obj).encode("utf-8").hex()


def decode_json_hex(text: str):
    """Inverse of encode_json_hex; the hex layer must be lowercase and
    unspaced, as encode_json_hex writes it."""
    if not _is_lower_hex(text):
        raise MalformedTranscript("bad structured payload")
    try:
        return json.loads(bytes.fromhex(text).decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedTranscript("bad structured payload") from exc


# ---------------------------------------------------------------------------
# messages, beliefs, policy


@dataclass(frozen=True)
class Envelope:
    """One broadcast message as seen on the wire.

    claimed_sender is just a field: nothing binds it to whoever handed
    the envelope to the channel. session is (scheme tag, session id).
    The channel numbers each send in its transcript record only.
    """

    claimed_sender: int
    session: tuple
    round: str
    payload: str

    @classmethod
    def from_record(cls, record: dict) -> "Envelope":
        """The envelope of a transcript record (origin information
        dropped)."""
        return cls(record["claimed_sender"], tuple(record["session"]),
                   record["round"], record["payload_hex"])


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


def decode_invitation(text: str) -> tuple:
    """(sorted group ids, session), if a non-empty set of ids is named
    and `text` is what `invitation_envelope` writes for them, so each
    invitation has one accepted spelling."""
    body = decode_json_hex(text)
    try:
        group_ids = tuple(sorted(int(i) for i in body["group"]))
        session = int(body["session"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedTranscript("bad invitation") from exc
    if not group_ids or len(set(group_ids)) != len(group_ids):
        raise MalformedTranscript("bad invitation group")
    if text != encode_json_hex({"group": list(group_ids),
                                "session": session}):
        raise MalformedTranscript("invitation not in canonical form")
    return group_ids, session


@dataclass(frozen=True)
class BeliefState:
    """What one participant concluded from one session."""

    accepted: bool
    members: frozenset | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "members": sorted(self.members) if self.members else None,
            "reason": self.reason,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BeliefState":
        members = obj.get("members")
        return cls(
            accepted=bool(obj["accepted"]),
            members=frozenset(members) if members is not None else None,
            reason=obj.get("reason"),
        )


@dataclass
class AdversaryPolicy:
    """Static channel powers: the links that are blocked.

    blocked_links holds (sender, recipient) pairs; the sender slot may be
    the wildcard "*" to cut all honest traffic toward a recipient.
    Injected envelopes are never blocked, and a registered adversary taps
    every broadcast, blocked or not.
    """

    blocked_links: set = field(default_factory=set)

    def cut_from(self, sender: int) -> set:
        """The recipients whose link from `sender` is blocked."""
        return {recipient for source, recipient in self.blocked_links
                if source == sender or source == WILDCARD}


# ---------------------------------------------------------------------------
# transcript


def _is_ids(value) -> bool:
    return type(value) is list and {int}.issuperset(map(type, value))


def _is_session(value) -> bool:
    return (type(value) is list and len(value) == 2
            and type(value[0]) is str and type(value[1]) is int)


def _is_envelope(record: dict) -> bool:
    """The value types of an envelope record; its recipients are party
    ids in strictly increasing order, as append_envelope writes them."""
    recipients = record["recipients"]
    return (type(record["seq"]) is type(record["claimed_sender"])
            is type(record["true_origin"]) is int
            and type(record["round"]) is type(record["payload_hex"]) is str
            and _is_session(record["session"]) and _is_ids(recipients)
            and recipients == sorted(set(recipients)))


def _is_decision(record: dict) -> bool:
    members, reason = record["members"], record["reason"]
    return (type(record["seq"]) is type(record["party"]) is int
            and type(record["accepted"]) is bool
            and _is_session(record["session"])
            and (members is None or _is_ids(members))
            and (reason is None or type(reason) is str))


def is_forged(record: dict) -> bool:
    """The adversary put the envelope on the wire, whoever it names."""
    return record["true_origin"] == ADVERSARY_ID


# record type -> (its keys, the check of their values); its "type" is
# the record type, a str
RECORD_SCHEMA = {
    "envelope": (frozenset("type seq claimed_sender true_origin session "
                           "round payload_hex recipients".split()),
                 _is_envelope),
    "decision": (frozenset("type seq party session accepted members "
                           "reason".split()), _is_decision),
}


@dataclass
class Transcript:
    """Append-only log of channel activity plus party decisions."""

    records: list = field(default_factory=list)

    def append_envelope(self, seq: int, envelope: Envelope,
                        true_origin: int, recipients: tuple) -> None:
        self.records.append({
            "type": "envelope",
            "seq": seq,
            "claimed_sender": envelope.claimed_sender,
            "true_origin": true_origin,
            "session": list(envelope.session),
            "round": envelope.round,
            "payload_hex": envelope.payload,
            "recipients": list(recipients),
        })

    def append_decision(self, seq: int, party: int, session: tuple,
                        belief: BeliefState) -> None:
        entry = {"type": "decision", "seq": seq, "party": party,
                 "session": list(session)}
        entry.update(belief.to_json())
        self.records.append(entry)

    def envelopes(self) -> list:
        return [r for r in self.records if r["type"] == "envelope"]

    def decisions(self) -> list:
        return [r for r in self.records if r["type"] == "decision"]

    def forged(self) -> list:
        return [r for r in self.envelopes() if is_forged(r)]

    def to_jsonl(self) -> str:
        return "".join(_CANONICAL.encode(r) + "\n" for r in self.records)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def read_jsonl(cls, path) -> "Transcript":
        """Load a transcript, checking every record's keys and types."""
        records = []
        with open(path, "rb") as handle:
            for line_no, raw in enumerate(handle, 1):
                if not raw.endswith(b"\n"):
                    raise MalformedTranscript("truncated transcript at line "
                                              "%d" % line_no)
                try:
                    text = raw.decode("utf-8")
                    try:  # one value then the newline, or json.loads decides
                        record, end = _SCAN(text, 0)
                    except StopIteration:
                        end = None
                    if end != len(text) - 1:
                        record = json.loads(text)
                except (ValueError, RecursionError) as exc:
                    raise MalformedTranscript("unparseable transcript line "
                                              "%d" % line_no) from exc
                kind = record.get("type") if isinstance(record, dict) else None
                if kind not in ("envelope", "decision"):
                    raise MalformedTranscript("unknown record type at line "
                                              "%d" % line_no)
                keys, valid = RECORD_SCHEMA[kind]
                if record.keys() != keys or not valid(record):
                    raise MalformedTranscript("malformed %s record at line %d"
                                              % (kind, line_no))
                records.append(record)
        return cls(records=records)


# ---------------------------------------------------------------------------
# simulator


class PartyAPI:
    """Capabilities handed to one honest party; binds its true origin."""

    def __init__(self, simulator: "ChannelSimulator", party_id: int):
        # The simulator owns its APIs; a strong back reference would make
        # a cycle that keeps every dropped world alive until a GC pass.
        self._simulator = weakref.proxy(simulator)
        self.party_id = party_id

    def broadcast(self, envelope: Envelope) -> None:
        self._simulator.broadcast(self.party_id, envelope)

    def decide(self, session: tuple, belief: BeliefState) -> None:
        self._simulator.record_decision(self.party_id, session, belief)


class AdversaryAPI:
    """Capabilities handed to the adversary script."""

    def __init__(self, simulator: "ChannelSimulator"):
        self._simulator = weakref.proxy(simulator)  # as in PartyAPI

    def inject(self, envelope: Envelope, recipients) -> None:
        self._simulator.inject(envelope, recipients)


class DeliverySchedule:
    """Pending sends in first-in, first-out order, one entry per send.

    broadcast and inject record an envelope and push the recipients that
    its record lists before the tap can react, so entries arrive in seq
    order and the run loop delivers by (seq, position in `recipients`).
    """

    def __init__(self):
        self._pending = deque()

    def push_fanout(self, envelope: Envelope, recipients: tuple) -> None:
        self._pending.append((envelope, recipients))

    def pop(self) -> tuple:
        """Next (envelope, recipients) entry."""
        return self._pending.popleft()

    def __len__(self):
        return len(self._pending)


class ChannelSimulator:
    """Deterministic single-queue broadcast world."""

    def __init__(self, policy: AdversaryPolicy | None = None,
                 max_events: int = 1_000_000):
        self.policy = policy if policy is not None else AdversaryPolicy()
        self.schedule = DeliverySchedule()
        self.transcript = Transcript()
        self.max_events = max_events
        self._parties = {}
        self._apis = {}
        self._fanout = {}  # sender -> its recipients; reset by register
        self._adversary = None
        self._adversary_api = None
        self._seq = 0

    # -- registration ------------------------------------------------------

    def register(self, party) -> PartyAPI:
        pid = party.party_id
        if pid == ADVERSARY_ID:
            raise UnknownParty("party id 0 is reserved for the adversary")
        if pid in self._parties:
            raise UnknownParty("party %d registered twice" % pid)
        self._parties[pid] = party
        self._fanout.clear()
        api = PartyAPI(self, pid)
        self._apis[pid] = api
        return api

    def register_adversary(self, script) -> AdversaryAPI:
        self._adversary = script
        self._adversary_api = AdversaryAPI(self)
        return self._adversary_api

    # -- channel operations -------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def broadcast(self, sender: int, envelope: Envelope) -> None:
        """Fan an envelope out to every registered party except the sender.

        Blocked links are dropped silently; the tap sees the envelope even
        when every delivery is blocked.
        """
        if sender not in self._parties:
            raise UnknownParty("broadcast from unregistered party %r" % sender)
        recipients = self._fanout.get(sender)
        if recipients is None:
            recipients = self._fanout[sender] = tuple(sorted(
                self._parties.keys() - self.policy.cut_from(sender)
                - {sender}))
        self.transcript.append_envelope(self._next_seq(), envelope, sender,
                                        recipients)
        self.schedule.push_fanout(envelope, recipients)
        if self._adversary is not None:
            self._adversary.on_tap(envelope, self._adversary_api)

    def inject(self, envelope: Envelope, recipients) -> None:
        """Adversary-only: deliver to an exact recipient set, unblocked."""
        if self._adversary is None:
            raise UnknownParty("no adversary registered on this channel")
        recipients = list(recipients)
        if len(set(recipients)) != len(recipients):
            raise MalformedTranscript("inject names a recipient twice")
        for pid in recipients:
            if pid not in self._parties:
                raise UnknownParty("cannot inject to unknown party %r" % pid)
        recipients = tuple(sorted(recipients))
        self.transcript.append_envelope(self._next_seq(), envelope,
                                        ADVERSARY_ID, recipients)
        self.schedule.push_fanout(envelope, recipients)

    def record_decision(self, party_id: int, session: tuple,
                        belief: BeliefState) -> None:
        self.transcript.append_decision(
            self._next_seq(), party_id, session, belief
        )

    def run_until_quiescent(self) -> Transcript:
        """Deliver queued sends until none is pending; `max_events`
        caps single deliveries, not sends."""
        handlers = {pid: (party.on_envelope, self._apis[pid])
                    for pid, party in self._parties.items()}
        delivered = 0
        while len(self.schedule):
            envelope, recipients = self.schedule.pop()
            for recipient in recipients:
                if delivered >= self.max_events:
                    raise SimulationDiverged(
                        "delivery budget of %d exhausted" % self.max_events
                    )
                on_envelope, api = handlers[recipient]
                on_envelope(envelope, api)
                delivered += 1
        return self.transcript
