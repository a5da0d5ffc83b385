"""Adversary-controlled broadcast channel with deterministic delivery.

The simulator is a single-threaded event queue. Honest parties broadcast
envelopes; a registered adversary may tap every send, block configured
links, and inject envelopes with any claimed sender to any recipient set.
Messages carry no transport authentication, so a forged envelope is
indistinguishable from a genuine one at the receiving party.

Delivery is asynchronous in the adversary's favour: taps fire at send
time, and reactions enqueue after everything already pending, so the
adversary can always speak last within a round. Every send and every
decision is appended to a JSONL-serialisable transcript that records both
the claimed sender and the true origin.
"""

import json
import weakref
from collections import deque
from dataclasses import dataclass, field, replace

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
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return blob.encode("utf-8").hex()


def decode_json_hex(text: str):
    """Inverse of encode_json_hex; the hex layer must be lowercase and
    unspaced, as encode_json_hex writes it."""
    if not _is_lower_hex(text):
        raise MalformedTranscript("bad structured payload")
    try:
        return json.loads(bytes.fromhex(text).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedTranscript("bad structured payload") from exc


# ---------------------------------------------------------------------------
# messages, beliefs, policy


@dataclass(frozen=True)
class Envelope:
    """One broadcast message as seen on the wire.

    claimed_sender is just a field: nothing binds it to whoever handed
    the envelope to the channel. session is (scheme tag, session id).
    seq is stamped by the channel when the envelope is accepted.
    """

    claimed_sender: int
    session: tuple
    round: str
    payload: str
    seq: int | None = None

    def with_seq(self, seq: int) -> "Envelope":
        return replace(self, seq=seq)


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

    def blocks(self, sender: int, recipient: int) -> bool:
        return (
            (sender, recipient) in self.blocked_links
            or (WILDCARD, recipient) in self.blocked_links
        )


# ---------------------------------------------------------------------------
# transcript


def _is_int(value) -> bool:
    return type(value) is int


def _is_str(value) -> bool:
    return type(value) is str


def _is_ids(value) -> bool:
    return type(value) is list and all(_is_int(i) for i in value)


def _is_session(value) -> bool:
    return (type(value) is list and len(value) == 2
            and _is_str(value[0]) and _is_int(value[1]))


# key -> type check for each transcript record type
RECORD_SCHEMA = {
    "envelope": {
        "type": _is_str, "seq": _is_int, "claimed_sender": _is_int,
        "true_origin": _is_int, "session": _is_session, "round": _is_str,
        "payload_hex": _is_str, "recipients": _is_ids,
    },
    "decision": {
        "type": _is_str, "seq": _is_int, "party": _is_int,
        "session": _is_session,
        "accepted": lambda value: type(value) is bool,
        "members": lambda value: value is None or _is_ids(value),
        "reason": lambda value: value is None or _is_str(value),
    },
}


@dataclass
class Transcript:
    """Append-only log of channel activity plus party decisions."""

    records: list = field(default_factory=list)

    def append_envelope(self, envelope: Envelope, true_origin: int,
                        recipients: list) -> None:
        self.records.append({
            "type": "envelope",
            "seq": envelope.seq,
            "claimed_sender": envelope.claimed_sender,
            "true_origin": true_origin,
            "session": list(envelope.session),
            "round": envelope.round,
            "payload_hex": envelope.payload,
            "recipients": sorted(recipients),
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

    def envelope_objects(self) -> list:
        """Rebuild Envelope values (origin information dropped)."""
        return [
            Envelope(
                claimed_sender=r["claimed_sender"],
                session=tuple(r["session"]),
                round=r["round"],
                payload=r["payload_hex"],
                seq=r["seq"],
            )
            for r in self.envelopes()
        ]

    def forged(self) -> list:
        return [
            r for r in self.envelopes()
            if r["claimed_sender"] != r["true_origin"]
        ]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.records
        )

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
                    raise MalformedTranscript(
                        "truncated transcript at line %d" % line_no
                    )
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, ValueError, RecursionError) as exc:
                    raise MalformedTranscript(
                        "unparseable transcript line %d" % line_no
                    ) from exc
                kind = record.get("type") if isinstance(record, dict) else None
                if kind not in ("envelope", "decision"):
                    raise MalformedTranscript(
                        "unknown record type at line %d" % line_no
                    )
                schema = RECORD_SCHEMA[kind]
                if set(record) != set(schema) or not all(
                        check(record[key]) for key, check in schema.items()):
                    raise MalformedTranscript(
                        "malformed %s record at line %d" % (kind, line_no)
                    )
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
        self.adversary_id = ADVERSARY_ID

    def inject(self, envelope: Envelope, recipients) -> None:
        self._simulator.inject(envelope, recipients)


class DeliverySchedule:
    """Pending deliveries in first-in, first-out order.

    broadcast and inject stamp an envelope and push its fan-out before the
    tap can react, so pushes arrive in seq order and FIFO delivers by
    (seq, fan-out position).
    """

    def __init__(self):
        self._pending = deque()

    def push_fanout(self, envelope: Envelope, recipients: list) -> None:
        self._pending.extend((envelope, recipient) for recipient in recipients)

    def pop(self) -> tuple:
        """Next (envelope, recipient) pair."""
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
        api = PartyAPI(self, pid)
        self._apis[pid] = api
        return api

    def register_adversary(self, script) -> AdversaryAPI:
        self._adversary = script
        self._adversary_api = AdversaryAPI(self)
        return self._adversary_api

    @property
    def party_ids(self) -> list:
        return sorted(self._parties)

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
        stamped = envelope.with_seq(self._next_seq())
        recipients = [
            pid for pid in self.party_ids
            if pid != sender and not self.policy.blocks(sender, pid)
        ]
        self.transcript.append_envelope(stamped, sender, recipients)
        self.schedule.push_fanout(stamped, recipients)
        if self._adversary is not None:
            self._adversary.on_tap(stamped, self._adversary_api)

    def inject(self, envelope: Envelope, recipients) -> None:
        """Adversary-only: deliver to an exact recipient set, unblocked."""
        if self._adversary is None:
            raise UnknownParty("no adversary registered on this channel")
        recipients = list(recipients)
        for pid in recipients:
            if pid not in self._parties:
                raise UnknownParty("cannot inject to unknown party %r" % pid)
        stamped = envelope.with_seq(self._next_seq())
        self.transcript.append_envelope(stamped, ADVERSARY_ID, recipients)
        self.schedule.push_fanout(stamped, recipients)

    def record_decision(self, party_id: int, session: tuple,
                        belief: BeliefState) -> None:
        self.transcript.append_decision(
            self._next_seq(), party_id, session, belief
        )

    def run_until_quiescent(self) -> Transcript:
        """Deliver queued envelopes until nothing is pending."""
        delivered = 0
        while len(self.schedule):
            if delivered >= self.max_events:
                raise SimulationDiverged(
                    "delivery budget of %d exhausted" % self.max_events
                )
            envelope, recipient = self.schedule.pop()
            party = self._parties.get(recipient)
            if party is None:
                continue
            party.on_envelope(envelope, self._apis[recipient])
            delivered += 1
        return self.transcript
