"""Command-line front end: run scenarios, audit transcripts, play demos.

A scenario config is a JSON object (see ScenarioConfig). `run` simulates
it and writes transcript.jsonl / report.json / config.json into the
output directory; everything written is byte-deterministic for a fixed
(config, seed). `audit` re-derives the key material from the config and
replays every recorded decision from the wire data alone, failing on any
inconsistency. `demo` runs a named built-in config and audits its own
output.

Exit codes: 0 scenario behaved as expected / audit passed, 1 verdict or
audit failure, 2 configuration or usage problems.
"""

import argparse
import json
import sys
import weakref
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .adversary import (
    BINDINGS,
    MODE_SIMULTANEOUS,
    VictimPlan,
    attack_world,
    evaluate_attack,
)
from .channel import (
    AdversaryAPI,
    AdversaryPolicy,
    Envelope,
    REASON_HASH_MISMATCH,
    REASON_QUORUM,
    ROUND_INVITATION,
    ROUND_TOKEN,
    Transcript,
    is_forged,
)
from .errors import AuditFailure, ConfigError, GroupAuthError
from .harn2013 import SCHEME_TAG as HARN_TAG
from .parties import SCHEMES, SentInvitation, run_world
from .xia2019 import SCHEME_TAG as XIA_TAG

SCENARIO_HONEST = "honest"
SCENARIO_TAMPER = "tamper"
SCENARIO_QUORUM = "quorum-violation"
SCENARIO_IMPERSONATION = "impersonation"
SCENARIO_SIMULTANEOUS = "impersonation-simultaneous"
SCENARIO_TWO_VICTIMS = "impersonation-two-victims"

SCENARIOS = (
    SCENARIO_HONEST,
    SCENARIO_TAMPER,
    SCENARIO_QUORUM,
    SCENARIO_IMPERSONATION,
    SCENARIO_SIMULTANEOUS,
    SCENARIO_TWO_VICTIMS,
)
ATTACK_SCENARIOS = (
    SCENARIO_IMPERSONATION, SCENARIO_SIMULTANEOUS, SCENARIO_TWO_VICTIMS,
)
_INT_FIELDS = ("n", "t", "ell", "prime_bits", "seed", "session")
_PARTY_FIELDS = ("victim", "second_victim", "replay_member", "tamper_target")
_GROUP_FIELDS = ("group", "observed_group", "fake_group", "second_fake_group")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one simulated run."""

    scheme: str
    scenario: str
    n: int
    t: int
    ell: int = 1
    prime_bits: int = 128
    seed: int = 0
    session: int = 1
    group: tuple | None = None
    observed_group: tuple | None = None
    fake_group: tuple | None = None
    victim: int | None = None
    second_victim: int | None = None
    second_fake_group: tuple | None = None
    replay_member: int | None = None
    tamper_target: int | None = None

    def __post_init__(self):
        self._check_types()
        for name in _GROUP_FIELDS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, tuple(sorted(value)))
        self._validate()

    # -- validation ----------------------------------------------------------

    def _check_types(self) -> None:
        """Scheme and scenario are strings, every number an int (a bool is
        not) and every group a list of ints; the party fields may be absent."""
        for name in ("scheme", "scenario"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError("%s must be a string, not %r"
                                  % (name, getattr(self, name)))
        for name in _INT_FIELDS + _PARTY_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) or value is None and name in _PARTY_FIELDS):
                raise ConfigError("%s must be an integer, not %r"
                                  % (name, value))
        for name in _GROUP_FIELDS:
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (list, tuple))
                                          and all(map(_is_int, value))):
                raise ConfigError("%s must be a list of integer party ids, "
                                  "not %r" % (name, value))

    def _validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r; pick one of %s"
                              % (self.scheme, ", ".join(SCHEMES)))
        if self.scenario not in SCENARIOS:
            raise ConfigError("unknown scenario %r; pick one of %s"
                              % (self.scenario, ", ".join(SCENARIOS)))
        if self.n < 2 or not 2 <= self.t <= self.n:
            raise ConfigError("need n >= 2 and 2 <= t <= n")
        if self.ell < 1:
            raise ConfigError("need at least one session index")
        if self.prime_bits < 16:
            raise ConfigError("prime_bits below 16 is not supported")
        if self.prime_bits < self.n.bit_length() + 2:  # ids below q and p
            raise ConfigError("n = %d needs prime_bits >= %d"
                              % (self.n, self.n.bit_length() + 2))
        if self.session < 1:
            raise ConfigError("session indices start at 1")
        indexed = SCHEMES[self.scheme].per_session_generators
        if indexed and self.session > self.ell:
            raise ConfigError("session %d exceeds the %d issued session "
                              "indices" % (self.session, self.ell))
        if not indexed and self.scenario in (
                SCENARIO_SIMULTANEOUS, SCENARIO_TWO_VICTIMS):
            raise ConfigError(
                "scenario %r needs per-session generators and is specific "
                "to the masked-product scheme" % self.scenario
            )
        if self.scenario in ATTACK_SCENARIOS:
            self._validate_attack()
        else:
            self._validate_plain()

    def _validate_plain(self) -> None:
        for name in ("observed_group", "fake_group", "second_victim",
                     "second_fake_group", "replay_member"):
            if getattr(self, name) is not None:
                raise ConfigError("%s only applies to attack scenarios"
                                  % name)
        if self.group is None:
            if self.scenario == SCENARIO_QUORUM:
                self.group = tuple(range(1, self.t))
            else:
                self.group = tuple(range(1, self.n + 1))
        self._check_ids("group", self.group)
        if self.scenario == SCENARIO_QUORUM:
            if len(self.group) >= self.t:
                raise ConfigError("quorum-violation group must stay below "
                                  "the threshold %d" % self.t)
        elif len(self.group) < self.t:
            raise ConfigError("group of %d cannot reach the threshold %d"
                              % (len(self.group), self.t))
        if self.scenario == SCENARIO_TAMPER:
            if self.victim is None:
                self.victim = min(self.group)
            if self.tamper_target is None:
                self.tamper_target = max(self.group)
            if self.victim not in self.group:
                raise ConfigError("tamper victim must sit in the group")
            if self.tamper_target not in self.group:
                raise ConfigError("tamper target must sit in the group")
            if self.tamper_target == self.victim:
                raise ConfigError("tamper target and victim must differ")
        elif self.tamper_target is not None or self.victim is not None:
            raise ConfigError("victim/tamper_target only apply to tamper "
                              "and attack scenarios")

    def _validate_attack(self) -> None:
        if self.group is not None:
            raise ConfigError("attack scenarios take observed_group and "
                              "fake_group, not group")
        if self.tamper_target is not None:
            raise ConfigError("tamper_target only applies to the tamper "
                              "scenario")
        if self.observed_group is None or self.fake_group is None \
                or self.victim is None:
            raise ConfigError("attack scenarios need observed_group, "
                              "fake_group and victim")
        self._check_ids("observed_group", self.observed_group)
        if len(self.observed_group) < self.t:
            raise ConfigError("observed_group cannot reach the threshold, "
                              "so there is nothing to observe")
        for name, (fake, victim) in zip(("fake_group", "second_fake_group"),
                                        self._plans_raw()):
            self._check_ids(name, fake)
            if victim not in fake:
                raise ConfigError("victim %d must appear in its fabricated "
                                  "group" % victim)
            if victim in self.observed_group:
                raise ConfigError("victim %d may not sit in the observed "
                                  "group" % victim)
            if len(fake) < self.t:
                raise ConfigError("fabricated group of %d would be rejected "
                                  "below the threshold %d"
                                  % (len(fake), self.t))
        if self.scenario == SCENARIO_TWO_VICTIMS:
            if self.second_victim is None or self.second_fake_group is None:
                raise ConfigError("two-victim runs need second_victim and "
                                  "second_fake_group")
            if self.second_victim == self.victim:
                raise ConfigError("the two victims must differ")
        elif self.second_victim is not None \
                or self.second_fake_group is not None:
            raise ConfigError("second_victim/second_fake_group only apply "
                              "to the two-victim scenario")
        if self.replay_member is not None:
            if not (SCHEMES[self.scheme].per_session_generators
                    and self.scenario in (SCENARIO_IMPERSONATION,
                                          SCENARIO_SIMULTANEOUS)):
                raise ConfigError("replay_member only applies to single-"
                                  "victim masked-product attacks")
            usable = set(self.observed_group) & (
                set(self.fake_group) - {self.victim}
            )
            if self.replay_member not in usable:
                raise ConfigError("replay_member must be an observed member "
                                  "reused inside the fabricated group")
            if len(self.fake_group) < 3:
                raise ConfigError("the fabricated group needs a member "
                                  "besides the victim and replay_member to "
                                  "close the aggregate")

    def _plans_raw(self):
        plans = [(self.fake_group, self.victim)]
        if self.scenario == SCENARIO_TWO_VICTIMS \
                and self.second_fake_group is not None \
                and self.second_victim is not None:
            plans.append((self.second_fake_group, self.second_victim))
        return plans

    def _check_ids(self, name: str, ids) -> None:
        if not ids:
            raise ConfigError("%s must not be empty" % name)
        if len(set(ids)) != len(ids):
            raise ConfigError("%s contains duplicates" % name)
        if not all(1 <= i <= self.n for i in ids):
            raise ConfigError("%s must draw from parties 1..%d"
                              % (name, self.n))

    # -- (de)serialisation ----------------------------------------------------

    @classmethod
    def from_json(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        missing = [k for k in ("scheme", "scenario", "n", "t") if k not in raw]
        if missing:
            raise ConfigError("config is missing: %s" % ", ".join(missing))
        return cls(**raw)

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def load_config(path: Path, seed=None, prime_bits=None) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ConfigError("config %s must hold a JSON object" % path)
    return config_with(raw, seed, prime_bits)


def config_with(raw: dict, seed=None, prime_bits=None) -> ScenarioConfig:
    """JSON object `raw` as a config, with `seed` and `prime_bits` in
    place of its own where given."""
    given = {"seed": seed, "prime_bits": prime_bits}
    return ScenarioConfig.from_json(
        {**raw, **{k: v for k, v in given.items() if v is not None}})


# ---------------------------------------------------------------------------
# scenario execution


class TamperScript:
    """Owns one blocked link and forwards it, corrupting the token round.

    The victim sees a token nudged off the true value by the scheme's
    `nudge`; everyone else sees the genuine broadcast.
    """

    def __init__(self, scheme, material, session: int, target: int,
                 victim: int):
        self.scheme = scheme  # the scheme's class (parties.SCHEMES)
        self.material = material
        self.session = session
        self.target = target
        self.victim = victim

    def on_start(self, api: AdversaryAPI) -> None:
        pass

    def on_tap(self, envelope: Envelope, api: AdversaryAPI) -> None:
        if (envelope.claimed_sender != self.target
                or envelope.session != (self.scheme.scheme, self.session)):
            return
        payload = envelope.payload
        if envelope.round == ROUND_TOKEN:
            value = self.material.decode(payload)
            payload = self.material.encode(
                self.scheme.nudge(self.material, self.session, value))
        api.inject(
            Envelope(claimed_sender=self.target, session=envelope.session,
                     round=envelope.round, payload=payload),
            recipients=[self.victim],
        )


# (weak reference to a config object, its values then, the material
# derived from it); see derive_material
_last_derived = None


def derive_material(config: ScenarioConfig) -> tuple:
    """(public material, credentials, secret) for the configured scheme.

    A run and its audit derive from one config object, and the dealer's
    prime search is most of an audit's cost, so the last derivation is
    kept for the object it came from and reused while that object's
    values are unchanged. The credentials are frozen and shared as they
    are; the params are copied with `dataclasses.replace`, which starts
    every memo empty (decode, invitations, numerators, xia's power
    tables, masks and verdicts), so the audit checks every value itself.
    The key is the object, not its values, so a new config derives
    afresh and the work per scenario does not depend on what ran before
    it; the memo holds one material.
    """
    global _last_derived
    if _last_derived is not None:
        ref, values, (public, credentials, secret) = _last_derived
        if ref() is config and values == config.to_json():
            return replace(public), credentials, secret
    material = SCHEMES[config.scheme].issue(config)
    _last_derived = (weakref.ref(config), config.to_json(), material)
    return material


def expected_forged_count(config: ScenarioConfig) -> int:
    """Envelopes the scenario's adversary injects under the FIFO schedule.

    The tamper script forwards the target's contribution to each round,
    plus the invitation if the target sent it. An attack sends each
    victim one invitation and one envelope per round for every other
    member of its fabricated group.
    """
    if config.scenario in (SCENARIO_HONEST, SCENARIO_QUORUM):
        return 0
    rounds = len(SCHEMES[config.scheme].rounds)
    if config.scenario == SCENARIO_TAMPER:
        return rounds + int(config.tamper_target == min(config.group))
    return sum(1 + rounds * (len(fake) - 1)
               for fake, _ in config._plans_raw())


def _judge(config: ScenarioConfig, material, envelopes, decisions) -> tuple:
    """(forged envelopes, attack outcomes, the scenario's named pass/fail
    checks) of a transcript's records: the judge of report and audit."""
    forged = [record for record in envelopes if is_forged(record)]
    outcomes = []
    if config.scenario in ATTACK_SCENARIOS:
        fake_session = BINDINGS[SCHEMES[config.scheme]].fake_session(
            config.session)
        outcomes = [
            evaluate_attack(envelopes, decisions, config.scheme, victim,
                            fake_session, config.session,
                            config.observed_group, material)
            for _, victim in config._plans_raw()
        ]
    by_key = {}  # (party, session) -> its decision records, in order
    for record in decisions:
        key = (record["party"], tuple(record["session"]))
        by_key.setdefault(key, []).append(record)
    session_key = (config.scheme, config.session)
    victims = {config.victim, config.second_victim} - {None}
    checks = {
        "forged_count_matches": len(forged) == expected_forged_count(config),
        "forged_confined_to_victims": all(
            set(record["recipients"]) <= victims for record in forged),
    }

    def only_decision(pid):
        """The party's decision in the session, or None unless it decided
        there exactly once."""
        records = by_key.get((pid, session_key), ())
        return records[0] if len(records) == 1 else None

    def accepted(pid, members: list) -> bool:
        record = only_decision(pid)
        return bool(record and record["accepted"]
                    and record["members"] == members)

    def rejected(pid, reason) -> bool:
        record = only_decision(pid)
        return bool(record and not record["accepted"]
                    and record["reason"] == reason)

    # config groups are sorted tuples, so each is compared as the list a
    # decision record holds, built once per check
    if config.scenario == SCENARIO_HONEST:
        group = list(config.group)
        checks["all_members_accept"] = all(
            accepted(pid, group) for pid in group)
        checks["no_extra_decisions"] = len(decisions) == len(config.group)
    elif config.scenario == SCENARIO_QUORUM:
        checks["all_members_reject_quorum"] = all(
            rejected(pid, REASON_QUORUM) for pid in config.group
        )
    elif config.scenario == SCENARIO_TAMPER:
        checks["victim_rejects_hash_mismatch"] = rejected(
            config.victim, REASON_HASH_MISMATCH
        )
        group = list(config.group)
        checks["others_accept"] = all(
            accepted(pid, group) for pid in group if pid != config.victim)
    else:
        observed = list(config.observed_group)
        checks["observed_run_accepted"] = all(
            accepted(pid, observed) for pid in observed)
        checks["victims_deceived"] = bool(outcomes) and all(
            outcome.success for outcome in outcomes
        )
        checks["claimed_groups_match"] = all(
            outcome.claimed == frozenset(fake)
            for outcome, (fake, _) in zip(outcomes, config._plans_raw())
        )
    return forged, outcomes, checks


def build_report(config: ScenarioConfig, material,
                 transcript: Transcript) -> dict:
    """report.json: the config and its public material, and the rest
    read off `transcript`, so the transcript on disk gives it back."""
    envelopes, decisions = transcript.envelopes(), transcript.decisions()
    forged, outcomes, checks = _judge(config, material, envelopes, decisions)
    return {
        "config": config.to_json(),
        "material": SCHEMES[config.scheme].material_facts(material),
        "counts": {
            "envelopes": len(envelopes),
            "forged": len(forged),
            "decisions": len(decisions),
        },
        "decisions": decisions,
        "outcomes": [outcome.to_json() for outcome in outcomes],
        "checks": checks,
        "verdict": "expected" if all(checks.values()) else "unexpected",
    }


def run_scenario(config: ScenarioConfig) -> tuple:
    """Simulate the configured scenario; returns (transcript, report)."""
    scheme = SCHEMES[config.scheme]
    material, credentials, _ = derive_material(config)
    if config.scenario in ATTACK_SCENARIOS:
        binding = BINDINGS[scheme]
        # replay_member is only valid with a single victim
        plans = [VictimPlan(victim, fake, binding.fake_session(config.session),
                            config.replay_member)
                 for fake, victim in config._plans_raw()]
        mode = (binding.impersonation_mode
                if config.scenario == SCENARIO_IMPERSONATION
                else MODE_SIMULTANEOUS)
        transcript = attack_world(binding, material, credentials,
                                  config.observed_group, plans, config.seed,
                                  config.session, mode)
    else:
        policy = script = None
        if config.scenario == SCENARIO_TAMPER:
            policy = AdversaryPolicy(blocked_links={(config.tamper_target,
                                                     config.victim)})
            script = TamperScript(scheme, material, config.session,
                                  config.tamper_target, config.victim)
        transcript = run_world(scheme, material, credentials, config.seed,
                               config.group, config.session, policy, script)
    return transcript, build_report(config, material, transcript)


def write_outputs(transcript: Transcript, report: dict,
                  config: ScenarioConfig, out_dir: Path) -> list:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    transcript.write_jsonl(out_dir / "transcript.jsonl")
    (out_dir / "report.json").write_text(dumps_indented(report) + "\n")
    (out_dir / "config.json").write_text(
        dumps_indented(config.to_json()) + "\n"
    )
    return ["transcript.jsonl", "report.json", "config.json"]


def dumps_indented(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, the same str, for
    str-keyed dicts, lists and JSON leaves (a non-str key raises
    TypeError), without the pure-Python encoder that any indent selects:
    strs go to json's C escaper, a list of plain ints is joined in one
    call, true, false and null are written as they are, and every other
    leaf goes to json.dumps itself."""
    chunks = []
    _lay_out(value, "\n", chunks)
    return "".join(chunks)


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _lay_out(value, newline: str, chunks: list) -> None:
    """Append `value` to `chunks`; `newline` starts a line at its depth."""
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif type(value) is int:
        chunks.append(str(value))
    elif value is None or type(value) is bool:
        chunks.append(_JSON_WORDS[value])
    elif not isinstance(value, (dict, list, tuple)) or not value:
        chunks.append(json.dumps(value))  # any other leaf, {} or []
    elif isinstance(value, dict):
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %r" % (key,))
            chunks.append(opener + encode_basestring_ascii(key) + ": ")
            _lay_out(value[key], inner, chunks)
            opener = "," + inner
        chunks.append(newline + "}")
    elif set(map(type, value)) == {int}:  # plain ints, so no bools
        inner = newline + "  "
        chunks.append("[" + inner + ("," + inner).join(map(str, value))
                      + newline + "]")
    else:
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            chunks.append(opener)
            _lay_out(item, inner, chunks)
            opener = "," + inner
        chunks.append(newline + "]")


# ---------------------------------------------------------------------------
# transcript audit: replay every decision from wire data alone


class _ReplayAPI(list):
    """Stands in for PartyAPI while the audit replays one party: the list
    of its decisions, each in the shape of a transcript decision record."""

    def decide(self, session: tuple, belief) -> None:
        record = belief.to_json()
        self.append((session, record["accepted"], record["members"],
                     record["reason"]))


def audit_transcript(transcript: Transcript,
                     config: ScenarioConfig) -> dict:
    """Recompute every recorded decision and the adversary bookkeeping.

    Each party 1..n is played by the replay form of the party class that
    ran live, in two passes over the envelope records: the first checks
    them all and collects what each genuine origin sent, the second hands
    each record, in seq order, to its recipients and then, if genuine, to
    its origin (an invitation as a `SentInvitation`). The decisions they
    reach must equal the recorded ones; the adversary bookkeeping is
    judged as the report judges it (`_judge`). Raises AuditFailure on the
    first inconsistency between the wire data and the recorded decisions,
    on a party id outside 1..n (as recipient, genuine sender or decider),
    on a seq that is not the record's 1-based position, on an envelope
    whose true origin is neither the adversary nor its claimed sender, or
    on adversary activity that does not match the configured scenario.
    """
    for position, record in enumerate(transcript.records, 1):
        if record["seq"] != position:
            raise AuditFailure("record %d carries seq %d"
                               % (position, record["seq"]))
    scheme = SCHEMES[config.scheme]
    material, _, _ = derive_material(config)
    envelopes, decisions = transcript.envelopes(), transcript.decisions()
    recorded = {pid: {} for pid in range(1, config.n + 1)}
    known = frozenset(recorded)
    deliveries = []  # (envelope, the ids of the replay parties it reaches)
    for record in envelopes:
        envelope = Envelope.from_record(record)
        recipients = record["recipients"]
        if not known.issuperset(recipients):
            raise AuditFailure("envelope %d reached unknown party %d" % (
                record["seq"], next(pid for pid in recipients
                                    if pid not in known)))
        deliveries.append((envelope, recipients))
        if is_forged(record):
            continue
        origin = record["true_origin"]
        if origin != envelope.claimed_sender:
            raise AuditFailure("envelope %d claims sender %d but came from "
                               "party %d" % (record["seq"],
                                             envelope.claimed_sender, origin))
        if origin not in recorded:
            raise AuditFailure("envelope %d sent by unknown party %d"
                               % (record["seq"], origin))
        recorded[origin].setdefault((envelope.session, envelope.round),
                                    []).append(envelope.payload)
        if envelope.round == ROUND_INVITATION:
            envelope = SentInvitation(**vars(envelope))
        deliveries.append((envelope, (origin,)))
    decided = {pid: [] for pid in recorded}
    for record in decisions:
        if record["party"] not in decided:
            raise AuditFailure("decision %d by unknown party %d"
                               % (record["seq"], record["party"]))
        decided[record["party"]].append(
            (tuple(record["session"]), record["accepted"],
             record["members"], record["reason"])
        )
    handlers = {pid: (scheme(pid, None, material, recorded=sent).on_envelope,
                      _ReplayAPI()) for pid, sent in recorded.items()}
    for envelope, pids in deliveries:
        for pid in pids:
            on_envelope, api = handlers[pid]
            on_envelope(envelope, api)
    problems = ["party %d decided %r but the wire data says %r"
                % (pid, decided[pid], replayed)
                for pid, (_, replayed) in handlers.items()
                if decided[pid] != replayed]
    forged, outcomes, judged = _judge(config, material, envelopes, decisions)
    if not judged["forged_count_matches"]:
        problems.append(
            "%d forged envelopes on the wire, scenario profile says %d"
            % (len(forged), expected_forged_count(config))
        )
    if not judged["forged_confined_to_victims"]:
        problems.append(
            "forged envelopes reached parties other than the victims")
    checks = {
        "decisions_match_wire": sum(len(replayed)
                                    for _, replayed in handlers.values()),
        "forged_count": len(forged),
    }
    if config.scenario in ATTACK_SCENARIOS:
        silent = not any(
            (set(fake) - {victim}) & outcome.ground_truth
            for (fake, victim), outcome in zip(config._plans_raw(), outcomes))
        checks["claimed_members_never_spoke_to_victim"] = silent
        if not silent:
            problems.append(
                "a party the victim was told about actually spoke to it"
            )
    if problems:
        raise AuditFailure("; ".join(problems))
    return checks


# ---------------------------------------------------------------------------
# built-in demos


DEMOS = {
    "harn-honest": {
        "description": "token-sum scheme: three of five holders "
                       "authenticate each other",
        "config": {"scheme": HARN_TAG, "scenario": SCENARIO_HONEST,
                   "n": 5, "t": 2, "group": [1, 2, 3], "seed": 7},
    },
    "harn-tamper": {
        "description": "token-sum scheme: one corrupted link makes the "
                       "victim reject while everyone else accepts",
        "config": {"scheme": HARN_TAG, "scenario": SCENARIO_TAMPER,
                   "n": 5, "t": 2, "group": [1, 2, 3],
                   "tamper_target": 3, "victim": 1, "seed": 11},
    },
    "harn-impersonation": {
        "description": "token-sum scheme: an outside observer of one run "
                       "convinces party 4 that {4,5,6} authenticated",
        "config": {"scheme": HARN_TAG, "scenario": SCENARIO_IMPERSONATION,
                   "n": 6, "t": 2, "observed_group": [1, 2, 3],
                   "victim": 4, "fake_group": [4, 5, 6], "seed": 13},
    },
    "xia-honest": {
        "description": "masked-product scheme: all five holders "
                       "authenticate in session 1 of 2",
        "config": {"scheme": XIA_TAG, "scenario": SCENARIO_HONEST,
                   "n": 5, "t": 3, "ell": 2, "seed": 17},
    },
    "xia-quorum": {
        "description": "masked-product scheme: two members below the "
                       "threshold of three give up",
        "config": {"scheme": XIA_TAG, "scenario": SCENARIO_QUORUM,
                   "n": 5, "t": 3, "ell": 1, "group": [1, 2], "seed": 19},
    },
    "xia-impersonation": {
        "description": "masked-product scheme: a credential-less channel "
                       "owner replays session 1's power at party 4",
        "config": {"scheme": XIA_TAG, "scenario": SCENARIO_IMPERSONATION,
                   "n": 6, "t": 3, "ell": 1, "observed_group": [1, 2, 3],
                   "victim": 4, "fake_group": [4, 5, 6], "seed": 23},
    },
    "xia-simultaneous": {
        "description": "masked-product scheme: the fabricated session "
                       "runs interleaved with the observed one",
        "config": {"scheme": XIA_TAG, "scenario": SCENARIO_SIMULTANEOUS,
                   "n": 6, "t": 3, "ell": 1, "observed_group": [1, 2, 3],
                   "victim": 4, "fake_group": [4, 5, 6], "seed": 29},
    },
    "xia-two-victims": {
        "description": "masked-product scheme: parties 4 and 5 are fed "
                       "contradictory groups from one observed run",
        "config": {"scheme": XIA_TAG, "scenario": SCENARIO_TWO_VICTIMS,
                   "n": 8, "t": 2, "ell": 1, "observed_group": [1, 2],
                   "victim": 4, "fake_group": [4, 6, 7],
                   "second_victim": 5, "second_fake_group": [5, 6, 8],
                   "seed": 31},
    },
}


# ---------------------------------------------------------------------------
# command implementations


def _print_report_summary(report: dict) -> None:
    config = report["config"]
    print("scenario %s/%s: %d parties, threshold %d, %d-bit modulus, seed %d"
          % (config["scheme"], config["scenario"], config["n"], config["t"],
             config["prime_bits"], config["seed"]))
    for record in report["decisions"]:
        session = record["session"]
        if record["accepted"]:
            verdict = "accepts members %s" % record["members"]
        else:
            verdict = "rejects (%s)" % record["reason"]
        print("  party %d, %s session %d: %s"
              % (record["party"], session[0], session[1], verdict))
    for outcome in report["outcomes"]:
        print("  victim %d: success=%s claimed=%s ground-truth=%s"
              % (outcome["victim"], outcome["success"], outcome["claimed"],
                 outcome["ground_truth"]))
    counts = report["counts"]
    print("envelopes: %d total, %d forged; decisions: %d"
          % (counts["envelopes"], counts["forged"], counts["decisions"]))
    for name, value in sorted(report["checks"].items()):
        print("  check %s: %s" % (name, "ok" if value else "FAILED"))
    print("verdict: %s" % report["verdict"])


def _run_and_write(config: ScenarioConfig, out_dir: Path) -> dict:
    """Simulate `config`, write its outputs under `out_dir` and print the
    report summary; returns the report. A directory that cannot be
    written is a ConfigError."""
    transcript, report = run_scenario(config)
    try:
        written = write_outputs(transcript, report, config, out_dir)
    except OSError as exc:
        raise ConfigError("cannot write outputs under %s: %s"
                          % (out_dir, exc))
    _print_report_summary(report)
    print("wrote %s under %s" % (", ".join(written), out_dir))
    return report


def _cmd_run(args) -> int:
    config = load_config(args.config, args.seed, args.prime_bits)
    out_dir = Path(args.out_dir) if args.out_dir else Path("groupauth-out")
    report = _run_and_write(config, out_dir)
    return 0 if report["verdict"] == "expected" else 1


def _cmd_audit(args) -> int:
    config = load_config(args.config, args.seed, args.prime_bits)
    try:
        transcript = Transcript.read_jsonl(Path(args.transcript))
        checks = audit_transcript(transcript, config)
    except OSError as exc:
        raise ConfigError("cannot read transcript %s: %s"
                          % (args.transcript, exc))
    except GroupAuthError as exc:
        print("audit: FAIL")
        print("  %s" % exc)
        return 1
    print("audit: %d decisions replayed from wire data, all match"
          % checks["decisions_match_wire"])
    print("audit: %d forged envelopes, matching the %s profile"
          % (checks["forged_count"], config.scenario))
    if "claimed_members_never_spoke_to_victim" in checks:
        print("audit: no impersonated party ever addressed its victim")
    print("audit: PASS")
    return 0


def _cmd_demo(args) -> int:
    if args.list or args.name is None:
        width = max(len(name) for name in DEMOS)
        for name, entry in sorted(DEMOS.items()):
            print("%-*s  %s" % (width, name, entry["description"]))
        return 0 if args.list else 2
    entry = DEMOS.get(args.name)
    if entry is None:
        print("unknown demo %r; run `groupauth demo --list`" % args.name,
              file=sys.stderr)
        return 2
    config = config_with(entry["config"], args.seed, args.prime_bits)
    print("# %s" % entry["description"])
    out_dir = (Path(args.out_dir) if args.out_dir
               else Path("groupauth-demos") / args.name)
    report = _run_and_write(config, out_dir)
    try:
        audit_transcript(
            Transcript.read_jsonl(out_dir / "transcript.jsonl"), config
        )
    except GroupAuthError as exc:
        print("audit: FAIL (%s)" % exc)
        return 1
    print("audit: PASS (every decision recomputed from the wire record)")
    return 0 if report["verdict"] == "expected" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupauth",
        description="simulate, attack and audit threshold group "
                    "authentication runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir=True):
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--prime-bits", type=int, default=None,
                       help="override the config's modulus size")
        if out_dir:
            p.add_argument("--out-dir", default=None,
                           help="directory for transcript and report")

    run_p = sub.add_parser("run", help="simulate a scenario config")
    run_p.add_argument("config", help="path to a scenario JSON file")
    common(run_p)
    run_p.set_defaults(func=_cmd_run)

    audit_p = sub.add_parser(
        "audit", help="replay a transcript's decisions from wire data"
    )
    audit_p.add_argument("transcript", help="path to a transcript.jsonl")
    audit_p.add_argument("config", help="path to the scenario JSON file")
    common(audit_p, out_dir=False)
    audit_p.set_defaults(func=_cmd_audit)

    demo_p = sub.add_parser("demo", help="run a built-in scenario")
    demo_p.add_argument("name", nargs="?", help="demo name")
    demo_p.add_argument("--list", action="store_true",
                        help="list available demos")
    common(demo_p)
    demo_p.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except GroupAuthError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
