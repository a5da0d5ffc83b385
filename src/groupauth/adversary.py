"""One channel attack against both schemes.

Both schemes verify only an aggregate of broadcast tokens (a sum for the
token-sum scheme, a product for the masked-product scheme) against a
value that any observer of one completed run can reconstruct. So a
channel owner who holds no credential can make any victim accept any
fabricated group. `ChannelAttack` is that attack, one tap-driven loop:

  1. stage one: on the tap that completes the tokens of the observed
     run, add them up (the token-sum secret s, respectively the power
     (g_sigma)^s of the observed session's generator);
  2. invite each victim into its fabricated group, at the start
     ("simultaneous") or once stage one is done ("two-stage"), and forge
     each fabricated member's contribution to every round before the
     token round from a random draw (the masked-product commitments);
  3. with all honest traffic to the victim blocked, capture the victim's
     own token;
  4. inject the fabricated members' tokens: an optional replayed observed
     token, random fillers and one closing value, so that the victim's
     aggregate lands on the one recovered in stage one.

Two bindings supply only their scheme's algebra: stage-one recovery,
token decode, one filler draw and the closing value, plus the session a
victim is lured into. `HarnImpersonationScript` lures its victims into a
fresh run id of the token-sum scheme. `XiaChannelAttack` lures them into
the observed session index of the masked-product scheme, whose
generator is what makes the observed power reusable. Neither holds a
credential. `run_attack` runs either one in a world.

Attack success is decided by evaluate_attack, which looks only at the
transcript: the scripts report nothing about themselves.
"""

import random
from dataclasses import dataclass

from .algebra import CyclicGroupSpec, GroupElement, derive_rng, group_exp
from .channel import (
    AdversaryAPI,
    AdversaryPolicy,
    BeliefState,
    Envelope,
    ROUND_INVITATION,
    ROUND_TOKEN,
    Transcript,
    WILDCARD,
    decode_residue_hex,
    encode_residue_hex,
)
from .errors import InsufficientObservation
from .harn2013 import SCHEME_TAG as HARN_TAG
from .harn2013 import harn_aggregate
from .parties import (
    SCHEMES,
    HarnParty,
    XiaParty,
    invitation_envelope,
    parse_invitation,
    run_world,
)
from .xia2019 import SCHEME_TAG as XIA_TAG
from .xia2019 import xia_aggregate

MODE_TWO_STAGE = "two-stage"
MODE_SIMULTANEOUS = "simultaneous"


# ---------------------------------------------------------------------------
# stage one: passive recovery of an observed aggregate


def _observed_tokens(envelopes, session: tuple, modulus: int) -> list:
    """Decoded tokens of the group that the session's first valid
    invitation announces, in member order, each sender's first token
    counting. Raises InsufficientObservation until that group has fully
    spoken."""
    group, tokens = None, {}
    for envelope in envelopes:
        if envelope.session != session:
            continue
        if envelope.round == ROUND_INVITATION and group is None:
            parsed = parse_invitation(envelope)
            if parsed:
                group = parsed[0]
        elif envelope.round == ROUND_TOKEN:
            tokens.setdefault(envelope.claimed_sender, envelope.payload)
    if group is None:
        raise InsufficientObservation("no invitation seen for %s session %d"
                                      % session)
    missing = [i for i in group if i not in tokens]
    if missing:
        raise InsufficientObservation("still waiting on tokens %s" % missing)
    return [decode_residue_hex(tokens[i], modulus) for i in group]


def attack_harn_learn_secret(envelopes, run_id: int, modulus: int) -> int:
    """Recover the one-time secret from a completed run's broadcasts.

    Works for any observer, member or not: the secret is simply the sum
    of the released tokens.
    """
    return harn_aggregate(
        _observed_tokens(envelopes, (HARN_TAG, run_id), modulus), modulus
    )


def attack_xia_stage1(envelopes, session_id: int,
                      group: CyclicGroupSpec) -> GroupElement:
    """Product of one observed session's tokens: equals (g_sigma)^s.

    Each token must lie in the subgroup (SubgroupViolation otherwise).
    """
    tokens = _observed_tokens(envelopes, (XIA_TAG, session_id), group.p)
    return group.element(xia_aggregate(
        [group.element(value).value for value in tokens], group.p
    ))


# ---------------------------------------------------------------------------
# the attack loop (an event handler driven by the channel tap)


@dataclass
class VictimPlan:
    """One fabricated group aimed at one victim."""

    victim: int
    fake_group: tuple
    session: int  # session index the victim is invited into
    replay_member: int | None = None  # reuse this member's observed token

    def __post_init__(self):
        self.fake_group = tuple(sorted(int(i) for i in self.fake_group))
        if self.victim not in self.fake_group:
            raise ValueError("plan must place the victim inside the group")
        if len(self.fake_group) < 2:
            raise ValueError("the fabricated group needs members besides "
                             "the victim")


class ChannelAttack:
    """Impersonates fabricated groups toward their victims (module doc).

    A binding sets `party`, its scheme's class (parties.SCHEMES), which
    tags every forged envelope, forges its `rounds` before the token
    round at invitation time and reads `material`, the public material.
    It sets `impersonation_mode`, the mode of a single-victim attack, and
    supplies `fake_session` (the session a victim is lured into, from the
    observed one), `_recover` (stage one), `_decode` (a wire token),
    `_draw` (one filler value) and `_complete` (the value closing an
    aggregate on the target).
    """

    party = None
    impersonation_mode = MODE_TWO_STAGE

    def __init__(self, material, observed_session: int, observed_group,
                 plans, mode: str, rng: random.Random):
        if mode not in (MODE_TWO_STAGE, MODE_SIMULTANEOUS):
            raise ValueError("unknown attack mode %r" % mode)
        self.material = material
        self.modulus = self.party.modulus_of(material)
        self.observed_session = observed_session
        self.observed_group = tuple(sorted(observed_group))
        self.plans = list(plans)
        self.mode = mode
        self.rng = rng
        self.target = None  # the aggregate recovered in stage one
        self.observed = []
        self.observed_tokens = {}  # observed member -> its token payload
        self.victim_tokens = {}
        self.invited = set()
        self.closed = set()

    def on_start(self, api: AdversaryAPI) -> None:
        if self.mode == MODE_SIMULTANEOUS:
            for plan in self.plans:
                self._invite(plan, api)

    def on_tap(self, envelope: Envelope, api: AdversaryAPI) -> None:
        self.observed.append(envelope)
        if envelope.round != ROUND_TOKEN:
            return
        scheme = self.party.scheme
        sender = envelope.claimed_sender
        if (envelope.session == (scheme, self.observed_session)
                and sender in self.observed_group
                and sender not in self.observed_tokens):
            self.observed_tokens[sender] = envelope.payload
            # the observed run's invitation names observed_group, so stage
            # one completes on the tap that completes its tokens
            if len(self.observed_tokens) == len(self.observed_group):
                try:
                    self.target = self._recover()
                except InsufficientObservation:
                    pass
                if self.target is not None and self.mode == MODE_TWO_STAGE:
                    for plan in self.plans:
                        self._invite(plan, api)
        for plan in self.plans:
            if (envelope.session == (scheme, plan.session)
                    and sender == plan.victim
                    and sender not in self.victim_tokens):
                self.victim_tokens[sender] = self._decode(envelope.payload)
        if self.target is None:
            return
        for plan in self.plans:
            victim_value = self.victim_tokens.get(plan.victim)
            if victim_value is None or plan.victim in self.closed:
                continue
            self.closed.add(plan.victim)
            tokens = self.closing_tokens(plan, self.target, victim_value)
            for member, value in tokens.items():
                self._inject(plan, member, ROUND_TOKEN, value, api)

    def _invite(self, plan: VictimPlan, api: AdversaryAPI) -> None:
        """The fake invitation, then a forged contribution of every
        fabricated member to each round before the token round."""
        if plan.victim in self.invited:
            return
        self.invited.add(plan.victim)
        members = [i for i in plan.fake_group if i != plan.victim]
        api.inject(
            invitation_envelope(self.party.scheme, members[0], plan.session,
                                plan.fake_group),
            recipients=[plan.victim],
        )
        for round_ in self.party.rounds[:-1]:
            for member in members:
                # drawn like an honest member's, then never needed again
                self._inject(plan, member, round_, self._draw(plan.session),
                             api)

    def _inject(self, plan: VictimPlan, member: int, round_: str,
                value: int, api: AdversaryAPI) -> None:
        api.inject(
            Envelope(claimed_sender=member,
                     session=(self.party.scheme, plan.session), round=round_,
                     payload=encode_residue_hex(value, self.modulus)),
            recipients=[plan.victim],
        )

    def closing_tokens(self, plan: VictimPlan, target: int,
                       victim_value: int) -> dict:
        """Token value per fabricated member other than the victim, in
        member order, which together with the victim's own `victim_value`
        aggregate to `target`.

        The replay member reuses its observed token, every other member
        but the last gets one filler draw, and the last one closes the
        aggregate.
        """
        members = [i for i in plan.fake_group if i != plan.victim]
        values = {}
        if plan.replay_member is not None:
            payload = self.observed_tokens.get(plan.replay_member)
            if payload is None:
                raise InsufficientObservation(
                    "no observed token to replay for %d" % plan.replay_member
                )
            values[plan.replay_member] = self._decode(payload)
        free = [i for i in members if i not in values]
        for member in free[:-1]:
            values[member] = self._draw(plan.session)
        values[free[-1]] = self._complete(target,
                                          [victim_value, *values.values()])
        return {member: values[member] for member in members}


class HarnImpersonationScript(ChannelAttack):
    """Token-sum binding: lures victims into a fresh run id.

    Stage one is pure eavesdropping on the run among `observed_group` (an
    insider credential would observe exactly the same broadcast values,
    so the recovery path is identical either way). A fresh run id needs
    no observed run first, so an impersonation invites at the start.
    Fillers are uniform residues, and the closing token absorbs s minus
    the rest of the sum.
    """

    party = HarnParty
    impersonation_mode = MODE_SIMULTANEOUS
    # perfbench/tracer.py wraps the on_tap in each binding's own __dict__,
    # so both bindings keep this entry until it wraps ChannelAttack's.
    on_tap = ChannelAttack.on_tap

    @staticmethod
    def fake_session(session: int) -> int:
        return session + 1

    def _recover(self) -> int:
        return attack_harn_learn_secret(self.observed, self.observed_session,
                                        self.modulus)

    def _decode(self, payload: str) -> int:
        return decode_residue_hex(payload, self.modulus)

    def _draw(self, session: int) -> int:
        return self.rng.randrange(self.modulus)

    def _complete(self, target: int, fixed) -> int:
        return (target - harn_aggregate(fixed, self.modulus)) % self.modulus


class XiaChannelAttack(ChannelAttack):
    """Masked-product binding: lures victims into the observed session
    index.

    Holds only public values: the params' group description and
    per-session generators. No credential, no share. Fillers and forged
    commitments are powers of the session's generator at fresh random
    exponents, and the closing token is the observed power divided by
    the rest of the product.

    mode "two-stage" defers the fake invitations until the observed
    session has completed; "simultaneous" interleaves both from the
    start and defers only the closing injections.
    """

    party = XiaParty
    on_tap = ChannelAttack.on_tap  # kept for the tracer, as above

    @staticmethod
    def fake_session(session: int) -> int:
        return session  # same index: that is what makes it work

    def _recover(self) -> int:
        return attack_xia_stage1(self.observed, self.observed_session,
                                 self.material.group).value

    def _decode(self, payload: str) -> int:
        return self.material.group.element(
            decode_residue_hex(payload, self.modulus)
        ).value

    def _draw(self, session: int) -> int:
        return group_exp(self.material.generators[session - 1],
                         self.rng.randrange(self.material.group.q)).value

    def _complete(self, target: int, fixed) -> int:
        product = xia_aggregate(fixed, self.modulus)
        return target * pow(product, -1, self.modulus) % self.modulus


# ---------------------------------------------------------------------------
# transcript-only outcome evaluation


@dataclass(frozen=True)
class AttackOutcome:
    """What the wire record says happened to one victim.

    ground_truth holds every party that demonstrably participated in the
    victim's session (genuine envelopes delivered to the victim, plus the
    victim itself if it spoke). success means the victim accepted a
    membership claim exceeding that ground truth.
    """

    scheme: str
    victim: int
    session: int
    claimed: frozenset | None
    ground_truth: frozenset
    victim_belief: BeliefState
    learned_secret: int | None
    success: bool

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "victim": self.victim,
            "session": self.session,
            "claimed": sorted(self.claimed) if self.claimed else None,
            "ground_truth": sorted(self.ground_truth),
            "victim_belief": self.victim_belief.to_json(),
            "learned_secret": (
                None if self.learned_secret is None
                else format(self.learned_secret, "x")
            ),
            "success": self.success,
        }


def recompute_observed_aggregate(transcript: Transcript, scheme: str,
                                 session_id: int, group_ids,
                                 modulus: int) -> int | None:
    """Sum (token-sum scheme) or product (masked-product scheme) of the
    tokens genuinely broadcast in one session; None until complete."""
    tokens = {}
    for record in transcript.envelopes():
        if (tuple(record["session"]) == (scheme, session_id)
                and record["round"] == ROUND_TOKEN
                and record["true_origin"] == record["claimed_sender"]):
            tokens.setdefault(
                record["claimed_sender"],
                decode_residue_hex(record["payload_hex"], modulus),
            )
    if any(i not in tokens for i in group_ids):
        return None
    return SCHEMES[scheme].aggregate([tokens[i] for i in group_ids], modulus)


def evaluate_attack(transcript: Transcript, scheme: str, victim: int,
                    fake_session: int, observed_session: int,
                    observed_group, modulus: int) -> AttackOutcome:
    """Judge an attack purely from the transcript.

    Recomputes what the adversary supposedly learned, reconstructs the
    victim's recorded belief, and derives ground truth from true-origin
    data; the attack scripts get no say.
    """
    belief = BeliefState(False, reason="no-decision")
    for record in transcript.decisions():
        if (record["party"] == victim
                and tuple(record["session"]) == (scheme, fake_session)):
            belief = BeliefState.from_json(record)
            break

    ground_truth = set()
    for record in transcript.envelopes():
        if tuple(record["session"]) != (scheme, fake_session):
            continue
        genuine = record["true_origin"] == record["claimed_sender"]
        if not genuine:
            continue
        if victim in record["recipients"]:
            ground_truth.add(record["claimed_sender"])
        if record["true_origin"] == victim:
            ground_truth.add(victim)

    learned = recompute_observed_aggregate(
        transcript, scheme, observed_session, observed_group, modulus
    )
    claimed = belief.members
    success = bool(
        belief.accepted and claimed and not claimed <= ground_truth
    )
    return AttackOutcome(
        scheme=scheme, victim=victim, session=fake_session,
        claimed=claimed, ground_truth=frozenset(ground_truth),
        victim_belief=belief, learned_secret=learned, success=success,
    )


# ---------------------------------------------------------------------------
# orchestrators: build the world, run it, judge it from the transcript


# each scheme's class -> its attack binding
BINDINGS = {binding.party: binding
            for binding in (HarnImpersonationScript, XiaChannelAttack)}


def run_attack(binding, material, credentials, observed_group, plans,
               seed: int, observed_session: int = 1,
               mode: str = MODE_TWO_STAGE) -> tuple:
    """Run `binding` against the world of `material`: `observed_group`
    authenticates in `observed_session`, and each victim of `plans` has
    its honest inbound traffic blocked. Returns (transcript, [outcome
    per plan])."""
    script = binding(material, observed_session, observed_group, plans,
                     mode, derive_rng(seed, "adversary"))
    transcript = run_world(
        binding.party, material, credentials, seed, script.observed_group,
        observed_session,
        AdversaryPolicy(blocked_links={
            (WILDCARD, plan.victim) for plan in script.plans
        }),
        script,
    )
    return transcript, [
        evaluate_attack(
            transcript, binding.party.scheme, plan.victim, plan.session,
            observed_session, script.observed_group, script.modulus,
        )
        for plan in script.plans
    ]
