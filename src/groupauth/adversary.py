"""Channel attacks against both schemes.

Both schemes verify only an aggregate (a sum, respectively a product) of
broadcast tokens against a value the adversary can observe, so a channel
owner can make any victim accept any fabricated group:

  token-sum scheme: watch one honest run complete among other members;
  the broadcast tokens sum to the one-time secret s. Invite the victim
  into a fabricated group, block everyone else, wait for the victim's own
  token c, then inject forged tokens summing to s - c.

  masked-product scheme: watch one honest session sigma; the token
  product equals (g_sigma)^s without any secret knowledge. Invite the
  victim into a fabricated group for the same sigma, inject commitments
  (g_sigma)^{u_j} for made-up nonces, wait for the victim's token c, then
  inject random subgroup elements and one closing token so the product
  hits the observed power. The script never touches a credential.

Attack success is decided by evaluate_attack, which looks only at the
transcript: the scripts report nothing about themselves.
"""

import random
from dataclasses import dataclass

from .algebra import (
    CyclicGroupSpec,
    FieldElement,
    GroupElement,
    derive_rng,
    group_exp,
    group_product,
)
from .channel import (
    AdversaryAPI,
    AdversaryPolicy,
    BeliefState,
    ChannelSimulator,
    Envelope,
    ROUND_COMMITMENT,
    ROUND_INVITATION,
    ROUND_TOKEN,
    Transcript,
    WILDCARD,
    decode_residue_hex,
    encode_residue_hex,
)
from .errors import InsufficientObservation
from .harn2013 import SCHEME_TAG as HARN_TAG
from .harn2013 import HarnPublicBundle, HarnToken, harn_aggregate
from .parties import invitation_envelope, parse_invitation, register_parties
from .xia2019 import SCHEME_TAG as XIA_TAG
from .xia2019 import XiaParams, xia_aggregate

MODE_TWO_STAGE = "two-stage"
MODE_SIMULTANEOUS = "simultaneous"


# ---------------------------------------------------------------------------
# pure observation / forgery helpers


def _collect_round(envelopes, session: tuple, round_: str) -> dict:
    """First-seen payload per claimed sender for one session round."""
    seen = {}
    for envelope in envelopes:
        if envelope.session != session or envelope.round != round_:
            continue
        seen.setdefault(envelope.claimed_sender, envelope.payload)
    return seen

def _find_group(envelopes, session: tuple):
    for envelope in envelopes:
        if envelope.session == session and envelope.round == ROUND_INVITATION:
            parsed = parse_invitation(envelope)
            if parsed:
                return parsed[0]
    return None


def attack_harn_learn_secret(envelopes, run_id: int, modulus: int) -> int:
    """Recover the one-time secret from a completed run's broadcasts.

    Works for any observer, member or not: the secret is simply the sum
    of the released tokens. Raises InsufficientObservation until every
    member of the announced group has spoken.
    """
    envelopes = list(envelopes)
    session = (HARN_TAG, run_id)
    group = _find_group(envelopes, session)
    if group is None:
        raise InsufficientObservation("no invitation seen for run %d" % run_id)
    tokens = _collect_round(envelopes, session, ROUND_TOKEN)
    missing = [i for i in group if i not in tokens]
    if missing:
        raise InsufficientObservation("still waiting on tokens %s" % missing)
    return harn_aggregate(
        [decode_residue_hex(tokens[i], modulus) for i in group], modulus
    )


def attack_harn_forge(secret: int, victim_token: int, victim: int,
                      fake_group, modulus: int,
                      rng: random.Random) -> list:
    """Values for every fabricated member so the sum lands on the secret.

    All but the last member get uniform garbage; the closing member
    absorbs secret - victim_token - sum(garbage).
    """
    members = sorted(int(i) for i in fake_group if int(i) != victim)
    if not members:
        raise ValueError("the fabricated group needs members besides the victim")
    values = {}
    running = victim_token % modulus
    for member in members[:-1]:
        value = rng.randrange(modulus)
        values[member] = value
        running = (running + value) % modulus
    values[members[-1]] = (secret - running) % modulus
    return [
        HarnToken(FieldElement(member, modulus),
                  FieldElement(value, modulus))
        for member, value in sorted(values.items())
    ]


def attack_xia_stage1(envelopes, session_id: int,
                      group: CyclicGroupSpec) -> GroupElement:
    """Product of one observed session's tokens: equals (g_sigma)^s.

    Purely passive; raises InsufficientObservation until the announced
    group has fully spoken.
    """
    envelopes = list(envelopes)
    session = (XIA_TAG, session_id)
    members = _find_group(envelopes, session)
    if members is None:
        raise InsufficientObservation(
            "no invitation seen for session %d" % session_id
        )
    tokens = _collect_round(envelopes, session, ROUND_TOKEN)
    missing = [i for i in members if i not in tokens]
    if missing:
        raise InsufficientObservation("still waiting on tokens %s" % missing)
    return group.element(xia_aggregate(
        [group.element(decode_residue_hex(tokens[i], group.p)).value
         for i in members],
        group.p,
    ))


def solve_closing_token(target: GroupElement, fixed_values) -> GroupElement:
    """The unique group element completing a product to the target."""
    return target * group_product(target.group, fixed_values).inverse()


# ---------------------------------------------------------------------------
# scripted adversaries (event handlers driven by the channel tap)


class HarnImpersonationScript:
    """Impersonates a whole fabricated group toward one victim.

    Stage one is pure eavesdropping on the run among `observed_group`
    (an insider credential would observe exactly the same broadcast
    values, so the recovery path is identical either way). Stage two
    invites the victim, waits for its token, and closes the sum.
    """

    def __init__(self, bundle: HarnPublicBundle, observed_run: int,
                 observed_group, fake_run: int, fake_group, victim: int,
                 rng: random.Random):
        self.prime = bundle.params.prime
        self.observed_run = observed_run
        self.observed_group = tuple(sorted(observed_group))
        self.fake_run = fake_run
        self.fake_group = tuple(sorted(fake_group))
        self.victim = victim
        self.rng = rng
        self.secret = None
        self.victim_token = None
        self.injected = False
        self.observed = []
        self.observed_senders = set()

    def on_start(self, api: AdversaryAPI) -> None:
        inviter = min(i for i in self.fake_group if i != self.victim)
        api.inject(
            invitation_envelope(
                HARN_TAG, inviter, self.fake_run, self.fake_group
            ),
            recipients=[self.victim],
        )

    def on_tap(self, envelope: Envelope, api: AdversaryAPI) -> None:
        self.observed.append(envelope)
        if (envelope.session == (HARN_TAG, self.observed_run)
                and envelope.round == ROUND_TOKEN
                and envelope.claimed_sender in self.observed_group
                and envelope.claimed_sender not in self.observed_senders):
            self.observed_senders.add(envelope.claimed_sender)
            # the observed run's invitation names observed_group, so stage
            # one completes on the tap that completes its tokens
            if len(self.observed_senders) == len(self.observed_group):
                try:
                    self.secret = attack_harn_learn_secret(
                        self.observed, self.observed_run, self.prime
                    )
                except InsufficientObservation:
                    pass
        if (envelope.session == (HARN_TAG, self.fake_run)
                and envelope.round == ROUND_TOKEN
                and envelope.claimed_sender == self.victim
                and self.victim_token is None):
            self.victim_token = decode_residue_hex(envelope.payload, self.prime)
        self._maybe_finish(api)

    def _maybe_finish(self, api: AdversaryAPI) -> None:
        if self.injected or self.secret is None or self.victim_token is None:
            return
        self.injected = True
        forged = attack_harn_forge(
            self.secret, self.victim_token, self.victim,
            self.fake_group, self.prime, self.rng,
        )
        for token in forged:
            api.inject(
                Envelope(
                    claimed_sender=token.sender.value,
                    session=(HARN_TAG, self.fake_run),
                    round=ROUND_TOKEN,
                    payload=encode_residue_hex(token.value.value, self.prime),
                ),
                recipients=[self.victim],
            )


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


class XiaChannelAttack:
    """Impersonates fabricated groups toward one or more victims.

    Holds only public values: the group description and the per-session
    generators. No credential, no share, no session digest. Stage one
    multiplies observed tokens; stage two forges everything the victim
    expects to hear and closes the product at the observed power.

    mode "two-stage" defers the fake invitations until the observed
    session has completed; "simultaneous" interleaves both from the
    start and defers only the closing injections.
    """

    def __init__(self, group: CyclicGroupSpec, generators,
                 observed_session: int, observed_group, plans,
                 mode: str, rng: random.Random):
        if mode not in (MODE_TWO_STAGE, MODE_SIMULTANEOUS):
            raise ValueError("unknown attack mode %r" % mode)
        self.group = group
        self.generators = tuple(generators)
        self.observed_session = observed_session
        self.observed_group = tuple(sorted(observed_group))
        self.plans = list(plans)
        self.mode = mode
        self.rng = rng
        self.product = None
        self.observed = []
        self.observed_tokens = {}
        self.victim_tokens = {}
        self.invited = set()
        self.closed = set()

    def _generator_for(self, session: int) -> GroupElement:
        return self.generators[session - 1]

    def on_start(self, api: AdversaryAPI) -> None:
        if self.mode == MODE_SIMULTANEOUS:
            for plan in self.plans:
                self._open_fake_session(plan, api)

    def on_tap(self, envelope: Envelope, api: AdversaryAPI) -> None:
        self.observed.append(envelope)
        scheme, session_id = envelope.session
        if scheme != XIA_TAG:
            return
        if (session_id == self.observed_session
                and envelope.round == ROUND_TOKEN
                and envelope.claimed_sender in self.observed_group
                and envelope.claimed_sender not in self.observed_tokens):
            self.observed_tokens[envelope.claimed_sender] = (
                decode_residue_hex(envelope.payload, self.group.p)
            )
            # the observed session's invitation names observed_group, so
            # stage one completes on the tap that completes its tokens
            if len(self.observed_tokens) == len(self.observed_group):
                try:
                    self.product = attack_xia_stage1(
                        self.observed, self.observed_session, self.group
                    )
                except InsufficientObservation:
                    pass
                if self.product is not None and self.mode == MODE_TWO_STAGE:
                    for plan in self.plans:
                        self._open_fake_session(plan, api)
        for plan in self.plans:
            if (envelope.session == (XIA_TAG, plan.session)
                    and envelope.round == ROUND_TOKEN
                    and envelope.claimed_sender == plan.victim
                    and plan.victim not in self.victim_tokens):
                self.victim_tokens[plan.victim] = self.group.element(
                    decode_residue_hex(envelope.payload, self.group.p)
                )
        self._maybe_close(api)

    def _open_fake_session(self, plan: VictimPlan, api: AdversaryAPI) -> None:
        if plan.victim in self.invited:
            return
        self.invited.add(plan.victim)
        inviter = min(i for i in plan.fake_group if i != plan.victim)
        api.inject(
            invitation_envelope(
                XIA_TAG, inviter, plan.session, plan.fake_group
            ),
            recipients=[plan.victim],
        )
        generator = self._generator_for(plan.session)
        for member in plan.fake_group:
            if member == plan.victim:
                continue
            # nonce drawn like an honest member's, then never needed again
            nonce = self.rng.randrange(self.group.q)
            commitment = group_exp(generator, nonce)
            api.inject(
                Envelope(
                    claimed_sender=member,
                    session=(XIA_TAG, plan.session),
                    round=ROUND_COMMITMENT,
                    payload=encode_residue_hex(commitment.value, self.group.p),
                ),
                recipients=[plan.victim],
            )

    def _maybe_close(self, api: AdversaryAPI) -> None:
        if self.product is None:
            return
        for plan in self.plans:
            if plan.victim in self.closed:
                continue
            victim_token = self.victim_tokens.get(plan.victim)
            if victim_token is None:
                continue
            self.closed.add(plan.victim)
            self._inject_closing_tokens(plan, victim_token, api)

    def _inject_closing_tokens(self, plan: VictimPlan,
                               victim_token: GroupElement,
                               api: AdversaryAPI) -> None:
        members = [i for i in plan.fake_group if i != plan.victim]
        generator = self._generator_for(plan.session)
        values = {}
        if plan.replay_member is not None:
            observed = self.observed_tokens.get(plan.replay_member)
            if observed is None:
                raise InsufficientObservation(
                    "no observed token to replay for %d" % plan.replay_member
                )
            values[plan.replay_member] = self.group.element(observed)
        free = [i for i in members if i not in values]
        closing_member = free[-1]
        for member in free[:-1]:
            values[member] = group_exp(
                generator, self.rng.randrange(self.group.q)
            )
        values[closing_member] = solve_closing_token(
            self.product, [victim_token] + [
                values[i] for i in members if i != closing_member
            ],
        )
        for member in members:
            api.inject(
                Envelope(
                    claimed_sender=member,
                    session=(XIA_TAG, plan.session),
                    round=ROUND_TOKEN,
                    payload=encode_residue_hex(
                        values[member].value, self.group.p
                    ),
                ),
                recipients=[plan.victim],
            )


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
    aggregate = harn_aggregate if scheme == HARN_TAG else xia_aggregate
    return aggregate([tokens[i] for i in group_ids], modulus)


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


def run_harn_impersonation(bundle: HarnPublicBundle, credentials,
                           observed_group, fake_group, victim: int,
                           seed: int, observed_run: int = 1,
                           fake_run: int = 2) -> tuple:
    """Full channel attack on the token-sum scheme; returns
    (transcript, outcome)."""
    policy = AdversaryPolicy(blocked_links={(WILDCARD, victim)}, tap=True)
    sim = ChannelSimulator(policy=policy)
    parties, apis = register_parties(sim, bundle, credentials, seed)
    script = HarnImpersonationScript(
        bundle=bundle, observed_run=observed_run,
        observed_group=observed_group, fake_run=fake_run,
        fake_group=fake_group, victim=victim,
        rng=derive_rng(seed, "adversary"),
    )
    adv_api = sim.register_adversary(script)
    initiator = min(observed_group)
    parties[initiator].initiate(observed_group, observed_run, apis[initiator])
    script.on_start(adv_api)
    transcript = sim.run_until_quiescent()
    outcome = evaluate_attack(
        transcript, HARN_TAG, victim, fake_run, observed_run,
        tuple(sorted(observed_group)), bundle.params.prime,
    )
    return transcript, outcome


def run_xia_attack(params: XiaParams, credentials, observed_group,
                   plans, seed: int, observed_session: int = 1,
                   mode: str = MODE_TWO_STAGE) -> tuple:
    """Full channel attack on the masked-product scheme for one or more
    victim plans; returns (transcript, [outcome per plan])."""
    blocked = {(WILDCARD, plan.victim) for plan in plans}
    policy = AdversaryPolicy(blocked_links=blocked, tap=True)
    sim = ChannelSimulator(policy=policy)
    parties, apis = register_parties(sim, params, credentials, seed)
    script = XiaChannelAttack(
        group=params.group, generators=params.generators,
        observed_session=observed_session, observed_group=observed_group,
        plans=plans, mode=mode, rng=derive_rng(seed, "adversary"),
    )
    adv_api = sim.register_adversary(script)
    initiator = min(observed_group)
    parties[initiator].initiate(
        observed_group, observed_session, apis[initiator]
    )
    script.on_start(adv_api)
    transcript = sim.run_until_quiescent()
    outcomes = [
        evaluate_attack(
            transcript, XIA_TAG, plan.victim, plan.session,
            observed_session, tuple(sorted(observed_group)), params.group.p,
        )
        for plan in plans
    ]
    return transcript, outcomes
