"""Channel attacks: observation recovers aggregates, forged closings
convince victims, and transcript-only evaluation verdicts are sound."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from groupauth import adversary
from groupauth.adversary import (
    MODE_SIMULTANEOUS,
    MODE_TWO_STAGE,
    HarnImpersonationScript,
    VictimPlan,
    XiaChannelAttack,
    attack_harn_learn_secret,
    attack_xia_stage1,
    evaluate_attack,
    run_attack,
)
from groupauth.algebra import derive_rng, fixed_base_table, group_exp
from groupauth.channel import (
    ADVERSARY_ID,
    ChannelSimulator,
    Envelope,
    ROUND_TOKEN,
)
from groupauth.errors import InsufficientObservation
from groupauth.harn2013 import SCHEME_TAG as HARN_TAG
from groupauth.harn2013 import harn_aggregate, harn_gm_init
from groupauth.parties import HarnParty, XiaParty
from groupauth.xia2019 import SCHEME_TAG as XIA_TAG
from groupauth.xia2019 import (
    XiaCredential,
    xia_aggregate,
    xia_commit,
    xia_gm_init,
)


# ---------------------------------------------------------------------------
# honest worlds used as observation material


def run_harn_honest(params, credentials, group_ids, run_id=1):
    sim = ChannelSimulator()
    apis = {}
    parties = {}
    for credential in credentials:
        pid = credential.owner.value
        party = HarnParty(pid, credential, params)
        parties[pid] = party
        apis[pid] = sim.register(party)
    initiator = min(group_ids)
    parties[initiator].initiate(group_ids, run_id, apis[initiator])
    return sim.run_until_quiescent()


def run_xia_honest(params, credentials, group_ids, session=1, seed=0):
    sim = ChannelSimulator()
    apis = {}
    parties = {}
    for credential in credentials:
        pid = credential.owner.value
        party = XiaParty(pid, credential, params,
                         derive_rng(seed, "party", pid))
        parties[pid] = party
        apis[pid] = sim.register(party)
    initiator = min(group_ids)
    parties[initiator].initiate(group_ids, session, apis[initiator])
    return sim.run_until_quiescent()


def wire(transcript):
    """Every envelope on the wire, rebuilt from its transcript record."""
    return [Envelope.from_record(r) for r in transcript.envelopes()]


@pytest.fixture(scope="module")
def harn_world():
    params, credentials, secret = harn_gm_init(6, 2, prime_bits=64,
                                               rng_seed=77)
    return params, credentials, secret


@pytest.fixture(scope="module")
def xia_world():
    params, credentials, secret = xia_gm_init(6, 3, ell=2, prime_bits=64,
                                              rng_seed=78)
    return params, credentials, secret


# ---------------------------------------------------------------------------
# pure observation ops


def test_harn_secret_recovered_from_broadcasts_alone(harn_world):
    params, credentials, secret = harn_world
    transcript = run_harn_honest(params, credentials, (1, 2, 3))
    learned = attack_harn_learn_secret(wire(transcript), 1, params)
    assert learned == secret.value


def test_harn_recovery_needs_every_token(harn_world):
    params, credentials, _ = harn_world
    transcript = run_harn_honest(params, credentials, (1, 2, 3))
    envelopes = wire(transcript)
    token_indices = [
        i for i, e in enumerate(envelopes) if e.round == ROUND_TOKEN
    ]
    partial = [e for i, e in enumerate(envelopes) if i != token_indices[-1]]
    with pytest.raises(InsufficientObservation):
        attack_harn_learn_secret(partial, 1, params)


def test_harn_recovery_needs_the_invitation(harn_world):
    params, _, _ = harn_world
    with pytest.raises(InsufficientObservation):
        attack_harn_learn_secret([], 1, params)


def harn_forge(secret, victim_token, fake_group, seed, modulus=10_007):
    """Closing tokens of a token-sum script over `modulus`, victim 4."""
    params = SimpleNamespace(modulus=modulus)
    plan = VictimPlan(victim=4, fake_group=fake_group, session=2)
    script = HarnImpersonationScript(params, 1, (1, 2, 3), [plan],
                                     MODE_SIMULTANEOUS, random.Random(seed))
    return script.closing_tokens(plan, secret, victim_token)


def test_harn_forge_two_member_group_is_forced():
    modulus = 10_007
    secret, victim_token = 1234, 777
    forged = harn_forge(secret, victim_token, fake_group=(4, 9), seed=0,
                        modulus=modulus)
    assert forged == {9: (secret - victim_token) % modulus}


@given(st.integers(0, 10_006), st.integers(0, 10_006), st.integers(2, 7),
       st.integers(0, 2**32))
def test_harn_forge_always_sums_to_secret(secret, victim_token, size, seed):
    modulus = 10_007
    fake_group = tuple(range(4, 4 + size))
    forged = harn_forge(secret, victim_token, fake_group, seed, modulus)
    assert list(forged) == sorted(fake_group)[1:]
    total = (victim_token + sum(forged.values())) % modulus
    assert total == secret


def test_xia_stage1_product_equals_session_power(xia_world):
    params, credentials, secret = xia_world
    transcript = run_xia_honest(params, credentials, (1, 2, 3), session=1)
    product = attack_xia_stage1(wire(transcript), 1, params)
    assert product == group_exp(params.generator_for(1), secret.value)


def test_group_arithmetic_returns_ints(xia_world):
    """Powers and products of subgroup members are plain ints: only the
    dealer's generators and wire values are GroupElements."""
    params, credentials, _ = xia_world
    g = params.generator_for(1)
    transcript = run_xia_honest(params, credentials, (1, 2, 3), session=1)
    results = [
        group_exp(g, 5),
        group_exp(g, 5, fixed_base_table(g)),
        params.power(1, 5),
        xia_commit(params, 1, random.Random(0))[1],
        attack_xia_stage1(wire(transcript), 1, params),
    ]
    assert [type(result) for result in results] == [int] * 5


def test_xia_stage1_needs_every_token(xia_world):
    params, credentials, _ = xia_world
    transcript = run_xia_honest(params, credentials, (1, 2, 3), session=1)
    envelopes = [
        e for e in wire(transcript)
        if not (e.round == ROUND_TOKEN and e.claimed_sender == 2)
    ]
    with pytest.raises(InsufficientObservation):
        attack_xia_stage1(envelopes, 1, params)


# ---------------------------------------------------------------------------
# the closing step both scheme bindings share


def closing_binding(scheme, harn_world, xia_world, rng):
    """(binding of `scheme`, token value for an int, the aggregate)."""
    if scheme == HARN_TAG:
        params = harn_world[0]
        script = HarnImpersonationScript(params, 1, (1, 2, 3), [],
                                         MODE_SIMULTANEOUS, rng)
        return script, lambda e: e % params.modulus, harn_aggregate
    params = xia_world[0]
    script = XiaChannelAttack(params, 1, (1, 2, 3), [], MODE_TWO_STAGE, rng)
    return (script, lambda e: group_exp(params.generator_for(1), e),
            xia_aggregate)


@pytest.mark.parametrize("scheme", [HARN_TAG, XIA_TAG])
@given(st.integers(0, 2**64), st.integers(0, 2**64), st.integers(2, 7),
       st.integers(0, 2**32))
def test_closing_tokens_aggregate_to_target(scheme, harn_world, xia_world,
                                            target, victim, size, seed):
    rng = random.Random(seed)
    script, value, aggregate = closing_binding(scheme, harn_world,
                                               xia_world, rng)
    target, victim_value = value(target), value(victim)
    plan = VictimPlan(victim=4, fake_group=range(4, 4 + size), session=1)
    state = rng.getstate()
    tokens = script.closing_tokens(plan, target, victim_value)
    assert list(tokens) == list(range(5, 4 + size))
    assert aggregate([victim_value, *tokens.values()],
                     script.modulus) == target
    if size == 2:
        # one value and no filler draw: the aggregate forces it
        assert rng.getstate() == state


# ---------------------------------------------------------------------------
# end-to-end: token-sum scheme


@pytest.fixture(scope="module")
def harn_attack(harn_world):
    params, credentials, _ = harn_world
    plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=2)
    transcript, (outcome,) = run_attack(
        HarnImpersonationScript, params, credentials,
        observed_group=(1, 2, 3), plans=[plan], seed=101,
        mode=MODE_SIMULTANEOUS,
    )
    return transcript, outcome


def test_harn_attack_victim_accepts_fabricated_group(harn_attack, harn_world):
    _, outcome = harn_attack
    _, _, secret = harn_world
    assert outcome.success
    assert outcome.victim_belief.accepted
    assert outcome.claimed == frozenset({4, 5, 6})
    assert outcome.learned_secret == secret.value


def test_harn_attack_ground_truth_is_victim_alone(harn_attack):
    _, outcome = harn_attack
    assert outcome.ground_truth == frozenset({4})


def test_harn_attack_leaves_observed_run_intact(harn_attack):
    transcript, _ = harn_attack
    honest = {
        record["party"]: record
        for record in transcript.decisions()
        if tuple(record["session"]) == (HARN_TAG, 1)
    }
    assert set(honest) == {1, 2, 3}
    assert all(record["accepted"] for record in honest.values())


def test_harn_attack_forged_traffic_targets_victim_only(harn_attack):
    transcript, _ = harn_attack
    forged = transcript.forged()
    assert forged
    assert all(record["recipients"] == [4] for record in forged)
    assert all(record["true_origin"] == ADVERSARY_ID for record in forged)


def test_harn_attack_closing_tokens_arrive_after_victims(harn_attack):
    transcript, _ = harn_attack
    victim_seq = min(
        record["seq"] for record in transcript.envelopes()
        if tuple(record["session"]) == (HARN_TAG, 2)
        and record["round"] == ROUND_TOKEN
        and record["true_origin"] == 4
    )
    forged_token_seqs = [
        record["seq"] for record in transcript.envelopes()
        if tuple(record["session"]) == (HARN_TAG, 2)
        and record["round"] == ROUND_TOKEN
        and record["true_origin"] == ADVERSARY_ID
    ]
    assert forged_token_seqs
    assert min(forged_token_seqs) > victim_seq


# ---------------------------------------------------------------------------
# end-to-end: masked-product scheme


@pytest.fixture(scope="module")
def xia_attack(xia_world):
    params, credentials, _ = xia_world
    plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=1)
    transcript, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=(1, 2, 3), plans=[plan],
        seed=202, observed_session=1, mode=MODE_TWO_STAGE,
    )
    return transcript, outcomes[0]


def test_xia_attack_victim_accepts_fabricated_group(xia_attack, xia_world):
    _, outcome = xia_attack
    params, _, secret = xia_world
    assert outcome.success
    assert outcome.victim_belief.accepted
    assert outcome.claimed == frozenset({4, 5, 6})
    assert outcome.learned_secret == group_exp(params.generator_for(1),
                                               secret.value)


def test_xia_attack_ground_truth_is_victim_alone(xia_attack):
    _, outcome = xia_attack
    assert outcome.ground_truth == frozenset({4})


def test_xia_attack_script_never_holds_a_credential(xia_world):
    params, _, _ = xia_world
    script = XiaChannelAttack(
        material=params, observed_session=1, observed_group=(1, 2, 3),
        plans=[VictimPlan(victim=4, fake_group=(4, 5, 6), session=1)],
        mode=MODE_TWO_STAGE, rng=random.Random(0),
    )
    assert not any(
        isinstance(value, XiaCredential) for value in vars(script).values()
    )
    import inspect

    parameters = inspect.signature(XiaChannelAttack.__init__).parameters
    assert not any("credential" in name or "share" in name
                   for name in parameters)


def test_xia_attack_two_stage_orders_stages(xia_attack):
    transcript, _ = xia_attack
    honest_token_seqs = [
        record["seq"] for record in transcript.envelopes()
        if tuple(record["session"]) == (XIA_TAG, 1)
        and record["round"] == ROUND_TOKEN
        and record["true_origin"] in (1, 2, 3)
    ]
    fake_invitation_seqs = [
        record["seq"] for record in transcript.envelopes()
        if record["round"] == "invitation"
        and record["true_origin"] == ADVERSARY_ID
    ]
    assert fake_invitation_seqs
    assert min(fake_invitation_seqs) > max(honest_token_seqs)


def test_xia_attack_simultaneous_interleaves_and_succeeds(xia_world):
    params, credentials, _ = xia_world
    plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=1)
    _, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=(1, 2, 3), plans=[plan],
        seed=303, observed_session=1, mode=MODE_SIMULTANEOUS,
    )
    assert outcomes[0].success
    assert outcomes[0].claimed == frozenset({4, 5, 6})


def test_xia_attack_simultaneous_invites_before_observation_completes(
        xia_world):
    params, credentials, _ = xia_world
    plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=1)
    transcript, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=(1, 2, 3), plans=[plan],
        seed=303, observed_session=1, mode=MODE_SIMULTANEOUS,
    )
    assert outcomes[0].success
    honest_token_seqs = [
        record["seq"] for record in transcript.envelopes()
        if record["round"] == ROUND_TOKEN
        and record["true_origin"] in (1, 2, 3)
    ]
    fake_invitation_seqs = [
        record["seq"] for record in transcript.envelopes()
        if record["round"] == "invitation"
        and record["true_origin"] == ADVERSARY_ID
    ]
    assert min(fake_invitation_seqs) < min(honest_token_seqs)


def test_xia_attack_replayed_token_reappears_verbatim(xia_world):
    params, credentials, _ = xia_world
    plan = VictimPlan(victim=4, fake_group=(3, 4, 5), session=1,
                      replay_member=3)
    transcript, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=(1, 2, 3), plans=[plan],
        seed=404, observed_session=1, mode=MODE_TWO_STAGE,
    )
    assert outcomes[0].success
    genuine = [
        record["payload_hex"] for record in transcript.envelopes()
        if record["round"] == ROUND_TOKEN and record["true_origin"] == 3
    ]
    forged = [
        record["payload_hex"] for record in transcript.envelopes()
        if record["round"] == ROUND_TOKEN
        and record["claimed_sender"] == 3
        and record["true_origin"] == ADVERSARY_ID
    ]
    assert len(genuine) == 1 and len(forged) == 1
    assert genuine[0] == forged[0]


@pytest.mark.parametrize("fake_group, replay_member", [
    # the victim's own token is folded in already, so replaying it
    # closes the aggregate on a token no one injects
    ((4, 5, 6), 4),
    # a replayed token outside the group enters the product but never
    # reaches the victim
    ((4, 6), 5),
    # nothing left to close the aggregate
    ((4, 5), 5),
], ids=["victim", "outside-the-group", "no-closing-member"])
def test_plan_rejects_an_unusable_replay_member(fake_group, replay_member):
    with pytest.raises(ValueError, match="replay member"):
        VictimPlan(victim=4, fake_group=fake_group, session=1,
                   replay_member=replay_member)


def test_attack_rejects_an_unobserved_replay_member(monkeypatch):
    """A replay member outside the observed group has no token to reuse,
    so the attack refuses the plan before the world starts."""
    params, credentials, _ = xia_gm_init(6, 3, ell=2, prime_bits=64,
                                         rng_seed=78)
    plan = VictimPlan(4, (4, 5, 6), 1, replay_member=5)
    monkeypatch.setattr(adversary, "run_world", None)  # no envelope is sent
    with pytest.raises(ValueError, match="replay member 5 is not observed"):
        run_attack(XiaChannelAttack, params, credentials,
                   observed_group=(1, 2, 3), plans=[plan], seed=78)


def test_xia_attack_fails_across_session_indices(xia_world):
    params, credentials, _ = xia_world
    plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=2)
    transcript, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=(1, 2, 3), plans=[plan],
        seed=505, observed_session=1, mode=MODE_TWO_STAGE,
    )
    outcome = outcomes[0]
    assert not outcome.success
    assert not outcome.victim_belief.accepted
    assert outcome.victim_belief.reason == "hash-mismatch"
    injected_tokens = [
        record for record in transcript.envelopes()
        if tuple(record["session"]) == (XIA_TAG, 2)
        and record["round"] == ROUND_TOKEN
        and record["true_origin"] == ADVERSARY_ID
    ]
    assert injected_tokens  # the forgery ran; the digest check caught it


# ---------------------------------------------------------------------------
# two victims, mutually inconsistent beliefs


def test_xia_two_victims_accept_conflicting_groups():
    params, credentials, _ = xia_gm_init(8, 2, ell=1, prime_bits=64,
                                         rng_seed=79)
    plans = [
        VictimPlan(victim=4, fake_group=(4, 6, 7), session=1),
        VictimPlan(victim=5, fake_group=(5, 6, 8), session=1),
    ]
    transcript, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=(1, 2), plans=plans,
        seed=707, observed_session=1, mode=MODE_SIMULTANEOUS,
    )
    beliefs = {o.victim: o for o in outcomes}
    assert beliefs[4].success and beliefs[5].success
    assert beliefs[4].claimed == frozenset({4, 6, 7})
    assert beliefs[5].claimed == frozenset({5, 6, 8})
    # each victim believes in a run the other is certain it was not in
    assert 5 not in beliefs[4].claimed and 4 not in beliefs[5].claimed
    assert beliefs[4].ground_truth == frozenset({4})
    assert beliefs[5].ground_truth == frozenset({5})


# ---------------------------------------------------------------------------
# evaluation soundness: honest runs never count as successful attacks


def test_evaluation_rejects_honest_harn_run_as_attack(harn_world):
    params, credentials, _ = harn_world
    transcript = run_harn_honest(params, credentials, (1, 2, 3))
    outcome = evaluate_attack(
        transcript.envelopes(), transcript.decisions(), HARN_TAG, victim=1,
        fake_session=1, observed_session=1, observed_group=(1, 2, 3),
        params=params,
    )
    assert outcome.victim_belief.accepted
    assert not outcome.success
    assert outcome.claimed <= outcome.ground_truth


def test_evaluation_rejects_honest_xia_run_as_attack(xia_world):
    params, credentials, _ = xia_world
    transcript = run_xia_honest(params, credentials, (1, 2, 3), session=1)
    outcome = evaluate_attack(
        transcript.envelopes(), transcript.decisions(), XIA_TAG, victim=2,
        fake_session=1, observed_session=1, observed_group=(1, 2, 3),
        params=params,
    )
    assert outcome.victim_belief.accepted
    assert not outcome.success


@pytest.mark.parametrize("scheme", [HARN_TAG, XIA_TAG])
def test_recompute_aggregate_ignores_forged_traffic(scheme, harn_attack,
                                                    harn_world, xia_attack,
                                                    xia_world):
    if scheme == HARN_TAG:
        (transcript, _), (params, _, secret) = harn_attack, harn_world
        fake_session = 2
        observed = secret.value  # the sum of an accepted run is s
    else:
        (transcript, _), (params, _, secret) = xia_attack, xia_world
        fake_session = 1
        observed = group_exp(params.generator_for(1), secret.value)

    def learned(session, group):
        return evaluate_attack(
            transcript.envelopes(), transcript.decisions(), scheme, victim=4,
            fake_session=fake_session, observed_session=session,
            observed_group=group, params=params,
        ).learned_secret

    # the fake session saw only one genuine token (the victim's); the
    # forged ones of 5 and 6 do not count, so it is incomplete
    assert learned(fake_session, (4, 5, 6)) is None
    assert learned(1, (1, 2, 3)) == observed


# ---------------------------------------------------------------------------
# stage one runs once, on the tap that completes the observed tokens


@pytest.mark.parametrize("scheme", [HARN_TAG, XIA_TAG])
def test_stage_one_recovery_runs_once(scheme, harn_world, xia_world,
                                      monkeypatch):
    name = ("attack_harn_learn_secret" if scheme == HARN_TAG
            else "attack_xia_stage1")
    original = getattr(adversary, name)
    calls = []

    def counted(envelopes, *args):
        calls.append(len(envelopes))
        return original(envelopes, *args)

    monkeypatch.setattr(adversary, name, counted)
    if scheme == HARN_TAG:
        params, credentials, _ = harn_world
        plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=2)
        transcript, (outcome,) = run_attack(
            HarnImpersonationScript, params, credentials,
            observed_group=(1, 2, 3), plans=[plan], seed=101,
            mode=MODE_SIMULTANEOUS,
        )
    else:
        params, credentials, _ = xia_world
        plan = VictimPlan(victim=4, fake_group=(4, 5, 6), session=1)
        transcript, outcomes = run_attack(
            XiaChannelAttack, params, credentials,
            observed_group=(1, 2, 3),
            plans=[plan], seed=202, observed_session=1,
        )
        outcome = outcomes[0]
    assert outcome.success
    # one call, on the tap of the last observed token; the tap sees
    # broadcasts only, not the adversary's own injections
    last_token = max(
        r["seq"] for r in transcript.envelopes()
        if r["session"] == [scheme, 1] and r["round"] == ROUND_TOKEN
        and r["claimed_sender"] in (1, 2, 3)
    )
    tapped = [
        r for r in transcript.envelopes()
        if r["true_origin"] != ADVERSARY_ID and r["seq"] <= last_token
    ]
    assert calls == [len(tapped)]
