"""Acceptance gate: one test per acceptance criterion.

Each criterion is a single test function, so `pytest -v
tests/test_acceptance.py` prints exactly one PASSED/FAILED line per
criterion. Aggregate-scheme completeness is checked exhaustively, the
channel attacks run at 100 seeded trials against 256-bit groups, and the
negative controls (tamper, quorum) run at 64-bit moduli, whose subgroup
order q >= 2^62 already exceeds the required 2^61 bound.
"""

import itertools
import random

from groupauth.adversary import (
    MODE_SIMULTANEOUS,
    MODE_TWO_STAGE,
    HarnImpersonationScript,
    VictimPlan,
    XiaChannelAttack,
    run_attack,
)
from groupauth.algebra import GroupElement, derive_rng, group_exp
from groupauth.channel import ROUND_TOKEN
from groupauth.cli import (
    SCENARIO_QUORUM,
    SCENARIO_TAMPER,
    ScenarioConfig,
    run_scenario,
    write_outputs,
)
from groupauth.harn2013 import (
    SCHEME_TAG as HARN_TAG,
    harn_aggregate,
    harn_compute_token,
    harn_gm_init,
    harn_verify,
)
from groupauth.xia2019 import (
    SCHEME_TAG as XIA_TAG,
    XiaCredential,
    xia_commit,
    xia_compute_token,
    xia_gm_init,
    xia_verify,
)

FULL_BITS = 256  # honest runs and attacks at full desk scale
FAST_BITS = 64   # negative controls; q >= 2^62 >= 2^61 as required


def xia_honest_tokens(params, credentials, member_ids, session, seed):
    """Run the scheme math directly for one session; returns
    (nonces, tokens)."""
    creds = {c.owner.value: c for c in credentials}
    nonces = {}
    commits = {}
    for i in member_ids:
        nonces[i], commits[i] = xia_commit(params, session,
                                           derive_rng(seed, "nonce", i))
    tokens = [
        xia_compute_token(creds[i], params, session, commits, nonces[i])
        for i in member_ids
    ]
    return nonces, tokens


def test_criterion_1_sum_scheme_completeness():
    """Exhaustive n <= 6: every subset of size >= t authenticates."""
    checked = 0
    for n in range(2, 7):
        for t in range(2, n + 1):
            params, credentials, secret = harn_gm_init(
                n, t, prime_bits=FULL_BITS, rng_seed=100 * n + t
            )
            by_id = {c.owner.value: c for c in credentials}
            for m in range(t, n + 1):
                for subset in itertools.combinations(range(1, n + 1), m):
                    tokens = [
                        harn_compute_token(by_id[i], params, subset)
                        for i in subset
                    ]
                    accepted = harn_verify(tokens, params)
                    recovered = harn_aggregate(tokens, params.modulus)
                    assert accepted, (n, t, subset)
                    assert recovered == secret.value
                    checked += 1
    assert checked == 201
    print("criterion 1 PASS: %d subsets verified exactly" % checked)


def test_criterion_2_product_scheme_completeness_and_telescoping():
    """Exhaustive n <= 6 subsets multiply to the session power; 500
    random nonce vectors telescope to the identity exactly."""
    checked = 0
    for n in range(2, 7):
        for t in range(2, n + 1):
            params, credentials, secret = xia_gm_init(
                n, t, ell=1, prime_bits=FULL_BITS, rng_seed=100 * n + t
            )
            power = group_exp(params.generator_for(1), secret.value)
            for m in range(t, n + 1):
                for subset in itertools.combinations(range(1, n + 1), m):
                    _, tokens = xia_honest_tokens(params, credentials,
                                                  subset, 1, seed=checked)
                    product = 1
                    for token in tokens:
                        member = GroupElement(token, params.group).value
                        product = product * member % params.group.p
                    assert product == power, (n, t, subset)
                    checked += 1
    assert checked == 201

    params, _, _ = xia_gm_init(6, 2, ell=1, prime_bits=FULL_BITS,
                               rng_seed=999)
    group = params.group
    generator = params.generator_for(1)
    rng = random.Random(2024)
    for _ in range(500):
        m = rng.randrange(2, 7)
        members = sorted(rng.sample(range(1, 7), m))
        nonces = {i: rng.randrange(1, group.q) for i in members}
        commitments = {i: group_exp(generator, u) for i, u in nonces.items()}
        telescoped = 1
        for i in members:
            mask = 1
            for j in members:
                if j < i:
                    mask = mask * commitments[j] % group.p
                elif j > i:
                    mask = mask * pow(commitments[j], -1, group.p) % group.p
            telescoped = telescoped * group_exp(GroupElement(mask, group),
                                                nonces[i]) % group.p
        assert telescoped == 1
    print("criterion 2 PASS: 201 subsets + 500 telescoping vectors exact")


HARN_SHAPES = [
    (6, 2, (1, 2, 3), 4, (4, 5, 6)),
    (6, 3, (1, 2, 3), 4, (4, 5, 6)),
    (7, 2, (1, 2, 3), 5, (5, 6, 7)),
    (8, 3, (2, 3, 8), 4, (4, 5, 6)),
]


def test_criterion_3_sum_scheme_impersonation():
    """100/100 seeded trials: victim accepts the fabricated group while
    the wire record shows its claimed peers never sent anything."""
    successes = 0
    for seed in range(100):
        n, t, observed, victim, fake = HARN_SHAPES[seed % len(HARN_SHAPES)]
        params, credentials, _ = harn_gm_init(
            n, t, prime_bits=FULL_BITS, rng_seed=1000 + seed
        )
        transcript, (outcome,) = run_attack(
            HarnImpersonationScript, params, credentials,
            observed_group=observed,
            plans=[VictimPlan(victim=victim, fake_group=fake, session=2)],
            seed=seed, mode=MODE_SIMULTANEOUS,
        )
        assert outcome.victim_belief.accepted
        assert outcome.claimed == frozenset(fake)
        assert outcome.success
        impersonated = set(fake) - {victim}
        assert all(
            record["true_origin"] not in impersonated
            for record in transcript.envelopes()
        ), "a claimed peer actually spoke"
        successes += 1
    assert successes == 100
    print("criterion 3 PASS: 100/100 victims accepted groups that never "
          "ran")


XIA_SHAPES = [
    (6, 3, (1, 2, 3), 4, (4, 5, 6)),
    (6, 2, (1, 2, 3), 4, (4, 5, 6)),
    (7, 2, (1, 2, 3), 5, (5, 6, 7)),
    (8, 3, (2, 3, 8), 4, (4, 5, 6)),
]


def run_xia_trial(seed, mode):
    n, t, observed, victim, fake = XIA_SHAPES[seed % len(XIA_SHAPES)]
    params, credentials, secret = xia_gm_init(
        n, t, ell=1, prime_bits=FULL_BITS, rng_seed=2000 + seed
    )
    plan = VictimPlan(victim=victim, fake_group=fake, session=1)
    transcript, outcomes = run_attack(
        XiaChannelAttack, params, credentials,
        observed_group=observed, plans=[plan],
        seed=seed, observed_session=1, mode=mode,
    )
    return params, secret, observed, victim, fake, transcript, outcomes[0]


def test_criterion_4_product_scheme_impersonation():
    """100/100 seeded trials with a credential-less adversary; the
    closing token is solved from the intercepted product and the
    victim's own token."""
    for seed in range(100):
        params, secret, observed, victim, fake, transcript, outcome = (
            run_xia_trial(seed, MODE_TWO_STAGE)
        )
        assert outcome.success
        assert outcome.claimed == frozenset(fake)
        power = group_exp(params.generator_for(1), secret.value)
        assert outcome.learned_secret == power
        # the forged token set together with the victim's own token
        # multiplies back to the intercepted product
        victim_product = 1
        for record in transcript.envelopes():
            if record["round"] != ROUND_TOKEN:
                continue
            if victim not in record["recipients"] \
                    and record["true_origin"] != victim:
                continue
            if record["claimed_sender"] in fake:
                victim_product = (
                    victim_product
                    * int(record["payload_hex"], 16) % params.group.p
                )
        assert victim_product == power
    script = XiaChannelAttack(
        material=params, observed_session=1, observed_group=observed,
        plans=[VictimPlan(victim=victim, fake_group=fake, session=1)],
        mode=MODE_TWO_STAGE, rng=random.Random(0),
    )
    assert not any(isinstance(v, XiaCredential)
                   for v in vars(script).values())
    print("criterion 4 PASS: 100/100 credential-less impersonations")


def test_criterion_5_interleaved_and_two_victim_variants():
    """Simultaneous interleaving succeeds 100/100; two victims accept
    mutually inconsistent groups disjoint from the real participants."""
    for seed in range(100):
        _, _, observed, victim, fake, _, outcome = run_xia_trial(
            seed, MODE_SIMULTANEOUS
        )
        assert outcome.success
        assert outcome.claimed == frozenset(fake)
    for seed in range(25):
        params, credentials, _ = xia_gm_init(
            8, 2, ell=1, prime_bits=FULL_BITS, rng_seed=3000 + seed
        )
        observed = (1, 2)
        plans = [
            VictimPlan(victim=4, fake_group=(4, 6, 7), session=1),
            VictimPlan(victim=5, fake_group=(5, 6, 8), session=1),
        ]
        _, outcomes = run_attack(
            XiaChannelAttack, params, credentials,
            observed_group=observed, plans=plans,
            seed=seed, observed_session=1, mode=MODE_SIMULTANEOUS,
        )
        first, second = outcomes
        assert first.success and second.success
        assert first.victim_belief.accepted
        assert second.victim_belief.accepted
        # mutually inconsistent: each victim is sure of a run the other
        # was never part of
        assert first.claimed != second.claimed
        assert second.victim not in first.claimed
        assert first.victim not in second.claimed
        # disjoint from ground truth: nobody who really authenticated
        # appears in either belief
        assert not set(first.claimed) & set(observed)
        assert not set(second.claimed) & set(observed)
    print("criterion 5 PASS: 100/100 interleaved + 25/25 two-victim "
          "trials")


def test_criterion_6_single_token_tamper_detection():
    """Perturbing one honest token causes rejection, 100/100 per scheme
    (moduli with q >= 2^62, false-accept bound below 2^-61)."""
    for scheme in (HARN_TAG, XIA_TAG):
        for trial in range(100):
            n = 4 + trial % 3
            group = tuple(range(1, n + 1))
            victim = 1 + trial % n
            target = 1 + (trial + 1 + trial // n) % n
            if target == victim:
                target = 1 + (target % n)
            config = ScenarioConfig.from_json({
                "scheme": scheme, "scenario": SCENARIO_TAMPER,
                "n": n, "t": 2, "prime_bits": FAST_BITS, "seed": trial,
                "group": list(group), "victim": victim,
                "tamper_target": target,
            })
            _, report = run_scenario(config)
            assert report["verdict"] == "expected", (scheme, trial,
                                                     report["checks"])
            by_party = {
                record["party"]: record for record in report["decisions"]
            }
            assert not by_party[victim]["accepted"]
            assert by_party[victim]["reason"] == "hash-mismatch"
            assert all(by_party[i]["accepted"]
                       for i in group if i != victim)
    print("criterion 6 PASS: 100/100 tampered tokens rejected per scheme")


def test_criterion_7_quorum_necessity():
    """Honest runs with m < t reject, 200/200 per scheme."""
    for scheme in (HARN_TAG, XIA_TAG):
        for trial in range(200):
            t = 3 + trial % 3          # thresholds 3..5
            n = t + 2
            m = 1 + trial % (t - 1)    # every deficient size 1..t-1
            group = sorted(
                random.Random(trial).sample(range(1, n + 1), m)
            )
            config = ScenarioConfig.from_json({
                "scheme": scheme, "scenario": SCENARIO_QUORUM,
                "n": n, "t": t, "prime_bits": FAST_BITS, "seed": trial,
                "group": group,
            })
            _, report = run_scenario(config)
            assert report["verdict"] == "expected", (scheme, trial)
            assert len(report["decisions"]) == len(group)
            assert all(not record["accepted"]
                       and record["reason"] == "quorum"
                       for record in report["decisions"])
    print("criterion 7 PASS: 200/200 sub-threshold runs rejected per "
          "scheme")


def test_criterion_8_transcript_byte_determinism(tmp_path):
    """Identical (config, seed) produces byte-identical transcript and
    report, one scenario per scheme."""
    configs = [
        {"scheme": HARN_TAG, "scenario": "impersonation", "n": 6, "t": 2,
         "prime_bits": FULL_BITS, "seed": 11,
         "observed_group": [1, 2, 3], "victim": 4,
         "fake_group": [4, 5, 6]},
        {"scheme": XIA_TAG, "scenario": "impersonation-two-victims",
         "n": 8, "t": 2, "ell": 1, "prime_bits": FULL_BITS, "seed": 12,
         "observed_group": [1, 2], "victim": 4, "fake_group": [4, 6, 7],
         "second_victim": 5, "second_fake_group": [5, 6, 8]},
    ]
    for raw in configs:
        paths = []
        for attempt in ("a", "b"):
            config = ScenarioConfig.from_json(dict(raw))
            transcript, report = run_scenario(config)
            out_dir = tmp_path / raw["scheme"] / attempt
            write_outputs(transcript, report, config, out_dir)
            paths.append(out_dir)
        for name in ("transcript.jsonl", "report.json", "config.json"):
            first = (paths[0] / name).read_bytes()
            second = (paths[1] / name).read_bytes()
            assert first == second, (raw["scheme"], name)
    print("criterion 8 PASS: byte-identical reruns for both schemes")