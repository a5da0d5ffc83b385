"""Shared test configuration.

Hypothesis is tuned for a fast deterministic suite: modest example counts,
no deadline (big-int arithmetic has noisy timing), and a fixed seed
derivation per test via the default database.
"""

import functools
import importlib.util
import random
from dataclasses import replace
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from groupauth import cli
from groupauth.algebra import ThresholdParams, lagrange_coefficient
from groupauth.channel import ADVERSARY_ID, ROUND_INVITATION

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# A few fixed primes for direct tests. P64/Q64 form a safe-prime pair.
SMALL_PRIME = 23
MEDIUM_PRIME = 10_007
P64 = 9_990_341_303_051_090_783
Q64 = 4_995_170_651_525_545_391

# Larger safe primes p = 2q + 1, fixed so no test has to search for one:
# random_safe_prime(bits, random.Random(bits)) for bits = 128, 256, 512.
# test_algebra.py checks P128 and P256 against the search;
# scripts/regen_vectors.py prints all three.
P128 = 247882374964466167615874452021369419059
P256 = int(
    "1097734871254844745214564749674600027660"
    "29599377207509322241302841280688943287"
)
P512 = int(
    "11728248684829795620686001974841229673672019906340030477316070021556"
    "67630768080367783896670416458080291000277660835285929779977969700692"
    "3270592636556440867"
)
SAFE_PRIMES = (P64, P128, P256, P512)

# JSON texts that each parse to the invitation of group (1, 2) to session 1
# but are not the one spelling `invitation_envelope` writes for it.
OTHER_INVITATION_SPELLINGS = (
    '{"group":["1",2.0],"session":"1"}',
    '{"group":{"1":0,"2":0},"session":1}',
    '{"group":[1,2],"session":1,"extra":0}',
    '{"group":[true,2],"session":1}',
    '{"group":[2,1],"session":1}',
    '{"group": [1, 2], "session": 1}',
)


def poly_eval(coefficients, x, modulus) -> int:
    """Single-point Horner mod `modulus`, coefficients constant term
    first: the reference for `algebra.poly_eval_points`."""
    acc = 0
    for coeff in reversed(coefficients):
        acc = (acc * x + coeff) % modulus
    return acc


def plain_numerators(targets, points, modulus) -> list:
    """prod_{x in points} (target - x) mod `modulus` for each target, by
    one `math.prod` each: the reference for the memo's numerators."""
    return [prod([target - x for x in points]) % modulus
            for target in targets]


def memo_entry(targets, points, modulus) -> tuple:
    """The group memo's entry (numerators, inverses) for `points`, in
    the order given, from `ThresholdParams._view_numerators` on a
    stand-in params that interpolates toward `targets` mod `modulus`
    with unit scales. DegenerateShareSet if a point repeats mod
    `modulus`."""
    targets = tuple(targets)
    stand_in = SimpleNamespace(
        _interpolation=(targets, (1,) * len(targets), modulus))
    return ThresholdParams._view_numerators(stand_in, tuple(points))


def lagrange_weights(targets, own, others, modulus, numerators=None) -> tuple:
    """Each target's Lagrange weight, read as the sum that
    `lagrange_coefficient` returns for that target's unit `values`
    vector, with the memo entry of the point set (own, *others): its
    numerators unless `numerators` is given, and `own`'s inverted
    denominator."""
    targets = tuple(targets)
    memo_numerators, inverses = memo_entry(targets, (own, *others), modulus)
    if numerators is None:
        numerators = memo_numerators
    units = [[int(i == j) for i in range(len(targets))]
             for j in range(len(targets))]
    return tuple(lagrange_coefficient(targets, unit, own, modulus,
                                      numerators, inverses[own])
                 for unit in units)


@functools.cache
def load_regen_vectors():
    """scripts/regen_vectors.py as a module; scripts/ is not a package,
    so it is loaded by path."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "regen_vectors.py"
    spec = importlib.util.spec_from_file_location("regen_vectors", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return random.Random(0xC0FFEE)


class RecordingAPI:
    """Stands in for PartyAPI when a test drives one party by hand: keeps
    every envelope it broadcasts and every (session, belief) it decides."""

    def __init__(self):
        self.broadcasts = []
        self.decisions = []

    def broadcast(self, envelope) -> None:
        self.broadcasts.append(envelope)

    def decide(self, session, belief) -> None:
        self.decisions.append((session, belief))

    def rounds(self) -> list:
        return [envelope.round for envelope in self.broadcasts]


def recorded_materials(monkeypatch) -> list:
    """Patch `cli.derive_material` to log each (params, credentials,
    secret) it returns, in call order: a run's first, then its audit's."""
    derive, materials = cli.derive_material, []

    def recording(config):
        materials.append(derive(config))
        return materials[-1]

    monkeypatch.setattr(cli, "derive_material", recording)
    return materials


def assert_decoded_as_cold(params, transcript) -> None:
    """Every payload an honest party of `transcript` contributed is in
    `params._decoded`, and every entry there, those stored unchecked as
    they were sent included, is what a fresh copy of the params decodes
    from its payload: an equal int of the same type and fields."""
    honest = {r["payload_hex"] for r in transcript.envelopes()
              if r["round"] != ROUND_INVITATION
              and r["true_origin"] != ADVERSARY_ID}
    assert honest <= set(params._decoded)
    cold = replace(params)
    for payload, value in params._decoded.items():
        decoded = cold.decode(payload)
        assert type(decoded) is type(value) and decoded == value
        assert getattr(decoded, "__dict__", None) == \
            getattr(value, "__dict__", None)
