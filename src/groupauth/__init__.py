"""groupauth: executable models of two token-aggregation group
authentication schemes, an adversary-controlled broadcast channel, and
scripted impersonation attacks that defeat both schemes.

The schemes authenticate a whole ad-hoc group at once: each member
derives one token from a dealer-issued credential, broadcasts it, and
everyone checks a hash of the token aggregate (a field sum for the
token-sum scheme, a subgroup product for the masked-product scheme).
Because the check binds only the aggregate — a value any observer of one
completed run can reconstruct — an adversary who controls the channel
can invite a victim into a fabricated group and close the aggregate
around the victim's own contribution. The `adversary` module scripts
those attacks over the simulated channel and `cli` packages runnable,
auditable scenarios.
"""

from .adversary import (
    AttackOutcome,
    VictimPlan,
    evaluate_attack,
    run_attack,
)
from .algebra import CyclicGroupSpec, FieldElement, GroupElement, Polynomial
from .channel import (
    AdversaryPolicy,
    BeliefState,
    ChannelSimulator,
    DeliverySchedule,
    Envelope,
    Transcript,
)
from .cli import ScenarioConfig, audit_transcript, main, run_scenario
from .errors import GroupAuthError
from .harn2013 import harn_compute_token, harn_gm_init, harn_verify
from .parties import HarnParty, XiaParty
from .xia2019 import xia_commit, xia_compute_token, xia_gm_init, xia_verify

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "AdversaryPolicy",
    "BeliefState",
    "ChannelSimulator",
    "CyclicGroupSpec",
    "DeliverySchedule",
    "Envelope",
    "FieldElement",
    "GroupAuthError",
    "GroupElement",
    "HarnParty",
    "Polynomial",
    "ScenarioConfig",
    "Transcript",
    "VictimPlan",
    "XiaParty",
    "audit_transcript",
    "evaluate_attack",
    "harn_compute_token",
    "harn_gm_init",
    "harn_verify",
    "main",
    "run_attack",
    "run_scenario",
    "xia_commit",
    "xia_compute_token",
    "xia_gm_init",
    "xia_verify",
]
