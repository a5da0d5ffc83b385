"""Exception taxonomy shared by every layer of the package.

All errors raised on purpose derive from GroupAuthError so callers
(parties, the scenario runner, the CLI) can distinguish protocol-level
failures from plain bugs.
"""


class GroupAuthError(Exception):
    """Base class for every deliberate failure in this package."""


class DegenerateShareSet(GroupAuthError):
    """Interpolation points contain a duplicate evaluation position."""


class SubgroupViolation(GroupAuthError):
    """A value outside the prime-order subgroup was used as a group element."""


class InvalidThreshold(GroupAuthError):
    """Issuer parameters violate 2 <= t <= n."""


class NotAMember(GroupAuthError):
    """A credential was used for a group that does not list its owner."""


class MalformedTranscript(GroupAuthError):
    """A message set or serialized record is structurally invalid."""


class SessionExhausted(GroupAuthError):
    """A session index outside the dealer's 1..ell was asked for."""


class UnknownParty(GroupAuthError):
    """A channel operation referenced an unregistered participant."""


class SimulationDiverged(GroupAuthError):
    """The event loop exceeded its delivery budget without quiescing."""


class InsufficientObservation(GroupAuthError):
    """An attack step ran before the channel revealed enough traffic."""


class AuditFailure(GroupAuthError):
    """A transcript failed independent re-verification."""


class ConfigError(GroupAuthError):
    """A scenario configuration is invalid or inconsistent."""
