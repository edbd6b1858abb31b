"""Exception hierarchy shared across the package."""

# Groups named in an error about many groups; the rest are only counted.
MISMATCH_NAMES_SHOWN = 5


def shown_groups(groups) -> str:
    """The first MISMATCH_NAMES_SHOWN groups, then `... (N groups in all)` if
    there are more, so that the message stays one readable line at any K."""
    shown = ", ".join(repr(g) for g in groups[:MISMATCH_NAMES_SHOWN])
    if len(groups) > MISMATCH_NAMES_SHOWN:
        shown += f" ... ({len(groups)} groups in all)"
    return shown


class FairauditError(Exception):
    """Base class for all package-specific errors."""


class WeightError(FairauditError):
    """Group weights are malformed (negative mass or sum too far from 1)."""


class EmptyAfterConditioning(FairauditError):
    """Metric conditioning (e.g. keeping only label-0 rows) removed every record."""


class MissingGroup(FairauditError):
    """A group with positive weight has no samples."""

    def __init__(self, groups):
        self.groups = tuple(groups)
        super().__init__(f"no samples for positive-weight groups: {shown_groups(self.groups)}")


class InstanceTooLarge(FairauditError):
    """Exact enumeration was requested beyond its feasible size limits."""


class EstimatorUndefined(FairauditError):
    """The sampling plan can never activate the second-moment estimator term."""


class ZeroInclusionProbability(FairauditError):
    """A positive-weight group has zero probability of being observed twice."""

    def __init__(self, group):
        self.group = group
        super().__init__(f"group {group} has positive weight but zero inclusion probability")


class PlanMismatch(FairauditError):
    """Observed per-group counts are impossible under the declared sampling plan."""


class ConfigError(FairauditError):
    """An experiment or CLI configuration is inconsistent."""


class InvalidEpsilon(ConfigError):
    """Requested perturbation size pushes a conditional mean outside [0, 1]."""


class EpsilonOutOfRange(ConfigError):
    """Epsilon violates the validity range of the mixture construction."""


class NonUniformWeights(FairauditError):
    """An operation requiring uniform group weights received non-uniform ones."""


class WeightMismatch(FairauditError):
    """Two instances that must share group weights do not."""
