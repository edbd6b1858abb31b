"""The threshold audit test, end to end.

Draw per-group counts from a sampling plan, draw losses, compute the debiased
statistic F, and decide H1 (unfair at level epsilon) iff
F >= (1 - alpha) * epsilon^2 / 2, with ties deciding H1.

The threshold sits halfway between the two composite regions: instances with
zero CVaR fairness have separation statistic D = 0, while instances with CVaR
fairness >= epsilon have D >= (1 - alpha) * epsilon^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .core import FairnessInstance, GroupCounts, GroupWeights
from .estimator import EstimatorValue, estimate_from_counts
from .metrics import CVaRMode, cvar_fairness, max_gap
from .sampling import SamplingPlan, inclusion_array

# Numeric tolerance used when classifying instances into the composite regions.
REGION_TOL = 1e-12
# An instance whose largest gap is at most this is in P0, without the CVaR fill.
# CVaR fairness is a mean of gaps, so it is at most the largest gap.  The fill
# computes it with sequential float sums of at most K products w_g * delta_g,
# choosing the taken mass by sums of at most K weights.  Each step rounds by a
# factor of at most 1 + 2**-53, so the mass taken exceeds 1 - alpha, and the
# sum of products their exact sum, by a factor of about 1 + 2K * 2**-53 each:
# together under 1.01 for any K below 2**44.  (Underflow adds at most
# K * 2**-1075 to the sum, beside 1 - alpha >= 2**-53.)  So a largest gap of
# at most REGION_TOL / 2 leaves the fill below REGION_TOL: it too gives P0.
P0_MAX_GAP = REGION_TOL / 2


class Decision(Enum):
    H0 = "H0"
    H1 = "H1"


class Region(Enum):
    P0 = "P0"
    P1 = "P1"
    NEITHER = "Neither"


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest test class despite the name

    alpha: float
    epsilon: float
    plan: SamplingPlan

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        tau = self.threshold
        if not (0.0 < tau <= 0.5):
            raise ValueError(f"threshold {tau} outside (0, 0.5]; epsilon too large?")

    @property
    def threshold(self) -> float:
        return (1.0 - self.alpha) * self.epsilon * self.epsilon / 2.0


@dataclass(frozen=True, eq=False)
class TestOutcome:
    __test__ = False  # not a pytest test class despite the name

    decision: Decision
    statistic: EstimatorValue
    threshold: float
    counts: np.ndarray  # per-group sample counts M_g


def _decide(stat: EstimatorValue, threshold: float) -> Decision:
    # Tie at the threshold decides H1 (the rule is ">=").
    return Decision.H1 if stat.f >= threshold else Decision.H0


def run_test_synthetic(
    inst: FairnessInstance, cfg: TestConfig, rng: np.random.Generator
) -> TestOutcome:
    """Run one audit on a known instance with freshly sampled data.

    Counts are drawn from the plan; per-group losses are i.i.d.
    Bernoulli(mu_g), realized through their sufficient one-counts.
    Deterministic given the generator state.
    """
    plan = cfg.plan
    if plan.k != inst.k:
        raise ValueError("plan and instance disagree on K")
    incl = inclusion_array(plan)
    m = plan.draw_counts(rng)
    s = rng.binomial(m, inst.mu_array())
    stat = estimate_from_counts(s, m, inst.weights, incl)
    return TestOutcome(
        decision=_decide(stat, cfg.threshold),
        statistic=stat,
        threshold=cfg.threshold,
        counts=np.asarray(m, dtype=np.int64),
    )


def run_test_dataset(counts: GroupCounts, w: GroupWeights, cfg: TestConfig) -> TestOutcome:
    """Run the audit on the per-group counts of externally collected data.

    The caller asserts that the data were collected per cfg.plan; the counts
    are validated against the plan where possible.
    """
    plan = cfg.plan
    if counts.k != w.k:
        raise ValueError(f"counts cover {counts.k} groups, weights {w.k}")
    m = counts.m
    plan.check_counts(m, counts.names)
    # One lookup per audit, so it skips inclusion_array's cache: a one-shot
    # process can never hit it, and a cached (K, 2) array would outlive the audit.
    incl = plan.inclusion_probabilities()
    stat = estimate_from_counts(counts.s, m, w, incl)
    return TestOutcome(
        decision=_decide(stat, cfg.threshold),
        statistic=stat,
        threshold=cfg.threshold,
        counts=m,
    )


def classify_region(inst: FairnessInstance, alpha: float, epsilon: float) -> Region:
    """Place an instance into P0 (CVaR = 0), P1 (CVaR >= epsilon), or Neither."""
    # An invalid alpha goes on to cvar_fairness, which rejects it.
    if 0.0 <= alpha < 1.0 and max_gap(inst) <= P0_MAX_GAP:
        return Region.P0
    value = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
    if value <= REGION_TOL:
        return Region.P0
    if value >= epsilon - REGION_TOL:
        return Region.P1
    return Region.NEITHER
