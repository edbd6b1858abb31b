"""Data-collection strategies under a fixed expected sample budget.

Two plans are supported:

* Weighted: draw n i.i.d. group labels from a power-tilted marginal
  v_g = w_g^eta / sum w^eta; joint counts are multinomial so each M_g is
  marginally Binomial(n, v_g) and the counts sum to n exactly.
* Attribute-specific: independently per group, draw a fixed block of
  n/gamma samples with probability min(gamma * w_g, 1), else none.

Each plan answers what the audit and the sweeps ask of it:
`inclusion_pair()` gives P[M_g >= 1] and P[M_g >= 2], the normalizers of
the debiased estimator (one array twice under the attribute-specific plan,
where both equal p_g), and `check_counts` raises PlanMismatch on observed
counts the plan cannot produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import GroupWeights
from .errors import EstimatorUndefined, PlanMismatch, shown_groups

# Weighted-plan tilt exponent that optimizes the sample-complexity bound.
OPTIMAL_ETA = 2.0 / 3.0


def weighted_marginal(w: GroupWeights, eta: float) -> GroupWeights:
    """Power-tilted sampling marginal v_g = w_g^eta / sum_g' w_g'^eta.

    eta=0 gives the uniform distribution over the support of w, eta=1 the
    population marginal itself.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    arr = w.as_array()
    if not np.any(arr > 0):
        raise ValueError("weights have empty support")
    v = np.where(arr > 0, arr, 0.0) ** eta if eta > 0 else (arr > 0).astype(float)
    return GroupWeights(v / v.sum())


@dataclass(frozen=True)
class WeightedPlan:
    """i.i.d. sampling of n group labels from marginal v."""

    v: GroupWeights
    budget: int

    def __post_init__(self):
        if self.budget < 0 or self.budget != int(self.budget):
            raise ValueError(f"budget must be a non-negative integer, got {self.budget}")

    @staticmethod
    def from_weights(w: GroupWeights, eta: float, budget: int) -> "WeightedPlan":
        return WeightedPlan(v=weighted_marginal(w, eta), budget=budget)

    @property
    def k(self) -> int:
        return self.v.k

    def draw_counts(self, rng: np.random.Generator) -> np.ndarray:
        return rng.multinomial(self.budget, self.v.as_array())

    def inclusion_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(P[M_g >= 1], P[M_g >= 2]) per group, one scalar evaluation per distinct v_g."""
        values, which = np.unique(self.v.as_array(), return_inverse=True)
        pairs = [_binomial_inclusion(self.budget, x) for x in values.tolist()]
        p1, p2 = np.array(pairs, dtype=float).T
        return p1[which], p2[which]

    def inclusion_probabilities(self) -> np.ndarray:
        """`inclusion_pair()` as a (K, 2) array."""
        return np.stack(self.inclusion_pair(), 1)

    def check_counts(self, m: np.ndarray, names) -> None:
        total = int(m.sum())
        if total != self.budget:
            raise PlanMismatch(
                f"weighted plan draws exactly n={self.budget} samples, observed {total}"
            )


def _binomial_inclusion(n: int, v: float) -> tuple[float, float]:
    """(P[Bin(n,v) >= 1], P[Bin(n,v) >= 2]) computed without cancellation."""
    if v <= 0.0 or n == 0:
        return (0.0, 0.0)
    if v >= 1.0:
        return (1.0, 1.0 if n >= 2 else 0.0)
    log_q = math.log1p(-v)  # log(1 - v)
    p_ge1 = -math.expm1(n * log_q)  # 1 - (1-v)^n
    p_ge2 = p_ge1 - n * v * math.exp((n - 1) * log_q)
    return (p_ge1, max(0.0, p_ge2))


@dataclass(frozen=True)
class AttributeSpecificPlan:
    """Per-group block sampling: M_g = n/gamma with probability min(gamma*w_g, 1)."""

    w: GroupWeights
    budget: int
    gamma: float

    def __post_init__(self):
        if self.budget <= 0 or self.budget != int(self.budget):
            raise ValueError(f"budget must be a positive integer, got {self.budget}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        block = self.budget / self.gamma
        # The per-group draw count must be a whole number; rounding silently
        # would corrupt the budget identity sum_g E[M_g] = n.
        if abs(block - round(block)) > 1e-9 or round(block) < 1:
            raise ValueError(f"n/gamma must be a positive integer, got {block}")

    @staticmethod
    def default(w: GroupWeights, budget: int) -> "AttributeSpecificPlan":
        return AttributeSpecificPlan(w=w, budget=budget, gamma=budget / 2)

    @property
    def k(self) -> int:
        return self.w.k

    @property
    def block(self) -> int:
        """Number of samples drawn from each included group."""
        return int(round(self.budget / self.gamma))

    def include_probs(self) -> np.ndarray:
        """p_g = min(gamma * w_g, 1) per group."""
        p = self.gamma * self.w.as_array()
        return np.minimum(p, 1.0, out=p)

    def expected_included(self) -> float:
        """Expected number of included groups, sum_g min(gamma * w_g, 1).

        Times the block n/gamma it is the expected sample count, which equals
        the budget n only when no gamma * w_g exceeds 1.
        """
        return float(self.include_probs().sum())

    def draw_counts(self, rng: np.random.Generator) -> np.ndarray:
        include = rng.random(self.k) < self.include_probs()
        return np.where(include, self.block, 0)

    def inclusion_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, p): P[M_g >= 1] = P[M_g >= 2] = p_g, defined only if n/gamma >= 2."""
        if self.block < 2:
            raise EstimatorUndefined(
                "attribute-specific plan with n/gamma < 2 can never observe a group twice"
            )
        p = self.include_probs()
        return p, p

    def inclusion_probabilities(self) -> np.ndarray:
        """`inclusion_pair()` as a (K, 2) array."""
        return np.stack(self.inclusion_pair(), 1)

    def check_counts(self, m: np.ndarray, names) -> None:
        bad = np.flatnonzero((m != 0) & (m != self.block))
        if bad.size:
            raise PlanMismatch(
                f"attribute-specific counts must be 0 or {self.block}; "
                f"groups {shown_groups([names[g] for g in bad.tolist()])} violate this"
            )


SamplingPlan = WeightedPlan | AttributeSpecificPlan


@lru_cache(maxsize=256)
def inclusion_array(plan: SamplingPlan) -> np.ndarray:
    """The plan's inclusion probabilities as a cached read-only (K, 2) array."""
    arr = plan.inclusion_probabilities()
    arr.flags.writeable = False
    return arr


def satisfies_tail_lemma(plan: WeightedPlan) -> list[bool | None]:
    """Check the binomial tail lower bounds per group.

    For groups with n*v_g <= 1 and n >= 2, verifies
    P[M_g >= 1] >= n v_g / e and P[M_g >= 2] >= n^2 v_g^2 / (4e).
    Groups outside the hypotheses are reported as None (vacuous).
    """
    if not isinstance(plan, WeightedPlan):
        raise TypeError("tail lemma applies to weighted plans only")
    n = plan.budget
    report: list[bool | None] = []
    for vg, (p1, p2) in zip(plan.v.as_array().tolist(), plan.inclusion_probabilities()):
        if n < 2 or n * vg > 1:
            report.append(None)
        else:
            ok = p1 >= n * vg / math.e - 1e-15 and p2 >= (n * vg) ** 2 / (4 * math.e) - 1e-15
            report.append(bool(ok))
    return report
