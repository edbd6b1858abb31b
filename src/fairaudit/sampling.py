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
where both equal p_g), `check_counts` raises PlanMismatch on observed
counts the plan cannot produce, and `count_law()` enumerates every count
vector the plan draws with its probability, for the exact-moment oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import _MAX_COUNT, GroupWeights
from .errors import EstimatorUndefined, PlanMismatch, shown_groups

# Weighted-plan tilt exponent that optimizes the sample-complexity bound.
OPTIMAL_ETA = 2.0 / 3.0


def weighted_marginal(w: GroupWeights, eta: float) -> GroupWeights:
    """Power-tilted sampling marginal v_g = w_g^eta / sum_g' w_g'^eta.

    eta=0 gives the uniform distribution over the support of w, eta=1 the
    population marginal itself.  A NaN or infinite eta, or one so large that
    every w_g^eta underflows to 0, is a ValueError.
    """
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    arr = w.as_array()
    if not np.any(arr > 0):
        raise ValueError("weights have empty support")
    v = np.where(arr > 0, arr, 0.0) ** eta if eta > 0 else (arr > 0).astype(float)
    total = v.sum()
    if total == 0:
        raise ValueError(f"eta={eta} underflows every weight's power to 0")
    return GroupWeights(v / total)


@dataclass(frozen=True)
class WeightedPlan:
    """i.i.d. sampling of n group labels from marginal v."""

    v: GroupWeights
    budget: int

    def __post_init__(self):
        _check_budget(self.budget, 0)

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

    def count_law(self):
        """Yield (counts, probability) of Multinomial(n, v), over reachable counts in order."""
        n, v = self.budget, self.v.as_array()
        log_fact = [math.lgamma(i + 1) for i in range(n + 1)]
        for head in product(range(n + 1), repeat=self.k - 1):
            m = (*head, n - sum(head))
            if m[-1] < 0 or any(mg > 0 and vg == 0.0 for mg, vg in zip(m, v)):
                continue
            logp = log_fact[n]
            for mg, vg in zip(m, v):
                logp -= log_fact[mg]
                if mg > 0:
                    logp += mg * math.log(vg)
            yield np.asarray(m), math.exp(logp)

    def check_counts(self, m: np.ndarray, names) -> None:
        total = int(m.sum())
        if total != self.budget:
            raise PlanMismatch(
                f"weighted plan draws exactly n={self.budget} samples, observed {total}"
            )
        _check_drawn(m, self.v.as_array(), names)


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


def _check_budget(budget, least: int) -> None:
    """ValueError unless budget is an integer from `least` to _MAX_COUNT, the
    largest count numpy's samplers take; checked before any float division."""
    if not least <= budget < math.inf or budget != int(budget):
        kind = "positive" if least else "non-negative"
        raise ValueError(f"budget must be a {kind} integer, got {budget}")
    if budget > _MAX_COUNT:
        raise ValueError(f"budget must be at most {_MAX_COUNT}, got {budget}")


def whole_block(n: int, gamma: float) -> int:
    """The block n / gamma of an attribute-specific plan, else ValueError naming the
    first rule broken: a budget of 1 to _MAX_COUNT, gamma > 0, and a whole block
    (to within 1e-9) of 1 to _MAX_COUNT, since rounding would corrupt the budget
    identity sum_g E[M_g] = n."""
    _check_budget(n, 1)
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    block = n / gamma
    whole = math.isfinite(block) and abs(block - round(block)) <= 1e-9
    if whole and 1 <= round(block) <= _MAX_COUNT:
        return round(block)
    big = math.isfinite(block) and block > _MAX_COUNT  # past _MAX_COUNT, every float is whole
    rule = f"at most {_MAX_COUNT}" if big else "a positive integer"
    raise ValueError(f"n/gamma must be {rule}, got {block}")


def estimable_block(n: int, gamma: float) -> bool:
    """Whether n / gamma is a whole block of 2 to _MAX_COUNT samples: the
    estimator needs a group observed twice."""
    try:
        return whole_block(n, gamma) >= 2
    except ValueError:
        return False


@dataclass(frozen=True)
class AttributeSpecificPlan:
    """Per-group block sampling: M_g = n/gamma with probability min(gamma*w_g, 1)."""

    w: GroupWeights
    budget: int
    gamma: float

    def __post_init__(self):
        whole_block(self.budget, self.gamma)

    @staticmethod
    def default(w: GroupWeights, budget: int) -> "AttributeSpecificPlan":
        """The plan of blocks of 2 samples, gamma = budget / 2."""
        _check_budget(budget, 1)  # before the division
        return AttributeSpecificPlan(w=w, budget=budget, gamma=budget / 2)

    @property
    def k(self) -> int:
        return self.w.k

    @property
    def block(self) -> int:
        """Number of samples drawn from each included group."""
        return whole_block(self.budget, self.gamma)

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
        self._require_estimable()
        p = self.include_probs()
        return p, p

    def shared_inclusion(self) -> float | None:
        """The p_g of every group when all weights are equal, else None.

        The same float operations as `include_probs` on one weight, so the
        same bits; defined only if n/gamma >= 2, as `inclusion_pair`.
        """
        self._require_estimable()
        w0 = self.w.shared
        return None if w0 is None else min(float(self.gamma) * w0, 1.0)

    def _require_estimable(self) -> None:
        if self.block < 2:
            raise EstimatorUndefined(
                "attribute-specific plan with n/gamma < 2 can never observe a group twice"
            )

    def count_law(self):
        """Yield (counts, probability) over vectors of the block (w.p. p_g) or 0 per group."""
        block, probs = self.block, self.include_probs()
        for mask in product((0, 1), repeat=self.k):
            p = 1.0
            for g, included in enumerate(mask):
                p *= probs[g] if included else 1.0 - probs[g]
            if p > 0.0:
                yield np.asarray(mask) * block, p

    def check_counts(self, m: np.ndarray, names) -> None:
        bad = np.flatnonzero((m != 0) & (m != self.block))
        if bad.size:
            raise PlanMismatch(
                f"attribute-specific counts must be 0 or {self.block}; "
                f"groups {shown_groups([names[g] for g in bad.tolist()])} violate this"
            )
        _check_drawn(m, self.include_probs(), names)


def _check_drawn(m: np.ndarray, p: np.ndarray, names) -> None:
    """PlanMismatch naming the groups with samples whose inclusion probability `p` is 0."""
    bad = np.flatnonzero((m > 0) & (p == 0))
    if bad.size:
        raise PlanMismatch(
            f"groups {shown_groups([names[g] for g in bad.tolist()])} have samples "
            "but zero inclusion probability under the plan"
        )


SamplingPlan = WeightedPlan | AttributeSpecificPlan


@lru_cache(maxsize=256)
def inclusion_array(plan: SamplingPlan) -> np.ndarray:
    """The plan's `inclusion_pair()` as a cached read-only (K, 2) array."""
    arr = np.stack(plan.inclusion_pair(), 1)
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
    p1s, p2s = plan.inclusion_pair()
    for vg, p1, p2 in zip(plan.v.as_array().tolist(), p1s.tolist(), p2s.tolist()):
        if n < 2 or n * vg > 1:
            report.append(None)
        else:
            ok = p1 >= n * vg / math.e - 1e-15 and p2 >= (n * vg) ** 2 / (4 * math.e) - 1e-15
            report.append(bool(ok))
    return report
