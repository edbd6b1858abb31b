"""Exact fairness metrics on a known FairnessInstance.

The central objects are the per-group gaps Delta(g) = |mu_g - Lbar| and the
CVaR-style aggregate: the heaviest-gap groups carrying total mass at most
1 - alpha, averaged and rescaled by 1/(1 - alpha).  The mass budget admits a
continuous (fractional) relaxation and an exact subset maximization; the
fractional form is the default, the subset form an enumeration oracle for
small K.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .core import FairnessInstance
from .errors import InstanceTooLarge

# Largest K for which exact subset enumeration is allowed.
EXACT_SUBSET_MAX_K = 25


class CVaRMode(Enum):
    FRACTIONAL = "fractional"
    EXACT_SUBSET = "exact_subset"


@dataclass(frozen=True)
class GapVector:
    delta: tuple[float, ...]
    lbar: float


def average_quality(inst: FairnessInstance) -> float:
    """Weighted average quality of service Lbar = sum_g w_g mu_g."""
    return float(np.dot(inst.weights.as_array(), inst.mu_array()))


def gap_vector(inst: FairnessInstance) -> GapVector:
    """Per-group absolute gaps Delta(g) = |mu_g - Lbar|."""
    lbar = average_quality(inst)
    delta = np.abs(inst.mu_array() - lbar)
    return GapVector(delta=tuple(delta.tolist()), lbar=lbar)


def max_gap(inst: FairnessInstance) -> float:
    """Largest per-group gap, max_g |mu_g - Lbar|."""
    return max(gap_vector(inst).delta)


def cvar_fairness(inst: FairnessInstance, alpha: float, mode: CVaRMode = CVaRMode.FRACTIONAL) -> float:
    """CVaR fairness at level alpha.

    Maximizes sum_{g in Q} w_g Delta(g) over group selections Q with mass
    sum_{g in Q} w_g <= 1 - alpha, then rescales by 1/(1 - alpha).

    Fractional mode solves the continuous relaxation (sort gaps descending,
    greedily fill the mass budget, fractional share of the boundary group).
    ExactSubset enumerates subsets and is limited to K <= EXACT_SUBSET_MAX_K.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    budget = 1.0 - alpha
    w = inst.weights.as_array()
    delta = np.abs(inst.mu_array() - average_quality(inst))

    if mode is CVaRMode.FRACTIONAL:
        # Greedy fill in gap order.  Zero-weight groups carry no mass, so they
        # are skipped rather than ending the fill.
        order = np.argsort(-delta, kind="stable")
        order = order[w[order] > 0.0]
        ws, ds = w[order], delta[order]
        used = np.cumsum(ws)  # sequential sums, as a running total would give
        room = budget - np.concatenate(([0.0], used[:-1]))
        over = ws > room
        # Groups before the first one that does not fit are taken whole.
        j = int(np.argmax(over)) if over.any() else ws.size
        total = float(np.cumsum(ws[:j] * ds[:j])[-1]) if j else 0.0
        filled = float(used[j - 1]) if j else 0.0
        # The boundary group is taken in part; rounding can leave a sliver of
        # budget for the next one or two groups.
        for g in range(j, ws.size):
            take = min(ws[g], budget - filled)
            if take <= 0.0:
                break
            total += take * ds[g]
            filled += take
        return float(total / budget)

    k = inst.k
    if k > EXACT_SUBSET_MAX_K:
        raise InstanceTooLarge(f"exact subset enumeration limited to K <= {EXACT_SUBSET_MAX_K}")
    best = 0.0
    for r in range(1, k + 1):
        for q in combinations(range(k), r):
            mass = sum(w[g] for g in q)
            # Tolerance keeps a subset feasible when 1 - alpha rounds a ulp
            # below the exact mass it was chosen to equal.
            if mass <= budget + 1e-12:
                val = sum(w[g] * delta[g] for g in q)
                if val > best:
                    best = val
    return float(best / budget)


def alpha_star(inst: FairnessInstance) -> float:
    """The level at which CVaR fairness recovers the max gap.

    Returns 1 - w_{g*} where g* attains the max gap; ties are broken toward
    the smallest weight (largest alpha*).  Requires that some positive-weight
    group attains the max.
    """
    gv = gap_vector(inst)
    delta = np.asarray(gv.delta)
    w = inst.weights.as_array()
    dmax = delta.max()
    candidates = [g for g in range(inst.k) if delta[g] == dmax and w[g] > 0]
    if not candidates:
        raise ValueError("no positive-weight group attains the maximum gap")
    g_star = min(candidates, key=lambda g: w[g])
    return float(1.0 - w[g_star])


def separation_statistic(inst: FairnessInstance) -> float:
    """D = sum_g w_g mu_g^2 - Lbar^2, identically sum_g w_g Delta(g)^2.

    This is the population quantity the audit statistic estimates; it
    satisfies D >= (1 - alpha) * cvar_fairness(inst, alpha)^2 for every alpha.
    """
    w = inst.weights.as_array()
    mu = inst.mu_array()
    lbar = float(np.dot(w, mu))
    return float(np.dot(w, mu * mu) - lbar * lbar)
