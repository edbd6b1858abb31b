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
# Groups per step of the fractional fill, which stops at the boundary group.
FILL_CHUNK = 4096


class CVaRMode(Enum):
    FRACTIONAL = "fractional"
    EXACT_SUBSET = "exact_subset"


@dataclass(frozen=True)
class GapVector:
    delta: tuple[float, ...]
    lbar: float


def average_quality(inst: FairnessInstance) -> float:
    """Weighted average quality of service Lbar = sum_g w_g mu_g."""
    # einsum sums in numpy's own loop, so the bits do not depend on the BLAS
    # thread count as np.dot's do.
    return float(np.einsum("i,i->", inst.weights.as_array(), inst.mu_array()))


def _gaps(inst: FairnessInstance, lbar: float) -> np.ndarray:
    """The per-group gaps |mu_g - lbar| as a fresh array."""
    delta = inst.mu_array() - lbar
    return np.abs(delta, out=delta)


def gap_vector(inst: FairnessInstance) -> GapVector:
    """Per-group absolute gaps Delta(g) = |mu_g - Lbar|."""
    lbar = average_quality(inst)
    return GapVector(delta=tuple(_gaps(inst, lbar).tolist()), lbar=lbar)


def max_gap(inst: FairnessInstance) -> float:
    """Largest per-group gap, max_g |mu_g - Lbar|."""
    return float(_gaps(inst, average_quality(inst)).max())


def _fractional_fill(w: np.ndarray, delta: np.ndarray, budget: float) -> float:
    """sum_g take_g * delta_g of the greedy fill of `budget` in descending gap order.

    Groups are taken whole until the first one that does not fit, which is
    taken in part.  Zero-weight groups carry no mass, so they are skipped
    rather than ending the fill.  The sorted order is walked FILL_CHUNK groups
    at a time and stops at the chunk that holds the boundary group.  The mass
    and total carried from earlier chunks are added to a chunk's first element
    before its cumsum, so every partial sum is the one a sequential loop gives.
    """
    order = np.argsort(-delta, kind="stable")
    if not (w > 0.0).all():
        order = order[w[order] > 0.0]
    filled = total = 0.0
    for start in range(0, order.size, FILL_CHUNK):
        idx = order[start : start + FILL_CHUNK]
        ws = w[idx]
        used = ws.copy()
        used[0] += filled
        np.cumsum(used, out=used)
        room = budget - np.concatenate(([filled], used[:-1]))
        over = ws > room
        j = int(np.argmax(over)) if over.any() else ws.size
        if j:
            taken = ws[:j] * delta[idx[:j]]
            taken[0] += total
            total = float(np.cumsum(taken)[-1])
            filled = float(used[j - 1])
        if j < ws.size:
            break
    else:
        return total
    # The boundary group is taken in part; rounding can leave a sliver of
    # budget for the next one or two groups.
    for g in order[start + j :]:
        take = min(w[g], budget - filled)
        if take <= 0.0:
            break
        total += take * delta[g]
        filled += take
    return total


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
    delta = _gaps(inst, average_quality(inst))

    if mode is CVaRMode.FRACTIONAL:
        return float(_fractional_fill(w, delta, budget) / budget)

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
    delta = _gaps(inst, average_quality(inst))
    w = inst.weights.as_array()
    candidates = w[(delta == delta.max()) & (w > 0)]
    if not candidates.size:
        raise ValueError("no positive-weight group attains the maximum gap")
    return float(1.0 - candidates.min())


def separation_statistic(inst: FairnessInstance) -> float:
    """D = sum_g w_g mu_g^2 - Lbar^2, identically sum_g w_g Delta(g)^2.

    This is the population quantity the audit statistic estimates; it
    satisfies D >= (1 - alpha) * cvar_fairness(inst, alpha)^2 for every alpha.
    """
    mu = inst.mu_array()
    lbar = average_quality(inst)
    return float(np.einsum("i,i->", inst.weights.as_array(), mu * mu) - lbar * lbar)
