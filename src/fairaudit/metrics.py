"""Exact fairness metrics on a known FairnessInstance.

The central objects are the per-group gaps Delta(g) = |mu_g - Lbar| and the
CVaR-style aggregate: the heaviest-gap groups carrying total mass at most
1 - alpha, averaged and rescaled by 1/(1 - alpha).  The mass budget admits a
continuous (fractional) relaxation and an exact subset maximization:
`cvar_fairness` is the fractional form, the metric the audit uses, and
`cvar_fairness_subset` the subset form, an enumeration oracle for small K.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .core import FairnessInstance
from .errors import InstanceTooLarge

# Largest K for which exact subset enumeration is allowed.
EXACT_SUBSET_MAX_K = 25
# Groups per step of the fractional fill, which stops at the boundary group.
FILL_CHUNK = 4096


class GapVector(NamedTuple):
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
    """Largest per-group gap, max_g |mu_g - Lbar|.

    Subtracting Lbar and rounding are both monotone, so the largest gap is
    that of the largest or of the smallest mean: the bits of the largest of
    all K gaps, read with no K-sized temporary.
    """
    mu = inst.mu_array()
    lbar = average_quality(inst)
    return float(max(abs(mu.max() - lbar), abs(mu.min() - lbar)))


def _walk(w: np.ndarray, delta: np.ndarray, budget: float) -> float:
    """sum_g take_g * delta_g of the greedy fill of `budget` over the groups in array order.

    Groups are taken whole until the first one that does not fit, which is
    taken in part; rounding can leave a sliver of budget for the next one or
    two groups.  A zero-weight group adds 0 to both running sums, so it
    leaves every partial sum as it was and passes a sliver on.  The groups
    are walked FILL_CHUNK at a time, and the walk stops at the chunk that
    holds the boundary group.  The mass and total carried from earlier chunks
    are added to a chunk's first element before its cumsum, so every partial
    sum is the one a sequential loop gives.
    """
    n = delta.size
    filled = total = 0.0
    for start in range(0, n, FILL_CHUNK):
        wc, dc = w[start : start + FILL_CHUNK], delta[start : start + FILL_CHUNK]
        used = wc.copy()
        used[0] += filled
        np.cumsum(used, out=used)
        room = budget - np.concatenate(([filled], used[:-1]))
        over = wc > room
        j = int(np.argmax(over)) if over.any() else wc.size
        if j:
            taken = wc[:j] * dc[:j]
            taken[0] += total
            total = float(np.cumsum(taken)[-1])
            filled = float(used[j - 1])
        if j < wc.size:
            break
    else:
        return total
    for g in range(start + j, n):
        if budget - filled <= 0.0:
            break
        take = min(w[g], budget - filled)
        total += take * delta[g]
        filled += take
    return total


def _fractional_fill(w: np.ndarray, delta: np.ndarray, budget: float) -> float:
    """sum_g take_g * delta_g of the greedy fill of `budget` in descending gap order.

    Ties in gap are taken in index order, as a stable argsort orders them;
    zero-weight groups carry no mass and add nothing (see `_walk`).  `delta`
    must be a fresh array: the fill may reorder it.

    Under equal weights (all positive, as they sum to 1) the fill reads only
    the gaps in descending order, and tied gaps give equal products, so it
    sorts `delta` in place and walks it backwards, with the bits of the index
    fill and no K-sized temporary.  Otherwise the fill walks the weights and
    gaps in the stable `argsort` order of all K gaps.
    """
    if w.min() == w.max():
        delta.sort()
        return _walk(np.broadcast_to(w[0], delta.shape), delta[::-1], budget)
    order = np.argsort(-delta, kind="stable")
    return _walk(w[order], delta[order], budget)


def cvar_fairness(inst: FairnessInstance, alpha: float) -> float:
    """CVaR fairness at level alpha, the fractional form.

    Maximizes sum_g take_g Delta(g) over takes 0 <= take_g <= w_g of total
    mass at most 1 - alpha, then rescales by 1/(1 - alpha): sort the gaps
    descending, fill the mass budget greedily, and take a share of the
    boundary group.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    budget = 1.0 - alpha
    delta = _gaps(inst, average_quality(inst))
    return float(_fractional_fill(inst.weights.as_array(), delta, budget) / budget)


def cvar_fairness_subset(inst: FairnessInstance, alpha: float) -> float:
    """CVaR fairness at level alpha over whole groups: the enumeration oracle.

    Maximizes sum_{g in Q} w_g Delta(g) over group subsets Q with mass
    sum_{g in Q} w_g <= 1 - alpha, then rescales by 1/(1 - alpha).  It
    enumerates every subset, so it is limited to K <= EXACT_SUBSET_MAX_K.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    k = inst.k
    if k > EXACT_SUBSET_MAX_K:
        raise InstanceTooLarge(f"exact subset enumeration limited to K <= {EXACT_SUBSET_MAX_K}")
    budget = 1.0 - alpha
    w = inst.weights.as_array()
    delta = _gaps(inst, average_quality(inst))
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
