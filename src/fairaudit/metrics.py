"""Exact fairness metrics on a known FairnessInstance.

The central objects are the per-group gaps Delta(g) = |mu_g - Lbar| and the
CVaR-style aggregate: the heaviest-gap groups carrying total mass at most
1 - alpha, averaged and rescaled by 1/(1 - alpha).  The mass budget admits a
continuous (fractional) relaxation and an exact subset maximization; the
fractional form is the default, the subset form an enumeration oracle for
small K.
"""

from __future__ import annotations

import math
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
    """Largest per-group gap, max_g |mu_g - Lbar|.

    Subtracting Lbar and rounding are both monotone, so the largest gap is
    that of the largest or of the smallest mean: the bits of the largest of
    all K gaps, read with no K-sized temporary.
    """
    mu = inst.mu_array()
    lbar = average_quality(inst)
    return float(max(abs(mu.max() - lbar), abs(mu.min() - lbar)))


def _walk(w: np.ndarray, delta: np.ndarray, budget: float, order: np.ndarray | None = None):
    """(sum_g take_g * delta_g, ended) of the greedy fill of `budget` over groups in fill order.

    The fill order is `order`, or the order of `w` and `delta` when None.
    Groups are taken whole until the first one that does not fit, which is
    taken in part; rounding can leave a sliver of budget for the next one or
    two groups.  A zero-weight group adds 0 to both running sums, so it
    leaves every partial sum as it was and passes a sliver on.  The groups
    are walked FILL_CHUNK at a time, and the walk stops at the chunk that
    holds the boundary group.  The mass and total carried from earlier chunks
    are added to a chunk's first element before its cumsum, so every partial
    sum is the one a sequential loop gives.  `ended` is False when budget is
    left after the last group given: the total is then the fill's only if no
    groups follow.
    """
    n = delta.size if order is None else order.size
    filled = total = 0.0
    for start in range(0, n, FILL_CHUNK):
        part = slice(start, start + FILL_CHUNK) if order is None else order[start : start + FILL_CHUNK]
        wc, dc = w[part], delta[part]
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
        return total, budget - filled <= 0.0
    for g in range(start + j, n) if order is None else order[start + j :]:
        if budget - filled <= 0.0:
            return total, True
        take = min(w[g], budget - filled)
        total += take * delta[g]
        filled += take
    return total, budget - filled <= 0.0


def _walk_order(w: np.ndarray, delta: np.ndarray, ids: np.ndarray | None, budget: float):
    """`_walk` over the groups `ids` (ascending; None for all) in stable gap order."""
    order = np.argsort(-delta if ids is None else -delta[ids], kind="stable")
    return _walk(w, delta, budget, order if ids is None else ids[order])


def _fractional_fill(w: np.ndarray, delta: np.ndarray, budget: float) -> float:
    """sum_g take_g * delta_g of the greedy fill of `budget` in descending gap order.

    Ties in gap are taken in index order, as a stable argsort orders them;
    zero-weight groups carry no mass and add nothing (see `_walk`).  `delta`
    must be a fresh array: the fill may reorder it.

    Under equal weights (all positive, as they sum to 1) the fill reads only
    the gaps in descending order, and tied gaps give equal products, so it
    sorts `delta` in place and walks it backwards, with the bits of the index
    fill and no K-sized temporary.  Otherwise only the groups at or above the
    boundary gap need the stable sort: the groups whose gap is at least a
    cut, ties at the cut included, are the first groups of the full gap
    order, in index order.  The cut is the gap of rank about `count`, read
    from a sorted sample of every (K // FILL_CHUNK)-th gap: `np.partition`
    of all K gaps costs more than the stable sort when most gaps are tied.
    `count` starts one chunk past the groups an equal-weight fill would take
    and doubles until the selected mass covers the budget and the walk,
    sliver tail included, ends among them.  A cut at the smallest gap, or a
    count past K, sorts all K groups.
    """
    if w.min() == w.max():
        delta.sort()
        return _walk(np.broadcast_to(w[0], delta.shape), delta[::-1], budget)[0]
    k = delta.size
    count = math.ceil(budget * k) + FILL_CHUNK
    if count < k:
        stride = k // FILL_CHUNK
        sample = np.sort(delta[::stride])
        lowest, tried = delta.min(), None
    while count < k:
        cut = sample[-(count // stride)]
        count *= 2
        if cut == lowest:  # every group is selected
            break
        if cut == tried:  # tied over both counts: the same groups again
            continue
        tried = cut
        selected = delta >= cut
        if w.sum(where=selected) >= budget:
            total, ended = _walk_order(w, delta, np.flatnonzero(selected), budget)
            if ended:
                return total
    return _walk_order(w, delta, None, budget)[0]


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
