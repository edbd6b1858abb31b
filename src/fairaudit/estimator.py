"""The debiased audit statistic F = F1 - F2^2 and its exact-moment oracle.

Per group, with S_g observed loss ones out of M_g samples:

  F1 term = (w_g / P[M_g>=2]) * (S_g/M_g) * ((S_g-1)/(M_g-1))   (0 if M_g < 2)
  F2 term = (w_g / P[M_g>=1]) * (S_g/M_g)                        (0 if M_g = 0)

The inclusion-probability normalizers make E[F1] = sum w_g mu_g^2 and
E[F2] = sum w_g mu_g regardless of which plan produced the counts; the
estimator itself never sees the plan, only the inclusion probabilities.

`exact_moments` recomputes those expectations (and per-group variances, and
the full distribution of F) by exhaustive enumeration of every count vector
and loss pattern, for use as an independent oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import FairnessInstance, GroupWeights
from .errors import InstanceTooLarge, ZeroInclusionProbability
from .sampling import AttributeSpecificPlan, SamplingPlan, WeightedPlan

# Exhaustive enumeration limits for the exact-moment oracle.
ENUM_MAX_K = 4
ENUM_MAX_N = 8


@dataclass(frozen=True)
class EstimatorValue:
    f1: float
    f2: float

    @property
    def f(self) -> float:
        return self.f1 - self.f2 * self.f2


def estimate_from_counts(
    s: Sequence[int],
    m: Sequence[int],
    w: GroupWeights,
    incl: Sequence[tuple[float, float]],
) -> EstimatorValue:
    """Compute the statistic from per-group one-counts S_g and totals M_g."""
    warr = w.as_array()
    sarr = np.asarray(s, dtype=float)
    marr = np.asarray(m, dtype=float)
    incl_arr = np.asarray(incl, dtype=float)
    c1, c2 = _term_weights(warr, incl_arr[:, 0], incl_arr[:, 1])
    active = warr > 0  # zero-weight groups contribute identically zero
    mask2 = active & (marr >= 2)
    mask1 = active & (marr >= 1)
    f1 = float(
        np.sum(
            c1[mask2]
            * (sarr[mask2] / marr[mask2])
            * ((sarr[mask2] - 1.0) / (marr[mask2] - 1.0))
        )
    )
    f2 = float(np.sum(c2[mask1] * (sarr[mask1] / marr[mask1])))
    return EstimatorValue(f1=f1, f2=f2)


def _term_weights(
    w: np.ndarray, p1: np.ndarray, p2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group normalizers (w_g / P[M_g>=2], w_g / P[M_g>=1]) of the F1 and F2 terms.

    `p1` and `p2` are P[M_g>=1] and P[M_g>=2].  Zero-weight groups get 0 in
    both, whatever their inclusion probability.  When `p1 is p2`, as under
    the attribute-specific plan, one array serves both terms.  Scalars in
    place of the arrays give the one normalizer of groups that share w_g
    and p_g.
    """
    if w.min() > 0:  # every group is active: plain division, same bits
        if p2.min() <= 0.0:
            raise ZeroInclusionProbability(int(np.argmax(p2 <= 0.0)))
        c1 = w / p2
        return (c1, c1) if p1 is p2 else (c1, w / p1)
    active = w > 0
    bad = active & (p2 <= 0.0)
    if np.any(bad):
        raise ZeroInclusionProbability(int(np.argmax(bad)))
    c1 = np.divide(w, p2, out=np.zeros_like(w), where=active)
    if p1 is p2:
        return c1, c1
    return c1, np.divide(w, p1, out=np.zeros_like(w), where=active)


def _ratio_terms(s: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized terms (S/M)((S-1)/(M-1)), zero where M < 2, and S/M, zero where M = 0."""
    s, m = np.asarray(s), np.asarray(m)
    t2 = np.divide(s, m, out=np.zeros(s.shape), where=m >= 1)
    t1 = np.divide(s - 1, m - 1, out=np.zeros(s.shape), where=m >= 2)
    t1 *= t2
    return t1, t2


def estimate_rows(
    s: np.ndarray, m: np.ndarray, weights: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """F1 and F2 of every row of (B, K) count matrices, one row per trial.

    `weights` is the pair from `_term_weights`.  Row b equals
    `estimate_from_counts(s[b], m[b], w, incl)` up to summation order.
    The row sums run in numpy's own einsum loop, not in BLAS, so their bits
    do not depend on the BLAS thread count.
    """
    t1, t2 = _ratio_terms(s, m)
    return np.einsum("bk,k->b", t1, weights[0]), np.einsum("bk,k->b", t2, weights[1])


def estimate_entries(
    rows: np.ndarray,
    groups: np.ndarray | None,
    s: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray],
    c: np.ndarray | None,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """F1 and F2 of `n_rows` trials given only their groups with M_g > 0.

    Entry i says that trial rows[i] saw s[i] ones in the m samples of group
    groups[i]; `c` is the one normalizer of both terms (w_g / p_g under the
    attribute-specific plan), or None when `terms` already carry it, as
    they can when all groups share one normalizer c: (t * c)[S] has the
    bits of t[S] * c.  Only `c` reads the groups, so they may be None
    without it.  Groups a trial did not sample contribute nothing, so the
    cost is proportional to the number of entries, not to K.  Each term is
    looked up by S in `terms`, the tables `_ratio_terms(np.arange(m + 1),
    m)`, which hold the values _ratio_terms gives per entry; a caller builds
    them once per block size m.  Any index into tables of those values
    serves in place of S, such as a row of a table of S values composed
    with them.
    """
    t1, t2 = terms
    e1, e2 = t1.take(s), t2.take(s)
    if c is not None:
        cg = c.take(groups)
        e1 *= cg
        e2 *= cg
    return (np.bincount(rows, weights=e1, minlength=n_rows),
            np.bincount(rows, weights=e2, minlength=n_rows))


def estimate(
    data: Sequence[Sequence[int]],
    w: GroupWeights,
    incl: Sequence[tuple[float, float]],
) -> EstimatorValue:
    """Compute the statistic from per-group loss-bit sequences."""
    s = [sum(group) for group in data]
    m = [len(group) for group in data]
    return estimate_from_counts(s, m, w, incl)


@dataclass(frozen=True)
class ExactMoments:
    """Exact enumeration results for the statistic under a plan."""

    e_f1: float
    e_f2: float
    e_f: float
    e_f2_sq: float
    # Per-group variance of the raw ratio statistics (the estimator term with
    # the w_g / P normalizer stripped off), for checking the variance lemmas.
    var_term1: tuple[float, ...]
    var_term2: tuple[float, ...]
    # Full distribution of F as (value, probability) pairs.
    distribution: tuple[tuple[float, float], ...]


def _count_vectors(plan: SamplingPlan):
    """Yield (counts, probability) over all reachable count vectors."""
    k = plan.k
    n = plan.budget
    if isinstance(plan, WeightedPlan):
        v = plan.v.as_array()
        log_fact = [math.lgamma(i + 1) for i in range(n + 1)]

        def rec(g, remaining, counts):
            if g == k - 1:
                yield tuple(counts + [remaining])
                return
            for c in range(remaining + 1):
                yield from rec(g + 1, remaining - c, counts + [c])

        for m in rec(0, n, []):
            logp = log_fact[n]
            ok = True
            for g in range(k):
                if m[g] > 0 and v[g] == 0.0:
                    ok = False
                    break
                logp -= log_fact[m[g]]
                if m[g] > 0:
                    logp += m[g] * math.log(v[g])
            if ok:
                yield np.asarray(m), math.exp(logp)
    elif isinstance(plan, AttributeSpecificPlan):
        block = plan.block
        probs = plan.include_probs()
        for mask in product((0, 1), repeat=k):
            p = 1.0
            for g in range(k):
                p *= probs[g] if mask[g] else 1.0 - probs[g]
            if p > 0.0:
                yield np.asarray([block if mask[g] else 0 for g in range(k)]), p
    else:
        raise TypeError(f"unknown plan type {type(plan)!r}")


def _binom_pmf(m: int, mu: float) -> list[float]:
    """Probabilities of s ones out of m Bernoulli(mu) draws, s = 0..m."""
    return [math.comb(m, s) * mu**s * (1.0 - mu) ** (m - s) for s in range(m + 1)]


def exact_moments(inst: FairnessInstance, plan: SamplingPlan) -> ExactMoments:
    """Exact moments of the statistic by exhaustive enumeration.

    Enumerates every count vector and, per group, every possible one-count
    with its probability (losses within a group are exchangeable, so the
    one-count is a sufficient statistic for the loss pattern).
    """
    k = inst.k
    n = plan.budget
    if k > ENUM_MAX_K or n > ENUM_MAX_N:
        raise InstanceTooLarge(f"enumeration limited to K <= {ENUM_MAX_K}, n <= {ENUM_MAX_N}")
    if plan.k != k:
        raise ValueError("plan and instance disagree on K")
    w = inst.weights
    mu = inst.mu_array().tolist()
    incl = plan.inclusion_probabilities().tolist()
    for g in range(k):
        if w[g] > 0 and incl[g][1] <= 0.0:
            raise ZeroInclusionProbability(g)

    e_f1 = e_f2 = e_f = e_f2_sq = 0.0
    e_t1 = np.zeros(k)
    e_t1_sq = np.zeros(k)
    e_t2 = np.zeros(k)
    e_t2_sq = np.zeros(k)
    dist: dict[float, float] = {}

    for m, p_counts in _count_vectors(plan):
        pmfs = [_binom_pmf(int(m[g]), mu[g]) for g in range(k)]
        for s in product(*[range(int(m[g]) + 1) for g in range(k)]):
            p = p_counts
            for g in range(k):
                p *= pmfs[g][s[g]]
            if p == 0.0:
                continue
            f1 = f2 = 0.0
            for g in range(k):
                sg, mg = s[g], int(m[g])
                t1 = (sg / mg) * ((sg - 1) / (mg - 1)) if mg >= 2 else 0.0
                t2 = sg / mg if mg >= 1 else 0.0
                e_t1[g] += p * t1
                e_t1_sq[g] += p * t1 * t1
                e_t2[g] += p * t2
                e_t2_sq[g] += p * t2 * t2
                if w[g] > 0:
                    p1, p2 = incl[g]
                    if p2 > 0:
                        f1 += (w[g] / p2) * t1
                    if p1 > 0:
                        f2 += (w[g] / p1) * t2
            f = f1 - f2 * f2
            e_f1 += p * f1
            e_f2 += p * f2
            e_f += p * f
            e_f2_sq += p * f2 * f2
            dist[f] = dist.get(f, 0.0) + p

    return ExactMoments(
        e_f1=e_f1,
        e_f2=e_f2,
        e_f=e_f,
        e_f2_sq=e_f2_sq,
        var_term1=tuple(float(e_t1_sq[g] - e_t1[g] ** 2) for g in range(k)),
        var_term2=tuple(float(e_t2_sq[g] - e_t2[g] ** 2) for g in range(k)),
        distribution=tuple(sorted(dist.items())),
    )
