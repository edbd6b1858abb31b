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
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .core import FairnessInstance, GroupWeights
from .errors import InstanceTooLarge, ZeroInclusionProbability
from .sampling import SamplingPlan

# Exhaustive enumeration limits for the exact-moment oracle.
ENUM_MAX_K = 4
ENUM_MAX_N = 8


class EstimatorValue(NamedTuple):
    """F1 and F2 of one audit, or arrays of them, one entry per trial; `f` is F1 - F2^2."""

    f1: float
    f2: float

    @property
    def f(self) -> float:
        return self.f1 - self.f2 * self.f2


def estimate_from_counts(
    s: Sequence[int],
    m: Sequence[int],
    w: GroupWeights,
    incl: tuple[np.ndarray, np.ndarray],
) -> EstimatorValue:
    """Compute the statistic from per-group one-counts S_g and totals M_g.

    `incl` is the plan's `inclusion_pair()`: float arrays of P[M_g >= 1] and
    P[M_g >= 2], one entry per group; under the attribute-specific plan it
    holds one array twice, which gives one normalizer array.  F1 sums over
    the groups with w_g > 0 and M_g >= 2, F2 over those with M_g >= 1, in
    group order; each term gathers its c, S and M once."""
    warr = w.as_array()
    sarr = np.asarray(s, dtype=float)
    marr = np.asarray(m, dtype=float)
    c1, c2 = _term_weights(warr, *incl)
    active = warr > 0  # zero-weight groups contribute identically zero
    at = np.flatnonzero(active & (marr >= 2))
    sg, mg = sarr.take(at), marr.take(at)
    f1 = float(np.sum(c1.take(at) * (sg / mg) * ((sg - 1.0) / (mg - 1.0))))
    at = np.flatnonzero(active & (marr >= 1))
    sg, mg = sarr.take(at), marr.take(at)
    f2 = float(np.sum(c2.take(at) * (sg / mg)))
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


def term_table(m: int, c: float | None = None) -> np.ndarray:
    """`estimate_entries`' table of an entry's two terms when M = m, indexed by S.

    The F1 term `_ratio_terms(np.arange(m + 1), m)[0]` is the real part and
    the F2 term the imaginary part, with the bits of the per-entry division.
    A scalar normalizer c scales each part on its own: (t * c)[S] has the
    bits of t[S] * c.
    """
    table = np.empty(m + 1, dtype=complex)
    table.real, table.imag = _ratio_terms(np.arange(m + 1), m)
    if c is not None:
        t1, t2 = table.real, table.imag  # views: each part scales in place
        t1 *= c
        t2 *= c
    return table


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
    table: np.ndarray,
    c: np.ndarray | None,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """F1 and F2 of `n_rows` trials given only their groups with M_g > 0.

    Entry i says that trial rows[i] saw s[i] ones in the m samples of group
    groups[i], and `table` is `term_table(m)`, or `term_table(m, c)` when all
    groups share one normalizer c.  `c` is the per-group normalizer of both
    terms (w_g / p_g under the attribute-specific plan), or None when the
    table carries it.  Only `c` reads the groups, so they may be None
    without it.  Groups a trial did not sample contribute nothing, so the
    cost is proportional to the number of entries, not to K.

    Each entry looks both terms up at once, and one `np.add.at` sums them
    into a complex array: it adds the real and the imaginary parts
    separately, entry by entry in entry order, so F1 and F2 have the bits of
    one `np.bincount` per term.  `c` scales each part on its own, not by a
    complex product, whose cross terms can change a bit at inf, NaN or -0.
    Any index into a table of those values serves in place of S, such as a
    row of a table of S values composed with it.
    """
    e = table.take(s)
    if c is not None:
        cg = c.take(groups)
        e1, e2 = e.real, e.imag  # views: each part scales in place
        e1 *= cg
        e2 *= cg
    out = np.zeros(n_rows, dtype=complex)
    np.add.at(out, rows, e)
    return out.real, out.imag


def estimate(
    data: Sequence[Sequence[int]],
    w: GroupWeights,
    incl: Sequence[tuple[float, float]],
) -> EstimatorValue:
    """Compute the statistic from per-group loss-bit sequences."""
    s = [sum(group) for group in data]
    m = [len(group) for group in data]
    p1, p2 = np.asarray(incl, dtype=float).T
    return estimate_from_counts(s, m, w, (p1, p2))


class ExactMoments(NamedTuple):
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


def _binom_pmf(m: int, mu: float) -> list[float]:
    """Probabilities of s ones out of m Bernoulli(mu) draws, s = 0..m."""
    return [math.comb(m, s) * mu**s * (1.0 - mu) ** (m - s) for s in range(m + 1)]


def exact_moments(inst: FairnessInstance, plan: SamplingPlan) -> ExactMoments:
    """Exact moments of the statistic by exhaustive enumeration.

    Enumerates every count vector of the plan's `count_law()` and, per
    group, every possible one-count with its probability (losses within a
    group are exchangeable, so the one-count is a sufficient statistic for
    the loss pattern).
    """
    k = inst.k
    n = plan.budget
    if k > ENUM_MAX_K or n > ENUM_MAX_N:
        raise InstanceTooLarge(f"enumeration limited to K <= {ENUM_MAX_K}, n <= {ENUM_MAX_N}")
    if plan.k != k:
        raise ValueError("plan and instance disagree on K")
    w = inst.weights
    mu = inst.mu_array().tolist()
    incl1, incl2 = (p.tolist() for p in plan.inclusion_pair())
    for g in range(k):
        if w[g] > 0 and incl2[g] <= 0.0:
            raise ZeroInclusionProbability(g)

    e_f1 = e_f2 = e_f = e_f2_sq = 0.0
    e_t1 = np.zeros(k)
    e_t1_sq = np.zeros(k)
    e_t2 = np.zeros(k)
    e_t2_sq = np.zeros(k)
    dist: dict[float, float] = {}

    for m, p_counts in plan.count_law():
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
                    p1, p2 = incl1[g], incl2[g]
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
