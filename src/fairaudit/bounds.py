"""Closed-form sample-complexity and error-probability calculators.

`build_report` gives the four sample sizes for one (w, alpha, epsilon, delta).
Achievable bounds carry the explicit constants from their proofs (64e and
128e for the weighted plan, 256 for the attribute-specific plan).  Converse
bounds are order-of-growth only; their returned values use constant 1 and are
flagged `order_only` so scaffolding constants cannot be mistaken for sharp
claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GroupWeights
from .sampling import OPTIMAL_ETA, weighted_marginal


def renyi_entropy(w: GroupWeights, rho: float) -> float:
    """Renyi entropy H_rho(w) = (1/(1-rho)) * log2 sum_g w_g^rho, in bits.

    Zero-mass groups contribute nothing.  rho = 1 is the Shannon limit; use
    shannon_entropy for it.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if rho == 1.0:
        raise ValueError("rho = 1 is the Shannon limit; use shannon_entropy")
    arr = w.as_array()
    support = arr[arr > 0]
    if rho == 0.0:
        total = float(len(support))
    else:
        total = float(np.sum(support**rho))
    return math.log2(total) / (1.0 - rho)


def shannon_entropy(w: GroupWeights) -> float:
    """Shannon entropy in bits (continuous extension of H_rho at rho = 1)."""
    arr = w.as_array()
    support = arr[arr > 0]
    return float(-np.sum(support * np.log2(support)))


def _tilt_sums(w: GroupWeights, v: GroupWeights) -> tuple[float, float]:
    """(sum_g w_g^2 / v_g^2, sum_g w_g^2 / v_g) over the groups with w_g > 0."""
    warr = w.as_array()
    varr = v.as_array()
    mask = warr > 0
    return (
        float(np.sum(warr[mask] ** 2 / varr[mask] ** 2)),
        float(np.sum(warr[mask] ** 2 / varr[mask])),
    )


@dataclass(frozen=True)
class PErrorBound:
    value: float

    @property
    def vacuous(self) -> bool:
        return self.value > 1.0


def p_error_weighted(
    w: GroupWeights, v: GroupWeights, n: int, alpha: float, epsilon: float
) -> PErrorBound:
    """Error-probability upper bound for the weighted plan.

    64e * sum w^2/v^2 / ((1-a)^2 e^4 n^2)  +  128e * sum w^2/v / ((1-a)^2 e^4 n).
    Returned unclamped; check `.vacuous`.
    """
    if np.any((w.as_array() > 0) & (v.as_array() <= 0)):
        raise ValueError("v must be positive wherever w is positive")
    s_vv, s_v = _tilt_sums(w, v)
    c = (1.0 - alpha) ** 2 * epsilon**4
    value = 64.0 * math.e * s_vv / (c * n * n) + 128.0 * math.e * s_v / (c * n)
    return PErrorBound(value)


def p_error_attr(n: int, alpha: float, epsilon: float) -> PErrorBound:
    """Error-probability upper bound for the attribute-specific plan.

    256 / ((1-alpha)^2 epsilon^4 n); independent of the number of groups.
    Valid in the regime where the plan's budget identity holds
    (gamma * w_g <= 1 for all groups with gamma = n/2).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return PErrorBound(256.0 / ((1.0 - alpha) ** 2 * epsilon**4 * n))


@dataclass(frozen=True)
class SampleSize:
    n: float
    order_only: bool


def _round_up(n: float) -> float:
    """math.ceil(n), except that a size that overflowed stays inf."""
    return math.ceil(n) if math.isfinite(n) else n


def le_cam_error_floor(k: int, epsilon: float, n: int) -> float:
    """Two-point lower bound on the error probability of any audit test.

    max(0, (1 - sqrt(2 (1 - (1 - 2 eps^2/K)^n))) / 2).  The quantity inside
    the outer parentheses lower-bounds twice the best achievable error, so
    the returned value floors the error probability itself; n = 0 gives 0.5.
    """
    if epsilon > 0.5:
        raise ValueError(f"epsilon must be <= 0.5, got {epsilon}")
    x = 1.0 - 2.0 * epsilon**2 / k
    inner = 2.0 * (1.0 - x**n)
    return max(0.0, (1.0 - math.sqrt(inner)) / 2.0)


@dataclass(frozen=True)
class BoundReport:
    renyi_23: float
    n_weighted: SampleSize
    n_attr: SampleSize
    n_converse_maxgap: SampleSize
    n_converse_cvar: SampleSize
    alpha: float
    epsilon: float
    delta: float


def build_report(w: GroupWeights, alpha: float, epsilon: float, delta: float = 0.01) -> BoundReport:
    """All closed-form quantities for one (w, alpha, epsilon, delta).

    n_weighted        - the weighted bound inverted at its optimal tilt
                        v = w^(2/3), so that it equals delta (explicit constants)
    n_attr            - 256 / ((1-alpha)^2 epsilon^4 delta) (explicit constant)
    n_converse_maxgap - K / epsilon^2, order of growth only
    n_converse_cvar   - alpha^2 sqrt(K) / (sqrt(1-alpha) epsilon^2), order only

    An achievable size too large for a float is inf.
    """
    renyi_23 = renyi_entropy(w, 2.0 / 3.0)
    c = (1.0 - alpha) ** 2 * epsilon**4
    s_vv, s_v = _tilt_sums(w, weighted_marginal(w, OPTIMAL_ETA))
    a1 = 64.0 * math.e * s_vv / c
    a2 = 128.0 * math.e * s_v / c
    # delta = a1/n^2 + a2/n  =>  delta n^2 - a2 n - a1 = 0
    n_weighted = (a2 + math.sqrt(a2 * a2 + 4.0 * delta * a1)) / (2.0 * delta)
    return BoundReport(
        renyi_23=renyi_23,
        n_weighted=SampleSize(n=_round_up(n_weighted), order_only=False),
        n_attr=SampleSize(n=_round_up(256.0 / (c * delta)), order_only=False),
        n_converse_maxgap=SampleSize(n=w.k / epsilon**2, order_only=True),
        n_converse_cvar=SampleSize(
            n=alpha**2 * math.sqrt(w.k) / (math.sqrt(1.0 - alpha) * epsilon**2),
            order_only=True,
        ),
        alpha=alpha,
        epsilon=epsilon,
        delta=delta,
    )
