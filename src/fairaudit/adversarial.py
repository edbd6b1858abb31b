"""Worst-case instance constructors used by the converse (lower-bound) results.

Two families:

* A hard pair: a perfectly fair instance (all conditional means 1/2) versus a
  single-group perturbation whose max gap is exactly epsilon.  Their n-sample
  distinguishability is controlled through Hellinger distance and a two-point
  (Le Cam) argument.
* A mixture family: a Rademacher-signed perturbation of a subset Q of groups
  carrying mass at most 1 - alpha, every member of which has CVaR fairness at
  least epsilon.  Distinguishability of the mixture from the fair instance is
  controlled through a chi-square bound computed by the Ingster-Suslina
  second-moment method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import FairnessInstance, GroupWeights
from .errors import (
    EpsilonOutOfRange,
    InstanceTooLarge,
    InvalidEpsilon,
    NonUniformWeights,
    WeightMismatch,
)

# Enumeration limits for the exact chi-square oracle.
CHI_SQ_MAX_N = 6
CHI_SQ_MAX_K = 4


@dataclass(frozen=True)
class HardPair:
    p0: FairnessInstance
    p1: FairnessInstance
    epsilon: float


def build_hard_pair(k: int, epsilon: float) -> HardPair:
    """Fair instance vs single perturbed group, uniform weights.

    p0 has every conditional mean 1/2; p1 moves one group's mean to
    1/2 + epsilon * K / (K - 1), which yields max gap exactly epsilon.
    """
    if k < 2:
        raise ValueError(f"need at least 2 groups, got {k}")
    if not (0.0 < epsilon <= 0.5):
        raise ValueError(f"epsilon must be in (0, 0.5], got {epsilon}")
    w = GroupWeights.uniform(k)
    perturbed = 0.5 + epsilon * k / (k - 1)
    if perturbed > 1.0:
        raise InvalidEpsilon(
            f"perturbed mean {perturbed} > 1 for K={k}, epsilon={epsilon}"
        )
    mu0 = [0.5] * k
    mu1 = [perturbed] + [0.5] * (k - 1)
    return HardPair(
        p0=FairnessInstance(w, mu0),
        p1=FairnessInstance(w, mu1),
        epsilon=epsilon,
    )


def hellinger_sq(a: FairnessInstance, b: FairnessInstance) -> float:
    """Squared Hellinger distance between the joint (loss, group) laws.

    Both instances must share the same group weights; the joint factorizes
    through the shared group marginal.
    """
    if a.weights != b.weights:
        raise WeightMismatch("instances must share group weights")
    total = 0.0
    mu_a, mu_b = a.mu_array().tolist(), b.mu_array().tolist()
    for g in range(a.k):
        wg = a.weights[g]
        pa, pb = mu_a[g], mu_b[g]
        total += wg * (
            (math.sqrt(pa) - math.sqrt(pb)) ** 2
            + (math.sqrt(1.0 - pa) - math.sqrt(1.0 - pb)) ** 2
        )
    return total


@dataclass(frozen=True)
class MixtureFamily:
    p0: FairnessInstance
    q: tuple[int, ...]  # perturbed group subset
    tau: float
    eps_g: tuple[float, ...]  # per-group perturbation sizes, indexed by Q position
    epsilon: float
    alpha: float

    @property
    def k(self) -> int:
        return self.p0.k

    def member(self, u: tuple[int, ...]) -> FairnessInstance:
        """The instance indexed by a sign vector u over Q."""
        if len(u) != len(self.q) or any(x not in (-1, 1) for x in u):
            raise ValueError("u must be a +/-1 vector over Q")
        w = self.p0.weights
        mu = self.p0.mu_array().tolist()
        for pos, g in enumerate(self.q):
            mu[g] = 0.5 + self.tau * self.eps_g[pos] * u[pos] / w[g]
        return FairnessInstance(w, mu)

    def members(self):
        """All 2^|Q| members under the uniform Rademacher prior."""
        for u in product((-1, 1), repeat=len(self.q)):
            yield u, self.member(u)


def build_mixture_family(k: int, w: GroupWeights, alpha: float, epsilon: float) -> MixtureFamily:
    """Rademacher-perturbed family over the first floor((1-alpha)K) groups.

    Requires uniform weights.  Every member has CVaR fairness at level alpha
    of at least epsilon; the unperturbed p0 has CVaR fairness zero.
    """
    if w.k != k:
        raise ValueError("weight vector length must equal k")
    if np.any(np.abs(w.as_array() - 1.0 / k) > 1e-12):
        raise NonUniformWeights("mixture construction requires uniform weights")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    eps_max = alpha * k ** (1.0 / 3.0) / 4.0
    if not (0.0 < epsilon <= eps_max):
        raise EpsilonOutOfRange(
            f"epsilon must be in (0, {eps_max}] for K={k}, alpha={alpha}"
        )
    q_size = math.floor((1.0 - alpha) * k)
    if q_size < 1:
        raise EpsilonOutOfRange(
            f"floor((1-alpha)K) = 0 for K={k}, alpha={alpha}; no groups to perturb"
        )
    q = tuple(range(q_size))
    tau = (1.0 - alpha) / alpha
    w23 = [w[g] ** (2.0 / 3.0) for g in q]
    denom = sum(w23)
    eps_g = tuple(epsilon * x / denom for x in w23)
    # Perturbed means must stay inside [0, 1]; the stated epsilon range does
    # not always guarantee this, so check the actual construction.
    for pos, g in enumerate(q):
        if tau * eps_g[pos] / w[g] > 0.5 + 1e-12:
            raise EpsilonOutOfRange(
                f"perturbation {tau * eps_g[pos] / w[g]} exceeds 1/2 for group {g}; "
                f"reduce epsilon"
            )
    p0 = FairnessInstance(w, [0.5] * k)
    return MixtureFamily(p0=p0, q=q, tau=tau, eps_g=eps_g, epsilon=epsilon, alpha=alpha)


@dataclass(frozen=True)
class ChiSqBound:
    """Closed-form chi-square upper bounds for the n-fold mixture vs p0^n.

    `statement` uses the constant 128 with denominator alpha^4 * K; the
    `proof_chain` variant carries constant 1024 and routes through
    (sum_g w_g^(2/3))^3.  The two disagree by a constant factor; both are
    exposed rather than reconciled.
    """

    statement: float
    proof_chain: float


def chi_sq_mixture_bound(k: int, alpha: float, epsilon: float, n: int) -> ChiSqBound:
    """Closed-form bounds on chi^2(mixture of n-fold members || p0^n)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    def expm1_or_inf(x: float) -> float:
        # The bound grows like exp(n^2); saturate instead of overflowing.
        return math.expm1(x) if x < 700.0 else math.inf

    w23_sum = k * (1.0 / k) ** (2.0 / 3.0)  # uniform weights
    statement = expm1_or_inf(
        128.0 * (1.0 - alpha) * n * n * epsilon**4 / (alpha**4 * k)
    )
    proof_chain = expm1_or_inf(
        1024.0 * (1.0 - alpha) * n * n * epsilon**4 / (alpha**4 * w23_sum**3)
    )
    return ChiSqBound(statement=statement, proof_chain=proof_chain)


def exact_chi_sq_small(family: MixtureFamily, n: int) -> float:
    """Exact chi^2 of the n-fold Rademacher mixture against p0^n.

    Brute-force enumeration over every outcome sequence in ((loss, group))^n:
    chi^2 = sum_z mixture(z)^2 / p0(z) - 1, with the mixture probability
    averaged over all members.  Limited to tiny n and K.
    """
    k = family.k
    if n > CHI_SQ_MAX_N or k > CHI_SQ_MAX_K:
        raise InstanceTooLarge(f"enumeration limited to n <= {CHI_SQ_MAX_N}, K <= {CHI_SQ_MAX_K}")
    w = family.p0.weights.as_array()

    def joint(inst: FairnessInstance) -> np.ndarray:
        # probability of each outcome (loss, group), flattened loss-major
        mu = inst.mu_array()
        return np.concatenate([w * mu, w * (1.0 - mu)])

    p0 = joint(family.p0)
    members = [joint(inst) for _, inst in family.members()]
    n_outcomes = 2 * k
    chi = 0.0
    for seq in product(range(n_outcomes), repeat=n):
        mix = 0.0
        for pm in members:
            prob = 1.0
            for z in seq:
                prob *= pm[z]
            mix += prob
        mix /= len(members)
        base = 1.0
        for z in seq:
            base *= p0[z]
        chi += mix * mix / base
    return chi - 1.0
