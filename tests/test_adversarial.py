"""Tests for the worst-case instance constructors."""

import math
from itertools import product

import numpy as np
import pytest

from fairaudit.adversarial import (
    build_hard_pair,
    build_mixture_family,
    chi_sq_mixture_bound,
    exact_chi_sq_small,
    hellinger_sq,
)
from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.cvar_test import Region, classify_region
from fairaudit.errors import (
    EpsilonOutOfRange,
    InstanceTooLarge,
    InvalidEpsilon,
    NonUniformWeights,
    WeightMismatch,
)
from fairaudit.metrics import cvar_fairness, max_gap


class TestBuildHardPair:
    def test_four_groups_quarter(self):
        pair = build_hard_pair(4, 0.25)
        assert pair.p1.mu[0] == 0.5 + 0.25 * 4 / 3
        assert max_gap(pair.p0) == 0.0
        assert abs(max_gap(pair.p1) - 0.25) <= 1e-12
        assert max_gap(pair.p1) >= 0.25 - 1e-12

    def test_continuity_at_zero(self):
        pair = build_hard_pair(8, 1e-9)
        assert abs(pair.p1.mu[0] - 0.5) <= 2e-9

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            build_hard_pair(2, 0.5)  # perturbed mean would be 1.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_hard_pair(1, 0.1)
        with pytest.raises(ValueError):
            build_hard_pair(4, 0.0)
        with pytest.raises(ValueError):
            build_hard_pair(4, 0.6)

    def test_grid_max_gap(self):
        for k in (2, 4, 8, 16, 64, 256, 1024):
            for eps in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
                if 0.5 + eps * k / (k - 1) > 1.0:
                    continue
                pair = build_hard_pair(k, eps)
                assert max_gap(pair.p0) == 0.0
                assert max_gap(pair.p1) >= eps - 1e-12

    def test_p1_in_region_at_matching_alpha(self):
        # At alpha = 1 - 1/K the budget is exactly the perturbed group.
        for k in (4, 16, 64):
            pair = build_hard_pair(k, 0.3)
            assert classify_region(pair.p1, 1.0 - 1.0 / k, 0.3) is Region.P1
            assert classify_region(pair.p0, 1.0 - 1.0 / k, 0.3) is Region.P0


class TestHellingerSq:
    def test_identical_is_zero(self):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.2, 0.5, 0.8])
        assert hellinger_sq(inst, inst) == 0.0

    def test_known_value(self):
        # Single group, means a and b: w=1 and the closed form is direct.
        a = FairnessInstance(GroupWeights([1.0]), [0.0])
        b = FairnessInstance(GroupWeights([1.0]), [1.0])
        assert abs(hellinger_sq(a, b) - 2.0) <= 1e-12

    def test_rejects_weight_mismatch(self):
        a = FairnessInstance(GroupWeights([1.0]), [0.5])
        b = FairnessInstance(GroupWeights([0.5, 0.5]), [0.5, 0.5])
        with pytest.raises(WeightMismatch):
            hellinger_sq(a, b)

    def test_hard_pair_bound_example(self):
        pair = build_hard_pair(4, 0.25)
        bound = 2.0 - 2.0 * (1.0 - 2.0 * 0.25**2 / 4.0)
        assert abs(bound - 0.0625) <= 1e-15
        assert hellinger_sq(pair.p0, pair.p1) <= bound + 1e-12

    def test_hard_pair_bound_grid(self):
        for k in (4, 8, 16, 64, 256, 1024):
            for eps in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
                if 0.5 + eps * k / (k - 1) > 1.0:
                    continue
                pair = build_hard_pair(k, eps)
                bound = 2.0 - 2.0 * (1.0 - 2.0 * eps * eps / k)
                assert hellinger_sq(pair.p0, pair.p1) <= bound + 1e-12

    def test_two_group_exceeds_closed_form_bound(self):
        # With two groups the perturbed mean is 1/2 + 2*eps, and the exact
        # divergence 1 - (sqrt(1+4e) + sqrt(1-4e))/2 = 2e^2 + O(e^4) sits
        # strictly above 4e^2/K = 2e^2 for every valid epsilon.  The closed
        # form is only an upper bound for K >= 4 (see the ledger analysis).
        for eps in (0.05, 0.1, 0.2, 0.25):
            pair = build_hard_pair(2, eps)
            exact = hellinger_sq(pair.p0, pair.p1)
            closed = 1.0 - (math.sqrt(1 + 4 * eps) + math.sqrt(1 - 4 * eps)) / 2.0
            assert abs(exact - closed) <= 1e-12
            assert exact > 2.0 * eps * eps

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            a = FairnessInstance(w, rng.random(k))
            b = FairnessInstance(w, rng.random(k))
            assert abs(hellinger_sq(a, b) - hellinger_sq(b, a)) <= 1e-12
            assert hellinger_sq(a, b) >= 0.0


class TestBuildMixtureFamily:
    def test_member_in_p1(self):
        family = build_mixture_family(8, GroupWeights.uniform(8), 0.5, 0.2)
        member = family.member((1,) * len(family.q))
        assert classify_region(member, 0.5, 0.2) is Region.P1

    def test_p0_in_p0(self):
        family = build_mixture_family(8, GroupWeights.uniform(8), 0.5, 0.2)
        assert classify_region(family.p0, 0.5, 0.2) is Region.P0

    def test_all_members_in_p1(self):
        for k, alpha in ((4, 0.5), (8, 0.25), (8, 0.75), (16, 0.5)):
            eps = alpha / 8
            family = build_mixture_family(k, GroupWeights.uniform(k), alpha, eps)
            for _, member in family.members():
                assert (
                    cvar_fairness(member, alpha) >= eps - 1e-12
                ), (k, alpha, eps)

    def test_perturbations_bounded(self):
        # The construction must keep every mean inside [0, 1]:
        # tau * eps_g / w_g <= 1/2 for all perturbed groups.
        for k in (2, 4, 8, 64):
            for alpha in (0.25, 0.5, 0.75):
                if math.floor((1.0 - alpha) * k) < 1:
                    continue
                for frac in (0.3, 0.6, 1.0):
                    eps = frac * alpha / 4.0
                    family = build_mixture_family(
                        k, GroupWeights.uniform(k), alpha, eps
                    )
                    w = family.p0.weights
                    for pos, g in enumerate(family.q):
                        assert family.tau * family.eps_g[pos] / w[g] <= 0.5 + 1e-12

    def test_rejects_weights_of_another_length(self):
        with pytest.raises(ValueError, match="^weight vector length must equal k$"):
            build_mixture_family(8, GroupWeights.uniform(4), 0.5, 0.1)

    def test_rejects_non_uniform(self):
        with pytest.raises(NonUniformWeights):
            build_mixture_family(2, GroupWeights([0.4, 0.6]), 0.5, 0.05)

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(EpsilonOutOfRange):
            build_mixture_family(8, GroupWeights.uniform(8), 0.5, 0.9)
        # Inside (0, alpha K^(1/3) / 4], but each of the 32 perturbed groups
        # would move by tau * eps_g / w_g = 0.6.
        with pytest.raises(EpsilonOutOfRange, match="^perturbation 0.6 exceeds 1/2 for group 0"):
            build_mixture_family(64, GroupWeights.uniform(64), 0.5, 0.3)

    def test_rejects_alpha_outside_open_unit_interval(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\)"):
                build_mixture_family(8, GroupWeights.uniform(8), alpha, 0.1)

    def test_rejects_empty_q(self):
        # floor((1-alpha)K) = 0: no groups available to perturb.
        with pytest.raises(EpsilonOutOfRange):
            build_mixture_family(2, GroupWeights.uniform(2), 0.75, 0.05)

    def test_member_requires_sign_vector(self):
        family = build_mixture_family(4, GroupWeights.uniform(4), 0.5, 0.1)
        with pytest.raises(ValueError):
            family.member((1,))
        with pytest.raises(ValueError):
            family.member((0,) * len(family.q))


class TestChiSqMixtureBound:
    def test_zero_samples(self):
        b = chi_sq_mixture_bound(64, 0.5, 0.1, 0)
        assert b.statement == 0.0
        assert b.proof_chain == 0.0

    def test_known_value(self):
        b = chi_sq_mixture_bound(4096, 0.5, 0.1, 100)
        assert abs(b.statement - (math.exp(0.25) - 1.0)) <= 1e-12
        assert abs(b.statement - 0.2840254166877414) <= 1e-12

    def test_monotonicity(self):
        prev = 0.0
        for n in (1, 10, 100, 1000):
            cur = chi_sq_mixture_bound(64, 0.5, 0.1, n).statement
            assert cur > prev
            prev = cur
        prev = 0.0
        for eps in (0.01, 0.05, 0.1, 0.2):
            cur = chi_sq_mixture_bound(64, 0.5, eps, 50).statement
            assert cur > prev
            prev = cur
        prev = math.inf
        for k in (16, 64, 256, 1024):
            cur = chi_sq_mixture_bound(k, 0.5, 0.1, 50).statement
            assert cur < prev
            prev = cur

    def test_rejects_alpha_outside_open_unit_interval(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\)"):
                chi_sq_mixture_bound(64, alpha, 0.1, 10)

    def test_proof_chain_dominates_statement_uniform(self):
        # With uniform weights (sum w^(2/3))^3 = K, so the proof-chain
        # value carries the same exponent scaled by 8.
        for k, n in ((4, 3), (64, 10), (1024, 100)):
            b = chi_sq_mixture_bound(k, 0.5, 0.05, n)
            assert b.proof_chain >= b.statement - 1e-15


class TestExactChiSqSmall:
    def test_enumeration_limits(self):
        family = build_mixture_family(2, GroupWeights.uniform(2), 0.5, 0.05)
        with pytest.raises(InstanceTooLarge):
            exact_chi_sq_small(family, 7)

    def test_single_sample_nonnegative(self):
        family = build_mixture_family(2, GroupWeights.uniform(2), 0.5, 0.05)
        chi = exact_chi_sq_small(family, 1)
        assert chi >= -1e-12

    def test_tiny_epsilon_near_zero(self):
        family = build_mixture_family(2, GroupWeights.uniform(2), 0.5, 1e-6)
        chi = exact_chi_sq_small(family, 2)
        assert abs(chi) <= 1e-10

    def test_below_proof_chain_bound(self):
        for n in (1, 2, 3, 4):
            family = build_mixture_family(2, GroupWeights.uniform(2), 0.5, 0.05)
            chi = exact_chi_sq_small(family, n)
            bound = chi_sq_mixture_bound(2, 0.5, 0.05, n).proof_chain
            assert chi <= bound + 1e-12

    def test_matches_second_moment_formula(self):
        # Independent oracle: chi^2 + 1 = E_{u,u'}[ prod_z (sum_g p_u p_u' / p0) ]
        # reduces for product measures to
        # E_{u,u'}[ (1 + sum_{g in Q} 4 tau^2 eps_g^2 u_g u_g' / (w_g)) ^ n ]
        # when all means are 1/2 +- tau eps_g / w_g on uniform weights.
        family = build_mixture_family(4, GroupWeights.uniform(4), 0.5, 0.1)
        w = family.p0.weights
        q = family.q
        for n in (1, 2, 3):
            chi = exact_chi_sq_small(family, n)
            signs = list(product((-1, 1), repeat=len(q)))
            total = 0.0
            for u in signs:
                for up in signs:
                    inner = 1.0
                    for pos, g in enumerate(q):
                        d = family.tau * family.eps_g[pos]
                        inner += 4.0 * d * d * u[pos] * up[pos] / w[g]
                    total += inner**n
            expected = total / len(signs) ** 2 - 1.0
            assert abs(chi - expected) <= 1e-12
