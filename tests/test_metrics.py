"""Tests for the exact fairness metrics."""

import numpy as np
import pytest

from conftest import _random_instances
from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.cvar_test import Region, classify_region
from fairaudit.errors import InstanceTooLarge
from fairaudit.metrics import (
    CVaRMode,
    alpha_star,
    average_quality,
    cvar_fairness,
    gap_vector,
    max_gap,
    separation_statistic,
)

FOUR_GROUP = FairnessInstance(GroupWeights.uniform(4), [0.5, 0.5, 0.5, 1.0])
TWO_GROUP = FairnessInstance(GroupWeights([0.5, 0.5]), [0.5, 0.9])


def random_instance(rng, k=None):
    if k is None:
        k = int(rng.integers(2, 11))
    if rng.random() < 0.5:
        w = GroupWeights.uniform(k)
    else:
        raw = rng.dirichlet(np.ones(k))
        w = GroupWeights(raw / raw.sum())
    mu = rng.random(k)
    return FairnessInstance(w, mu)


class TestAverageQuality:
    def test_two_group(self):
        assert abs(average_quality(TWO_GROUP) - 0.7) <= 1e-12

    def test_four_group(self):
        assert abs(average_quality(FOUR_GROUP) - 0.625) <= 1e-12

    def test_constant_means(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            c = float(rng.random())
            inst = FairnessInstance(GroupWeights(rng.dirichlet(np.ones(k))), [c] * k)
            assert abs(average_quality(inst) - c) <= 1e-12


class TestGapVector:
    def test_two_group(self):
        gv = gap_vector(TWO_GROUP)
        assert np.allclose(gv.delta, (0.2, 0.2), atol=1e-12)
        assert abs(gv.lbar - 0.7) <= 1e-12

    def test_four_group(self):
        gv = gap_vector(FOUR_GROUP)
        assert np.allclose(gv.delta, (0.125, 0.125, 0.125, 0.375), atol=1e-12)

    def test_all_equal_is_zero(self):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.4, 0.4, 0.4])
        assert gap_vector(inst).delta == (0.0, 0.0, 0.0)


class TestMaxGap:
    def test_two_group(self):
        assert abs(max_gap(TWO_GROUP) - 0.2) <= 1e-12

    def test_all_equal(self):
        inst = FairnessInstance(GroupWeights.uniform(5), [0.3] * 5)
        assert max_gap(inst) == 0.0

    def test_single_perturbed_group(self):
        # One of 4 uniform groups at 1/2 + epsilon*4/3, the rest at 1/2:
        # the weighted mean shifts so the perturbed group's gap is epsilon.
        eps = 0.25
        inst = FairnessInstance(
            GroupWeights.uniform(4), [0.5 + eps * 4 / 3, 0.5, 0.5, 0.5]
        )
        assert abs(max_gap(inst) - eps) <= 1e-12


def _fractional_loop(inst, alpha):
    """Oracle: the greedy fill as a plain loop over groups in gap order."""
    budget = 1.0 - alpha
    w = inst.weights.as_array()
    delta = np.abs(inst.mu_array() - average_quality(inst))
    used = 0.0
    total = 0.0
    for g in np.argsort(-delta, kind="stable"):
        if w[g] <= 0.0:
            continue  # no mass to take; later groups may still have some
        take = min(w[g], budget - used)
        if take <= 0.0:
            break
        total += take * delta[g]
        used += take
    return float(total / budget)


class TestCVaRFairness:
    def test_alpha_zero_is_average_gap(self):
        assert abs(cvar_fairness(FOUR_GROUP, 0.0) - 0.1875) <= 1e-12

    def test_single_group_budget_recovers_max(self):
        for mode in CVaRMode:
            assert abs(cvar_fairness(FOUR_GROUP, 0.75, mode) - 0.375) <= 1e-12

    def test_fractional_partial_group(self):
        # Budget 0.375 takes all of the worst group (0.25 mass at gap 0.375)
        # and 0.125 mass of the next at gap 0.125.
        expected = (0.25 * 0.375 + 0.125 * 0.125) / 0.375
        got = cvar_fairness(FOUR_GROUP, 0.625, CVaRMode.FRACTIONAL)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.2916666666666667) <= 1e-12

    def test_exact_subset_partial_budget(self):
        # At budget 0.375 only single-group subsets fit; best is the 0.375-gap
        # group: 0.25 * 0.375 / 0.375 = 0.25.
        got = cvar_fairness(FOUR_GROUP, 0.625, CVaRMode.EXACT_SUBSET)
        assert abs(got - 0.25) <= 1e-12

    def test_exact_subset_large_k_rejected(self):
        inst = FairnessInstance(GroupWeights.uniform(26), [0.5] * 26)
        with pytest.raises(InstanceTooLarge):
            cvar_fairness(inst, 0.5, CVaRMode.EXACT_SUBSET)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            cvar_fairness(FOUR_GROUP, 1.0)
        with pytest.raises(ValueError):
            cvar_fairness(FOUR_GROUP, -0.1)

    def test_sandwich_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            inst = random_instance(rng)
            mg = max_gap(inst)
            for alpha in (0.0, 0.25, 0.5, 0.9):
                val = cvar_fairness(inst, alpha)
                assert -1e-12 <= val <= mg + 1e-12 <= 1.0 + 2e-12

    def test_fractional_dominates_exact_subset(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            inst = random_instance(rng, k=int(rng.integers(2, 7)))
            for alpha in (0.1, 0.5, 0.8):
                frac = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
                exact = cvar_fairness(inst, alpha, CVaRMode.EXACT_SUBSET)
                assert frac >= exact - 1e-12

    def test_modes_agree_at_integral_budget(self):
        # Uniform weights with (1-alpha)*K an integer: the greedy fill ends
        # exactly on a group boundary, so both modes coincide.
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            inst = FairnessInstance(GroupWeights.uniform(k), rng.random(k))
            for j in range(1, k + 1):
                alpha = 1.0 - j / k
                frac = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
                exact = cvar_fairness(inst, alpha, CVaRMode.EXACT_SUBSET)
                assert abs(frac - exact) <= 1e-12

    def test_fractional_matches_loop_exactly(self):
        for inst in _random_instances():
            for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, alpha_star(inst)):
                assert cvar_fairness(inst, alpha) == _fractional_loop(inst, alpha)

    def test_fractional_matches_loop_with_zero_weights(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            k = int(rng.integers(2, 11))
            w = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.6)
            if not w.any():
                w[0] = 1.0
            inst = FairnessInstance(GroupWeights(w / w.sum()), rng.random(k))
            for alpha in (0.0, 0.3, 0.6, 0.9):
                assert cvar_fairness(inst, alpha) == _fractional_loop(inst, alpha)

    def test_zero_weight_group_does_not_stop_the_fill(self):
        # The zero-weight group has the largest gap and comes first in gap
        # order; it must be skipped, not end the fill at zero mass.
        inst = FairnessInstance(GroupWeights([0.0, 0.5, 0.5]), [1.0, 0.0, 1.0])
        frac = cvar_fairness(inst, 0.5, CVaRMode.FRACTIONAL)
        assert frac == cvar_fairness(inst, 0.5, CVaRMode.EXACT_SUBSET) == 0.5
        assert classify_region(inst, 0.5, 0.5) is Region.P1

    def test_modes_agree_with_zero_weight_groups(self):
        # Positive weights are quarters, so budgets 1/4..1 end on a group
        # boundary and the relaxation is tight.
        rng = np.random.default_rng(15)
        for _ in range(50):
            k = int(rng.integers(5, 9))
            w = np.zeros(k)
            w[rng.choice(k, size=4, replace=False)] = 0.25
            inst = FairnessInstance(GroupWeights(w), rng.random(k))
            for alpha in (0.0, 0.25, 0.5, 0.75):
                frac = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
                exact = cvar_fairness(inst, alpha, CVaRMode.EXACT_SUBSET)
                assert abs(frac - exact) <= 1e-12

    def test_zero_gap_instance(self):
        inst = FairnessInstance(GroupWeights.uniform(4), [0.7] * 4)
        for alpha in (0.0, 0.5, 0.99):
            assert cvar_fairness(inst, alpha) == 0.0


class TestAlphaStar:
    def test_uniform(self):
        for k in (2, 4, 10):
            inst = FairnessInstance(GroupWeights.uniform(k), [1.0] + [0.0] * (k - 1))
            assert abs(alpha_star(inst) - (1.0 - 1.0 / k)) <= 1e-12

    def test_non_uniform(self):
        inst = FairnessInstance(GroupWeights([0.9, 0.1]), [0.5, 0.9])
        assert abs(alpha_star(inst) - 0.9) <= 1e-12

    def test_tie_takes_smallest_weight(self):
        inst = FairnessInstance(GroupWeights([0.7, 0.3]), [0.4, 0.4])
        # All gaps equal (zero); tie broken toward the lightest group.
        assert abs(alpha_star(inst) - 0.7) <= 1e-12

    def test_recovers_max_gap(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            inst = random_instance(rng)
            a = alpha_star(inst)
            for mode in CVaRMode:
                got = cvar_fairness(inst, a, mode)
                assert abs(got - max_gap(inst)) <= 1e-12


class TestSeparationStatistic:
    def test_all_equal(self):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.6] * 3)
        assert separation_statistic(inst) == 0.0

    def test_two_group(self):
        assert abs(separation_statistic(TWO_GROUP) - 0.04) <= 1e-12

    def test_four_group(self):
        assert abs(separation_statistic(FOUR_GROUP) - 0.046875) <= 1e-12

    def test_equals_weighted_gap_square(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            inst = random_instance(rng)
            d = separation_statistic(inst)
            gv = gap_vector(inst)
            alt = float(
                np.dot(inst.weights.as_array(), np.asarray(gv.delta) ** 2)
            )
            assert abs(d - alt) <= 1e-12

    def test_lower_bounds_cvar_square(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            inst = random_instance(rng, k=int(rng.integers(2, 9)))
            d = separation_statistic(inst)
            for alpha in (0.0, 0.25, 0.5, 0.9):
                cv = cvar_fairness(inst, alpha)
                assert d >= (1.0 - alpha) * cv * cv - 1e-12


class TestPermutationInvariance:
    def test_all_outputs_stable_under_permutation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_instance(rng)
            perm = rng.permutation(inst.k)
            w = inst.weights.as_array()
            mu = inst.mu_array()
            permuted = FairnessInstance(GroupWeights(w[perm]), mu[perm])
            assert abs(average_quality(inst) - average_quality(permuted)) <= 1e-12
            assert abs(max_gap(inst) - max_gap(permuted)) <= 1e-12
            assert abs(alpha_star(inst) - alpha_star(permuted)) <= 1e-12
            assert (
                abs(separation_statistic(inst) - separation_statistic(permuted))
                <= 1e-12
            )
            for alpha in (0.0, 0.5, 0.9):
                assert (
                    abs(cvar_fairness(inst, alpha) - cvar_fairness(permuted, alpha))
                    <= 1e-12
                )
            gv = gap_vector(inst)
            gv_p = gap_vector(permuted)
            assert np.allclose(np.asarray(gv.delta)[perm], gv_p.delta, atol=1e-12)
