"""Tests for the closed-form bound calculators."""

import math

import numpy as np
import pytest

from fairaudit.bounds import (
    build_report,
    le_cam_error_floor,
    p_error_attr,
    p_error_weighted,
    renyi_entropy,
    shannon_entropy,
)
from fairaudit.core import GroupWeights
from fairaudit.sampling import OPTIMAL_ETA, weighted_marginal


class TestRenyiEntropy:
    def test_uniform_is_log_k(self):
        for k in (2, 16, 100):
            w = GroupWeights.uniform(k)
            for rho in (0.0, 2.0 / 3.0, 2.0):
                assert abs(renyi_entropy(w, rho) - math.log2(k)) <= 1e-9

    def test_point_mass_is_zero(self):
        w = GroupWeights([1.0, 0.0, 0.0])
        for rho in (0.0, 0.5, 2.0):
            assert renyi_entropy(w, rho) == 0.0

    def test_two_point_value(self):
        # H_{2/3}((0.8, 0.2)) = 3 * log2(0.8^{2/3} + 0.2^{2/3}).
        got = renyi_entropy(GroupWeights([0.8, 0.2]), 2.0 / 3.0)
        expected = 3.0 * math.log2(0.8 ** (2.0 / 3.0) + 0.2 ** (2.0 / 3.0))
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.8026759431540641) <= 1e-12
        # Cross-check through the exponentiated identity 2^H = (sum w^{2/3})^3.
        assert abs(2.0**got - (0.8 ** (2.0 / 3.0) + 0.2 ** (2.0 / 3.0)) ** 3) <= 1e-12

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy(GroupWeights([0.5, 0.5]), 1.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy(GroupWeights([0.5, 0.5]), -1.0)

    def test_half_exponent_below_sqrt_k(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            k = int(rng.integers(2, 20))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            h = renyi_entropy(w, 2.0 / 3.0)
            assert 2.0 ** (h / 2.0) <= math.sqrt(k) + 1e-9


class TestShannonEntropy:
    def test_uniform(self):
        assert abs(shannon_entropy(GroupWeights.uniform(8)) - 3.0) <= 1e-12

    def test_point_mass(self):
        assert shannon_entropy(GroupWeights([1.0, 0.0])) == 0.0

    def test_between_renyi_neighbors(self):
        # H_rho is non-increasing in rho, so H_2 <= H_1 <= H_{2/3}.
        rng = np.random.default_rng(52)
        for _ in range(100):
            k = int(rng.integers(2, 10))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            h1 = shannon_entropy(w)
            assert renyi_entropy(w, 2.0) <= h1 + 1e-9
            assert h1 <= renyi_entropy(w, 2.0 / 3.0) + 1e-9


class TestPErrorWeighted:
    def test_plug_in_value(self):
        k = 64
        w = GroupWeights.uniform(k)
        alpha, eps, n = 0.0, 0.5, 10**4
        b = p_error_weighted(w, w, n, alpha, eps)
        c = eps**4
        expected = 64 * math.e * k / (c * n * n) + 128 * math.e / (c * n)
        assert abs(b.value - expected) <= 1e-12

    def test_monotone_decreasing_in_n(self):
        w = GroupWeights.uniform(4)
        prev = math.inf
        for n in (10, 100, 1000, 10**6):
            cur = p_error_weighted(w, w, n, 0.5, 0.2).value
            assert cur < prev
            prev = cur

    def test_epsilon_scaling(self):
        # Doubling epsilon divides the bound by 16 (both terms scale as e^-4).
        w = GroupWeights.uniform(4)
        a = p_error_weighted(w, w, 100, 0.5, 0.1).value
        b = p_error_weighted(w, w, 100, 0.5, 0.2).value
        assert abs(a / b - 16.0) <= 1e-9

    def test_vacuous_flag(self):
        w = GroupWeights.uniform(4)
        assert p_error_weighted(w, w, 2, 0.5, 0.1).vacuous
        assert not p_error_weighted(w, w, 10**9, 0.5, 0.5).vacuous

    def test_rejects_zero_v_on_support(self):
        w = GroupWeights([0.5, 0.5])
        v = GroupWeights([1.0, 0.0])
        with pytest.raises(ValueError):
            p_error_weighted(w, v, 100, 0.5, 0.1)


class TestPErrorAttr:
    def test_plug_in_value(self):
        assert abs(p_error_attr(25600, 0.0, 1.0).value - 0.01) <= 1e-15

    def test_halves_when_n_doubles(self):
        a = p_error_attr(1000, 0.5, 0.3).value
        b = p_error_attr(2000, 0.5, 0.3).value
        assert abs(a / b - 2.0) <= 1e-12

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            p_error_attr(1, 0.5, 0.3)


class TestNRequired:
    """The required sample sizes: the n_* fields of build_report."""

    def test_attr_value(self):
        size = build_report(GroupWeights.uniform(16), 0.0, 0.5, 0.01).n_attr
        assert size.n == 409600
        assert not size.order_only

    def test_attr_independent_of_k(self):
        # The formula takes no K at all; the report confirms it stays put.
        sizes = {
            build_report(GroupWeights.uniform(k), 0.5, 0.2).n_attr.n
            for k in (2, 16, 256)
        }
        assert len(sizes) == 1

    def test_weighted_opt_inverts_bound(self):
        # The returned n makes the weighted bound (at the optimal tilt) dip
        # to delta or below.
        for k in (2, 16, 256):
            w = GroupWeights.uniform(k)
            v = weighted_marginal(w, OPTIMAL_ETA)
            for delta in (0.1, 0.01):
                size = build_report(w, 0.5, 0.2, delta).n_weighted
                n = int(size.n)
                assert p_error_weighted(w, v, n, 0.5, 0.2).value <= delta + 1e-9
                assert p_error_weighted(w, v, n - 2, 0.5, 0.2).value > delta

    def test_weighted_opt_sqrt_k_leading_term(self):
        # Large-K regime where the sqrt(K)/n^2 term dominates the K-free 1/n
        # term: doubling K multiplies n by about sqrt(2).
        n1 = build_report(GroupWeights.uniform(2**20), 0.0, 0.5, 0.5).n_weighted.n
        n2 = build_report(GroupWeights.uniform(2**21), 0.0, 0.5, 0.5).n_weighted.n
        assert abs(n2 / n1 - math.sqrt(2.0)) <= 0.05

    def test_converse_values_flagged(self):
        size = build_report(GroupWeights.uniform(64), 0.0, 0.1).n_converse_maxgap
        assert size.order_only
        assert abs(size.n - 64 / 0.01) <= 1e-9
        size = build_report(GroupWeights.uniform(256), 0.5, 0.1).n_converse_cvar
        assert size.order_only
        expected = 0.25 * 16.0 / (math.sqrt(0.5) * 0.01)
        assert abs(size.n - expected) <= 1e-9

    def test_overflowing_sizes_are_inf(self):
        # (1 - alpha)^2 epsilon^4 delta = 2.5e-315 > 0, but both sizes overflow.
        w = GroupWeights.uniform(16)
        report = build_report(w, 0.5, 0.1, 1e-310)
        for size in (report.n_weighted, report.n_attr):
            assert size.n == math.inf and not size.order_only
        assert build_report(w, 0.5, 0.1, 1e-300).n_attr.n < math.inf

    def test_weighted_above_attr_and_growing(self):
        # With these proof constants the weighted requirement exceeds the
        # attribute-specific one at every K and the gap widens with K.
        prev_ratio = 0.0
        for k in (2, 8, 64, 1024):
            w = GroupWeights.uniform(k)
            report = build_report(w, 0.5, 0.2)
            nw, na = report.n_weighted.n, report.n_attr.n
            ratio = nw / na
            assert ratio > 1.0
            assert ratio > prev_ratio
            prev_ratio = ratio


class TestLeCamErrorFloor:
    def test_no_data_is_coin_flip(self):
        assert le_cam_error_floor(64, 0.3, 0) == 0.5

    def test_monotone_nonincreasing_in_n(self):
        prev = 1.0
        for n in (0, 1, 2, 8, 64, 512):
            cur = le_cam_error_floor(64, 0.25, n)
            assert cur <= prev + 1e-15
            prev = cur

    def test_cross_check_direct_power(self):
        k, eps, n = 64, 0.25, 64
        x = (1.0 - 2.0 * eps * eps / k) ** n
        expected = max(0.0, (1.0 - math.sqrt(2.0 * (1.0 - x))) / 2.0)
        assert abs(le_cam_error_floor(k, eps, n) - expected) <= 1e-12

    def test_clamped_at_zero_for_large_n(self):
        assert le_cam_error_floor(4, 0.5, 10**6) == 0.0

    def test_rejects_large_epsilon(self):
        with pytest.raises(ValueError):
            le_cam_error_floor(4, 0.6, 10)


class TestBuildReport:
    def test_uniform_16(self):
        report = build_report(GroupWeights.uniform(16), 0.5, 0.1, 0.01)
        assert abs(report.renyi_23 - 4.0) <= 1e-9
        assert report.n_attr.n == math.ceil(256.0 / (0.25 * 0.1**4 * 0.01))
        assert report.n_converse_maxgap.order_only
        assert report.n_converse_cvar.order_only
        assert report.delta == 0.01
