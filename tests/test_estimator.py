"""Tests for the debiased statistic and its exhaustive-enumeration oracle."""

import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.errors import InstanceTooLarge, ZeroInclusionProbability
from fairaudit.estimator import (
    EstimatorValue,
    _binom_pmf,
    _ratio_terms,
    _term_weights,
    estimate,
    estimate_entries,
    estimate_from_counts,
    estimate_rows,
    exact_moments,
    term_table,
)
from fairaudit.metrics import average_quality, separation_statistic
from fairaudit.sampling import (
    AttributeSpecificPlan,
    WeightedPlan,
)


class TestEstimate:
    def test_single_group_direct(self):
        # w=(1), inclusion (1,1), losses [1,1,0]:
        # F1 = (2/3)(1/2) = 1/3, F2 = 2/3, F = 1/3 - 4/9 = -1/9.
        val = estimate([[1, 1, 0]], GroupWeights([1.0]), [(1.0, 1.0)])
        assert abs(val.f1 - 1.0 / 3.0) <= 1e-12
        assert abs(val.f2 - 2.0 / 3.0) <= 1e-12
        assert abs(val.f - (-1.0 / 9.0)) <= 1e-12

    def test_single_sample_contributes_zero_to_f1(self):
        val = estimate([[1]], GroupWeights([1.0]), [(1.0, 1.0)])
        assert val.f1 == 0.0
        assert val.f2 == 1.0

    def test_empty_group_contributes_zero(self):
        val = estimate([[], [1, 1]], GroupWeights([0.5, 0.5]), [(1.0, 1.0)] * 2)
        assert val.f1 == 0.5
        assert val.f2 == 0.5

    def test_deterministic_two_group(self):
        # Losses g0=[0,0], g1=[1,1]: F1 = 0.5, F2 = 0.5, F = 0.25 = true D.
        val = estimate(
            [[0, 0], [1, 1]], GroupWeights([0.5, 0.5]), [(1.0, 1.0)] * 2
        )
        assert val.f1 == 0.5
        assert val.f2 == 0.5
        assert val.f == 0.25

    def test_inclusion_normalization(self):
        val = estimate([[1, 1]], GroupWeights([1.0]), [(0.5, 0.25)])
        assert abs(val.f1 - 4.0) <= 1e-12
        assert abs(val.f2 - 2.0) <= 1e-12

    def test_zero_weight_group_skipped(self):
        # A zero-weight group contributes nothing even with zero inclusion.
        val = estimate([[1, 1], [1]], GroupWeights([1.0, 0.0]), [(1.0, 1.0), (0.0, 0.0)])
        assert val.f1 == 1.0

    def test_zero_inclusion_rejected(self):
        with pytest.raises(ZeroInclusionProbability):
            estimate([[1, 1]], GroupWeights([1.0]), [(0.5, 0.0)])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            data = [list(rng.integers(0, 2, size=int(rng.integers(0, 6)))) for _ in range(k)]
            w = rng.dirichlet(np.ones(k))
            incl = [(float(p), float(p) * 0.5 + 0.25) for p in rng.random(k) * 0.5 + 0.5]
            base = estimate(data, GroupWeights(w), incl)
            perm = rng.permutation(k)
            permuted = estimate(
                [data[g] for g in perm],
                GroupWeights(w[perm]),
                [incl[g] for g in perm],
            )
            assert abs(base.f1 - permuted.f1) <= 1e-12
            assert abs(base.f2 - permuted.f2) <= 1e-12

    def test_counts_vs_sequences_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            data = [list(rng.integers(0, 2, size=int(rng.integers(0, 6)))) for _ in range(k)]
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            a = estimate(data, w, [(1.0, 1.0)] * k)
            b = estimate_from_counts(
                [sum(d) for d in data], [len(d) for d in data], w, (np.ones(k), np.ones(k))
            )
            assert a.f1 == b.f1 and a.f2 == b.f2

    def test_estimator_value_f(self):
        assert EstimatorValue(f1=0.5, f2=0.5).f == 0.25


def _masked_estimate(s, m, w, incl):
    """estimate_from_counts in its boolean-mask form, the reference for its bits.

    It reads the pair `incl` as a (K, 2) stack whose columns it slices back
    out, so the two normalizers are two divisions even when `p1 is p2`."""
    warr = w.as_array()
    sarr = np.asarray(s, dtype=float)
    marr = np.asarray(m, dtype=float)
    incl_arr = np.stack(incl, 1)
    c1, c2 = _term_weights(warr, incl_arr[:, 0], incl_arr[:, 1])
    active = warr > 0
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
    return f1, f2


def _bits(f1, f2):
    return np.array([f1, f2]).tobytes()


class TestCountsKernel:
    """estimate_from_counts gathers each term's groups by index; it must give
    the bits of the boolean-mask form."""

    def test_matches_mask_form_on_random_instances(self):
        rng = np.random.default_rng(48)
        seen = {"zero weight": 0, "m = 0": 0, "m = 1": 0, "m >= 2": 0,
                "equal columns": 0, "distinct columns": 0}
        for case in range(600):
            k = int(np.exp(rng.uniform(np.log(2), np.log(3001))))
            raw = rng.dirichlet(np.ones(k)) * (rng.random(k) >= 0.2)  # about 20% zero
            if not raw.any():
                raw[0] = 1.0
            w = GroupWeights(raw / raw.sum())
            p2 = rng.uniform(0.01, 1.0, k)
            equal = case % 2 == 0  # the attribute plan's (p, p), or a weighted pair
            p1 = p2 if equal else p2 + (1.0 - p2) * rng.random(k)
            zero = raw == 0
            p1[zero] *= rng.random() < 0.5  # a zero-weight group may have p = 0
            p2[zero] *= p1[zero] > 0
            m = rng.integers(0, 6, k)
            s = rng.binomial(m, rng.random(k))
            if case % 3 == 0:
                s, m = s.tolist(), m.tolist()  # Python sequences, as a caller may pass
            incl = (p1, p2)
            got = estimate_from_counts(s, m, w, incl)
            assert _bits(got.f1, got.f2) == _bits(*_masked_estimate(s, m, w, incl)), case
            marr = np.asarray(m)
            seen["zero weight"] += bool(zero.any())
            seen["m = 0"] += bool((marr == 0).any())
            seen["m = 1"] += bool((marr == 1).any())
            seen["m >= 2"] += bool((marr >= 2).any())
            seen["equal columns"] += equal
            seen["distinct columns"] += not equal
        assert min(seen.values()) >= 250, seen

    def test_matches_mask_form_at_audit_eo_wide_shape(self):
        # K = 16384 uniform weights, gamma * w_g = 0.75, blocks of 6 label-0
        # rows, a quarter of the groups at mu = 0.9 and the rest at 0.5.
        k, block = 16384, 6
        w = GroupWeights.uniform(k)
        p = np.full(k, 0.75)
        mu = np.where(np.arange(k) < k // 4, 0.9, 0.5)
        rng = np.random.default_rng(49)
        for _ in range(5):
            m = np.where(rng.random(k) < p, block, 0)
            s = rng.binomial(m, mu)
            incl = (p, p)
            got = estimate_from_counts(s, m, w, incl)
            assert _bits(got.f1, got.f2) == _bits(*_masked_estimate(s, m, w, incl))

    def test_no_group_in_either_term(self):
        # Every M_g = 0: both gathers are empty, and each term is +0.0.
        got = estimate_from_counts([0, 0], [0, 0], GroupWeights([0.5, 0.5]),
                                   (np.ones(2), np.ones(2)))
        assert _bits(got.f1, got.f2) == _bits(0.0, 0.0)


class TestPairMatchesStackedColumns:
    """A plan's `inclusion_pair()` handed to estimate_from_counts gives the
    bits of the (K, 2) path: the pair stacked, its columns sliced back out,
    normalized and summed under masks (`_masked_estimate`)."""

    @staticmethod
    def _plan(kind, k, block, rng):
        raw = rng.dirichlet(np.ones(k))
        raw[1::4] = 0.0  # zero-weight groups, from K = 5 on
        raw[0] = raw.sum()  # w_0 is at least 1/2: gamma * w_0 > 1 below
        w = GroupWeights(raw / raw.sum())
        if kind == "weighted":
            return w, WeightedPlan.from_weights(w, 2.0 / 3.0, 3 * k)
        gamma = k / 2 if k > 1 else 2.0
        plan = AttributeSpecificPlan(w=w, budget=round(gamma * block), gamma=gamma)
        assert plan.block == block and plan.gamma * w.as_array()[0] > 1.0  # clipped
        return w, plan

    @pytest.mark.parametrize("kind", ["weighted", "attr"])
    @pytest.mark.parametrize("k", [1, 5, 16384])
    def test_float_hex_equal(self, kind, k):
        rng = np.random.default_rng(k)
        for block in (2, 4, 6):
            w, plan = self._plan(kind, k, block, rng)
            pair = plan.inclusion_pair()
            if kind == "attr":
                assert pair[0] is pair[1]
            assert (w.as_array() == 0).any() == (k > 1)
            values = np.unique([0, 1, 2, block])
            for first in values:  # K = 1 meets each M_g in turn
                m = rng.choice(values, k)
                m[0] = first
                others = values[values != first][: k - 1]
                m[1 : 1 + others.size] = others
                s = rng.binomial(m, rng.random(k))
                got = estimate_from_counts(s, m, w, pair)
                want = _masked_estimate(s, m, w, pair)
                assert (got.f1.hex(), got.f2.hex()) == (want[0].hex(), want[1].hex())


def _weighted_plans(w, n):
    return [WeightedPlan.from_weights(w, eta, n) for eta in (0.0, 2.0 / 3.0, 1.0)]


class TestExactMoments:
    def test_single_group_known_values(self):
        inst = FairnessInstance(GroupWeights([1.0]), [0.5])
        plan = WeightedPlan(v=GroupWeights([1.0]), budget=3)
        mom = exact_moments(inst, plan)
        assert abs(mom.e_f2 - 0.5) <= 1e-12
        assert abs(mom.e_f1 - 0.25) <= 1e-12

    def test_two_group_extreme_means(self):
        inst = FairnessInstance(GroupWeights([0.5, 0.5]), [0.0, 1.0])
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=4)
        mom = exact_moments(inst, plan)
        assert abs(mom.e_f1 - 0.5) <= 1e-12
        assert abs(mom.e_f2 - 0.5) <= 1e-12

    def test_unbiasedness_random_spot_checks(self):
        # The full grid sweep lives in the acceptance tests; here, random
        # instances and plans confirm the same identities quickly.
        rng = np.random.default_rng(23)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2, 6))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            inst = FairnessInstance(w, rng.random(k))
            plans = _weighted_plans(w, n)
            if n % 2 == 0:
                plans.append(AttributeSpecificPlan(w=w, budget=n, gamma=n / 2))
            for plan in plans:
                mom = exact_moments(inst, plan)
                target_f1 = float(np.dot(w.as_array(), np.square(inst.mu_array())))
                assert abs(mom.e_f1 - target_f1) <= 1e-10
                assert abs(mom.e_f2 - average_quality(inst)) <= 1e-10

    def test_mean_of_f_biased_low_by_var_f2(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            inst = FairnessInstance(w, rng.random(k))
            plan = WeightedPlan.from_weights(w, 2.0 / 3.0, 4)
            mom = exact_moments(inst, plan)
            d = separation_statistic(inst)
            var_f2 = mom.e_f2_sq - mom.e_f2**2
            assert abs(mom.e_f - (d - var_f2)) <= 1e-10
            assert mom.e_f <= d + 1e-10

    def test_deterministic_losses_have_zero_term_variance(self):
        # mu in {0,1} and every count fixed at the block size: the raw ratio
        # statistics are deterministic.
        w = GroupWeights([0.5, 0.5])
        inst = FairnessInstance(w, [0.0, 1.0])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)  # gamma*w = 1
        mom = exact_moments(inst, plan)
        assert all(abs(v) <= 1e-12 for v in mom.var_term1)
        assert all(abs(v) <= 1e-12 for v in mom.var_term2)

    def test_distribution_is_a_probability_distribution(self):
        w = GroupWeights([0.3, 0.7])
        inst = FairnessInstance(w, [0.2, 0.8])
        plan = WeightedPlan.from_weights(w, 1.0, 4)
        mom = exact_moments(inst, plan)
        total = sum(p for _, p in mom.distribution)
        assert abs(total - 1.0) <= 1e-12
        mean = sum(f * p for f, p in mom.distribution)
        assert abs(mean - mom.e_f) <= 1e-12

    def test_distribution_matches_simulation(self):
        # Monte Carlo frequencies of F values agree with the enumerated law.
        w = GroupWeights([0.5, 0.5])
        inst = FairnessInstance(w, [0.25, 0.75])
        plan = WeightedPlan.from_weights(w, 0.0, 3)
        mom = exact_moments(inst, plan)
        incl = plan.inclusion_pair()
        trials = 40_000
        rng = np.random.default_rng(25)
        observed: dict[float, int] = {}
        for _ in range(trials):
            m = plan.draw_counts(rng)
            s = rng.binomial(m, inst.mu_array())
            f = estimate_from_counts(s, m, w, incl).f
            observed[f] = observed.get(f, 0) + 1
        for f, p in mom.distribution:
            if p < 1e-4:
                continue
            freq = observed.get(f, 0) / trials
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(freq - p) <= max(4 * se, 1e-3)

    def test_enumeration_limits(self):
        w = GroupWeights.uniform(5)
        inst = FairnessInstance(w, [0.5] * 5)
        plan = WeightedPlan.from_weights(w, 1.0, 4)
        with pytest.raises(InstanceTooLarge):
            exact_moments(inst, plan)
        w = GroupWeights([1.0])
        inst = FairnessInstance(w, [0.5])
        plan = WeightedPlan.from_weights(w, 1.0, 9)
        with pytest.raises(InstanceTooLarge):
            exact_moments(inst, plan)

    def test_plan_of_another_k_rejected(self):
        inst = FairnessInstance(GroupWeights([0.5, 0.5]), [0.5, 0.5])
        plan = WeightedPlan.from_weights(GroupWeights.uniform(3), 1.0, 4)
        with pytest.raises(ValueError, match="^plan and instance disagree on K$"):
            exact_moments(inst, plan)

    def test_zero_inclusion_rejected(self):
        w = GroupWeights([0.5, 0.5])
        inst = FairnessInstance(w, [0.5, 0.5])
        # Budget 0: no group is ever observed.
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=0)
        with pytest.raises(ZeroInclusionProbability):
            exact_moments(inst, plan)


def _random_counts(rng):
    """Random weights (some zero), an inclusion pair and (B, K) count matrices."""
    k = int(rng.integers(1, 9))
    b = int(rng.integers(1, 6))
    raw = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
    if not raw.any():
        raw[0] = 1.0
    w = GroupWeights(raw / raw.sum())
    incl = np.sort(rng.uniform(0.05, 1.0, size=(k, 2)), axis=1)[:, ::-1]
    incl[w.as_array() == 0.0] *= rng.random() < 0.5  # zero-weight: any inclusion
    top = int(rng.choice([2, 5, 50, 10**6]))
    m = rng.integers(0, top + 1, size=(b, k))
    m[rng.random((b, k)) < 0.3] = rng.integers(0, 2)  # plenty of M_g in {0, 1}
    s = rng.binomial(m, rng.random(k))
    return w, (incl[:, 0].copy(), incl[:, 1].copy()), s, m


def _random_attr_counts(rng, k):
    """Dirichlet weights and one random attribute-specific plan's counts at K groups."""
    w = GroupWeights(rng.dirichlet(np.ones(k)))
    block = int(rng.integers(2, 7))
    plan = AttributeSpecificPlan(w=w, budget=block * k // 4, gamma=k / 4)
    p = plan.include_probs()
    m = np.where(rng.random(k) < p, block, 0)
    s = rng.binomial(m, rng.random(k))
    return w, p, s, m


class TestRowKernels:
    def test_rows_match_scalar_estimator(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            w, incl, s, m = _random_counts(rng)
            f1, f2 = estimate_rows(s, m, _term_weights(w.as_array(), *incl))
            for b in range(s.shape[0]):
                ref = estimate_from_counts(s[b], m[b], w, incl)
                assert f1[b] == pytest.approx(ref.f1, rel=1e-12, abs=0.0)
                assert f2[b] == pytest.approx(ref.f2, rel=1e-12, abs=0.0)

    def test_entries_match_rows(self):
        # The sparse kernel's form: every sampled group has the same M, and
        # one normalizer serves both terms.
        rng = np.random.default_rng(42)
        for _ in range(300):
            w, incl, s, m = _random_counts(rng)
            block = int(rng.integers(1, 8))
            m = np.where(m > 0, block, 0)
            s = rng.binomial(m, rng.random(m.shape[1]))
            p = incl[1]
            weights = _term_weights(w.as_array(), p, p)
            assert weights[0] is weights[1]
            rows, groups = np.nonzero(m)
            e1, e2 = estimate_entries(rows, groups, s[rows, groups], _table(block), weights[0],
                                      s.shape[0])
            f1, f2 = estimate_rows(s, m, weights)
            np.testing.assert_allclose(e1, f1, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(e2, f2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [16384, 65536])
    def test_kernels_agree_at_benchmark_scale(self, k):
        # The audit kernel, the sparse kernel with every group in row 0, and
        # the dense kernel on one row sum the same terms in different orders.
        rng = np.random.default_rng(k)
        for _ in range(10):
            w, p, s, m = _random_attr_counts(rng, k)
            ref = estimate_from_counts(s, m, w, (p, p))
            groups = np.flatnonzero(m)
            assert groups.size > k // 16  # many groups sampled, as on the benchmark
            weights = _term_weights(w.as_array(), p, p)
            sparse = estimate_entries(np.zeros_like(groups), groups, s[groups],
                                      _table(int(m.max())), weights[0], 1)
            dense = estimate_rows(s[None], m[None], weights)
            for f1, f2 in (sparse, dense):
                assert float(f1[0]) == pytest.approx(ref.f1, rel=1e-11, abs=0.0)
                assert float(f2[0]) == pytest.approx(ref.f2, rel=1e-11, abs=0.0)

    def test_zero_inclusion_rejected(self):
        with pytest.raises(ZeroInclusionProbability) as err:
            _term_weights(np.array([0.5, 0.5]), np.array([1.0, 0.5]), np.array([1.0, 0.0]))
        assert err.value.group == 1

    def test_zero_inclusion_rejected_when_every_weight_is_positive(self):
        with pytest.raises(ZeroInclusionProbability) as err:
            _term_weights(np.array([0.25, 0.5, 0.25]), np.ones(3), np.array([1.0, 0.5, 0.0]))
        assert err.value.group == 2

    def test_plain_division_when_every_weight_is_positive(self):
        # With no zero weight the normalizers skip the mask; the bits are
        # those of the masked division.
        rng = np.random.default_rng(46)
        for _ in range(50):
            k = int(rng.integers(1, 300))
            w, p1, p2 = rng.random(k) + 1e-3, rng.random(k) + 1e-9, rng.random(k) + 1e-9
            masked = [np.divide(w, p, out=np.zeros_like(w), where=w > 0) for p in (p2, p1)]
            got = _term_weights(w, p1, p2)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in masked]
            c1, c2 = _term_weights(w, p1, p1)
            assert c1 is c2 and c1.tobytes() == masked[1].tobytes()

    def test_one_normalizer_when_both_probabilities_are_one_array(self):
        w = np.array([0.5, 0.0, 0.5])
        p = np.array([0.25, 0.0, 1.0])
        c1, c2 = _term_weights(w, p, p)
        assert c1 is c2
        assert c1.tolist() == [2.0, 0.0, 0.5]
        d1, d2 = _term_weights(w, p, p.copy())
        assert d1 is not d2 and d1.tobytes() == d2.tobytes() == c1.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_entries_table_matches_ratio_terms_bit_for_bit(self, m):
        # The terms come from a table of M + 1 entries; each must carry the
        # bits _ratio_terms gives per entry, and the one complex sum the bits
        # of one bincount per term, NaN rows included.
        rng = np.random.default_rng(44 + m)
        for rows, groups, s, k, n_rows, redraw in _entry_cases(rng, m, 40, 300):
            c = rng.random(k)
            ref = _entries_by_ratio_terms(rows, groups, s, m, c, n_rows, redraw)
            got = estimate_entries(rows, groups, s, _table(m, redraw=redraw is not None), c,
                                   n_rows)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_prescaled_tables_match_a_full_normalizer(self, m):
        # A table scaled by one normalizer c, with no per-group array, gives
        # the bits of the per-entry form with c repeated for every group.
        rng = np.random.default_rng(47 + m)
        for rows, groups, s, k, n_rows, redraw in _entry_cases(rng, m, 4000, 3000):
            c = float(rng.random() * 10.0 ** rng.integers(-6, 7))
            full = np.full(k, c)
            ref = _entries_by_ratio_terms(rows, groups, s, m, full, n_rows, redraw)
            marked = redraw is not None
            for got in (estimate_entries(rows, groups, s, _table(m, c, marked), None, n_rows),
                        estimate_entries(rows, groups, s, _table(m, redraw=marked), full,
                                         n_rows)):
                assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    def test_statistic_bits_do_not_depend_on_blas_threads(self):
        # np.dot and @ hand long products to BLAS, whose summation order (and
        # so the last bits) changes with its thread count; the statistic's
        # reductions run in numpy's own loops.
        code = (
            "import numpy as np\n"
            "from fairaudit.core import FairnessInstance, GroupWeights\n"
            "from fairaudit.estimator import estimate_rows\n"
            "from fairaudit.metrics import average_quality, separation_statistic\n"
            "rng = np.random.default_rng(5)\n"
            "k = 65536\n"
            "raw = rng.random(k)\n"
            "inst = FairnessInstance(GroupWeights(raw / raw.sum()), rng.random(k))\n"
            "m = rng.integers(0, 4, (1, k))\n"
            "f1, f2 = estimate_rows(rng.binomial(m, 0.5), m, (rng.random(k), rng.random(k)))\n"
            "print(average_quality(inst).hex(), separation_statistic(inst).hex(),"
            " float(f1[0]).hex(), float(f2[0]).hex())\n"
        )
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            outs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, env=env).stdout)
        assert len(outs[0].split()) == 4
        assert outs[0] == outs[1]

    def test_mean_over_enumeration_is_exact_mean(self):
        # Weighting the kernel's F by the exact law of (M, S) reproduces
        # exact_moments' E[F] on every small plan and instance.
        rng = np.random.default_rng(43)
        for k, n in product((1, 2, 3), range(2, 7)):
            raw = rng.dirichlet(np.ones(k))
            if k == 3:
                raw[2] = 0.0  # one zero-weight group
            w = GroupWeights(raw / raw.sum())
            inst = FairnessInstance(w, rng.random(k))
            plans = _weighted_plans(w, n)
            if n % 2 == 0:
                plans.append(AttributeSpecificPlan(w=w, budget=n, gamma=n / 2))
            for plan in plans:
                weights = _term_weights(w.as_array(), *plan.inclusion_pair())
                mean = 0.0
                for m, p_counts in plan.count_law():
                    s = np.array(list(product(*[range(mg + 1) for mg in m])))
                    p = np.full(len(s), p_counts)
                    for g in range(k):
                        p *= np.asarray(_binom_pmf(int(m[g]), inst.mu[g]))[s[:, g]]
                    f1, f2 = estimate_rows(s, np.broadcast_to(m, s.shape), weights)
                    mean += float(p @ (f1 - f2 * f2))
                assert mean == pytest.approx(exact_moments(inst, plan).e_f, abs=1e-12)


def _table(m, c=None, redraw=False):
    """`term_table(m, c)`; with `redraw`, one more row of NaN in both parts,
    as the simulator marks numpy's redraw."""
    table = term_table(m, c)
    return np.append(table, complex(math.nan, math.nan)) if redraw else table


def _entry_cases(rng, m, k_max, n_max):
    """(rows, groups, s, K, trials, redraw) for the entries kernel.

    50 random cases, then three at the benchmark's scale: K = 65536, about
    7.5k entries per block of B = 2, 5 or 13 trials, ordered by trial and
    group as `simulator._included` gives them.  Every case comes again with
    a few entries whose S is m + 1, the row of `_table(..., redraw=True)`
    that holds NaN, and `redraw` marks them; it is None on the first copy.
    """
    shapes = [(int(rng.integers(1, k_max)), int(rng.integers(1, 9)), int(rng.integers(1, n_max)))
              for _ in range(50)]
    shapes += [(65536, n_rows, int(rng.integers(7000, 8000))) for n_rows in (2, 5, 13)]
    for k, n_rows, n in shapes:
        rows, groups = rng.integers(0, n_rows, n), rng.integers(0, k, n)
        if k == 65536:
            order = np.lexsort((groups, rows))
            rows, groups = rows[order], groups[order]
        s = rng.integers(0, m + 1, n)
        yield rows, groups, s, k, n_rows, None
        redraw = rng.random(n) < 0.01
        redraw[rng.integers(n)] = True
        yield rows, groups, np.where(redraw, m + 1, s), k, n_rows, redraw


def _entries_by_ratio_terms(rows, groups, s, m, c, n_rows, redraw=None):
    """estimate_entries as it was before the table: _ratio_terms on every entry.

    Each term is summed by its own bincount; entries marked in `redraw` have
    NaN terms.
    """
    t1, t2 = _ratio_terms(s, np.full(s.size, m))
    if redraw is not None:
        t1[redraw] = t2[redraw] = np.nan
    f1 = np.bincount(rows, weights=t1 * c[groups], minlength=n_rows)
    f2 = np.bincount(rows, weights=t2 * c[groups], minlength=n_rows)
    return f1, f2
