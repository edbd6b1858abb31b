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
    _count_vectors,
    _term_weights,
    estimate,
    estimate_entries,
    estimate_from_counts,
    estimate_rows,
    exact_moments,
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
            incl = [(1.0, 1.0)] * k
            a = estimate(data, w, incl)
            b = estimate_from_counts(
                [sum(d) for d in data], [len(d) for d in data], w, incl
            )
            assert a.f1 == b.f1 and a.f2 == b.f2

    def test_estimator_value_f(self):
        assert EstimatorValue(f1=0.5, f2=0.5).f == 0.25


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
        incl = plan.inclusion_probabilities()
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

    def test_zero_inclusion_rejected(self):
        w = GroupWeights([0.5, 0.5])
        inst = FairnessInstance(w, [0.5, 0.5])
        # Budget 0: no group is ever observed.
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=0)
        with pytest.raises(ZeroInclusionProbability):
            exact_moments(inst, plan)


def _random_counts(rng):
    """Random weights (some zero), inclusion pairs and (B, K) count matrices."""
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
    return w, [tuple(p) for p in incl], s, m


def _weights_of(w, incl):
    """The (F1, F2) normalizer pair of weights w and inclusion pairs incl."""
    incl = np.asarray(incl, dtype=float)
    return _term_weights(w.as_array(), incl[:, 0], incl[:, 1])


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
            f1, f2 = estimate_rows(s, m, _weights_of(w, incl))
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
            p = np.asarray(incl)[:, 1]
            weights = _term_weights(w.as_array(), p, p)
            assert weights[0] is weights[1]
            rows, groups = np.nonzero(m)
            e1, e2 = estimate_entries(rows, groups, s[rows, groups], block, weights[0], s.shape[0])
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
            ref = estimate_from_counts(s, m, w, np.stack([p, p], 1))
            groups = np.flatnonzero(m)
            assert groups.size > k // 16  # many groups sampled, as on the benchmark
            weights = _term_weights(w.as_array(), p, p)
            sparse = estimate_entries(np.zeros_like(groups), groups, s[groups], int(m.max()),
                                      weights[0], 1)
            dense = estimate_rows(s[None], m[None], weights)
            for f1, f2 in (sparse, dense):
                assert float(f1[0]) == pytest.approx(ref.f1, rel=1e-11, abs=0.0)
                assert float(f2[0]) == pytest.approx(ref.f2, rel=1e-11, abs=0.0)

    def test_zero_inclusion_rejected(self):
        with pytest.raises(ZeroInclusionProbability) as err:
            _term_weights(np.array([0.5, 0.5]), np.array([1.0, 0.5]), np.array([1.0, 0.0]))
        assert err.value.group == 1

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
        # bits _ratio_terms gives per entry, so that the bincount sums are
        # unchanged.
        rng = np.random.default_rng(44 + m)
        for _ in range(50):
            k, n_rows = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            n = int(rng.integers(1, 300))
            rows, groups = rng.integers(0, n_rows, n), rng.integers(0, k, n)
            s = rng.integers(0, m + 1, n)
            c = rng.random(k)
            ref = _entries_by_ratio_terms(rows, groups, s, np.full(n, m), c, n_rows)
            got = estimate_entries(rows, groups, s, m, c, n_rows)
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
                weights = _weights_of(w, plan.inclusion_probabilities())
                mean = 0.0
                for m, p_counts in _count_vectors(plan):
                    s = np.array(list(product(*[range(mg + 1) for mg in m])))
                    p = np.full(len(s), p_counts)
                    for g in range(k):
                        p *= np.asarray(_binom_pmf(int(m[g]), inst.mu[g]))[s[:, g]]
                    f1, f2 = estimate_rows(s, np.broadcast_to(m, s.shape), weights)
                    mean += float(p @ (f1 - f2 * f2))
                assert mean == pytest.approx(exact_moments(inst, plan).e_f, abs=1e-12)


def _entries_by_ratio_terms(rows, groups, s, m, c, n_rows):
    """estimate_entries as it was before the table: _ratio_terms on every entry."""
    t1, t2 = _ratio_terms(s, m)
    f1 = np.bincount(rows, weights=t1 * c[groups], minlength=n_rows)
    f2 = np.bincount(rows, weights=t2 * c[groups], minlength=n_rows)
    return f1, f2
