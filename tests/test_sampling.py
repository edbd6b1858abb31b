"""Tests for the sampling plans and their inclusion probabilities."""

import math
import re

import numpy as np
import pytest

from fairaudit.core import GroupWeights
from fairaudit.errors import EstimatorUndefined, PlanMismatch
from fairaudit.sampling import (
    OPTIMAL_ETA,
    AttributeSpecificPlan,
    WeightedPlan,
    _binomial_inclusion,
    inclusion_array,
    satisfies_tail_lemma,
    weighted_marginal,
)


class TestWeightedMarginal:
    def test_symmetric(self):
        v = weighted_marginal(GroupWeights([0.5, 0.5]), OPTIMAL_ETA)
        assert v.w == (0.5, 0.5)

    def test_eta_zero_is_uniform_on_support(self):
        v = weighted_marginal(GroupWeights([0.8, 0.2]), 0.0)
        assert v.w == (0.5, 0.5)
        v = weighted_marginal(GroupWeights([0.8, 0.0, 0.2]), 0.0)
        assert v.w == (0.5, 0.0, 0.5)

    def test_two_thirds_tilt(self):
        v = weighted_marginal(GroupWeights([0.8, 0.2]), 2.0 / 3.0)
        a, b = 0.8 ** (2.0 / 3.0), 0.2 ** (2.0 / 3.0)
        assert abs(v[0] - a / (a + b)) <= 1e-12
        assert abs(v[1] - b / (a + b)) <= 1e-12
        assert abs(v[0] - 0.7159) <= 1e-3

    def test_eta_one_is_identity(self):
        w = GroupWeights([0.3, 0.7])
        v = weighted_marginal(w, 1.0)
        assert np.allclose(v.w, w.w, atol=1e-12)

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            weighted_marginal(GroupWeights([1.0]), -0.5)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_rejects_non_finite_eta(self, eta, recwarn):
        # NaN once fell through both eta < 0 and eta > 0, to the eta = 0 marginal.
        with pytest.raises(ValueError, match="eta must be finite"):
            weighted_marginal(GroupWeights([0.5, 0.3, 0.2]), eta)
        assert not recwarn.list

    @pytest.mark.parametrize("eta", [2000.0, 1e300])
    def test_rejects_eta_whose_powers_all_underflow(self, eta, recwarn):
        with pytest.raises(ValueError, match="underflows every weight's power to 0"):
            weighted_marginal(GroupWeights([0.5, 0.3, 0.2]), eta)
        assert not recwarn.list

    def test_large_eta_that_leaves_one_power_keeps_its_marginal(self):
        # 0.5^1000 is about 9e-302; 0.3^1000 and 0.2^1000 underflow to 0.
        v = weighted_marginal(GroupWeights([0.5, 0.3, 0.2]), 1000.0)
        assert v.w == (1.0, 0.0, 0.0)


class TestWeightedPlan:
    def test_counts_sum_to_budget(self):
        plan = WeightedPlan.from_weights(GroupWeights([0.3, 0.7]), 1.0, 50)
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = plan.draw_counts(rng)
            assert m.sum() == 50

    def test_zero_budget(self):
        plan = WeightedPlan.from_weights(GroupWeights([0.3, 0.7]), 1.0, 0)
        rng = np.random.default_rng(0)
        assert np.array_equal(plan.draw_counts(rng), [0, 0])

    def test_law_of_large_numbers(self):
        n = 100_000
        plan = WeightedPlan.from_weights(GroupWeights([0.3, 0.7]), 1.0, n)
        totals = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            totals.append(plan.draw_counts(rng)[0] / n)
        assert abs(np.mean(totals) - 0.3) <= 0.01

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            WeightedPlan.from_weights(GroupWeights([1.0]), 1.0, -1)

    def test_budget_up_to_int64_max(self):
        # The largest budget numpy's multinomial takes; one more is the plan's error.
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=2**63 - 1)
        assert plan.draw_counts(np.random.default_rng(0)).sum() == 2**63 - 1
        for budget in (2**63, 10**20):
            want = f"^budget must be at most {2**63 - 1}, got {budget}$"
            with pytest.raises(ValueError, match=want):
                WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=budget)

    @pytest.mark.parametrize("budget, shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (np.float64("nan"), "nan"),
    ], ids=["inf", "-inf", "nan", "np-nan"])
    def test_rejects_non_finite_budget(self, budget, shown):
        with pytest.raises(ValueError, match=f"^budget must be a non-negative integer, got {shown}$"):
            WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=budget)


class TestAttributeSpecificPlan:
    def test_deterministic_when_gamma_w_large(self):
        # gamma * w_g >= 1 for both groups: every group always drawn, block 2.
        plan = AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=4, gamma=2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert np.array_equal(plan.draw_counts(rng), [2, 2])

    def test_default_gamma_is_half_budget(self):
        plan = AttributeSpecificPlan.default(GroupWeights([0.5, 0.5]), 10)
        assert plan.gamma == 5.0
        assert plan.block == 2

    @pytest.mark.parametrize("budget, gamma, message", [
        (0, 1.0, "budget must be a positive integer, got 0"),
        (-4, 1.0, "budget must be a positive integer, got -4"),
        (10, 0.0, "gamma must be positive, got 0.0"),
        (10, -5.0, "gamma must be positive, got -5.0"),
    ])
    def test_rejects_non_positive_budget_or_gamma(self, budget, gamma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=budget, gamma=gamma)

    @pytest.mark.parametrize("budget, shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (np.float64("nan"), "nan"),
    ], ids=["inf", "-inf", "nan", "np-nan"])
    def test_rejects_non_finite_budget(self, budget, shown):
        with pytest.raises(ValueError, match=f"^budget must be a positive integer, got {shown}$"):
            AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=budget, gamma=2.0)

    def test_rejects_non_divisible_gamma(self):
        with pytest.raises(ValueError):
            AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=10, gamma=3.0)

    @pytest.mark.parametrize("gamma, block", [
        (1e-320, "inf"),  # n/gamma overflows
        (math.nan, "nan"),
        (np.float64("nan"), "nan"),
        (math.inf, "0.0"),
    ])
    def test_rejects_gamma_without_a_finite_block(self, gamma, block):
        with pytest.raises(ValueError, match=f"^n/gamma must be a positive integer, got {block}$"):
            AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=10, gamma=gamma)

    def test_block_up_to_int64_max(self):
        # The largest float block below 2**63 is drawn; 2**63 itself is rejected.
        plan = AttributeSpecificPlan(w=GroupWeights([1.0]), budget=2**63 - 1024, gamma=1.0)
        assert plan.draw_counts(np.random.default_rng(0)).tolist() == [2**63 - 1024]
        for budget, gamma, block in ((2**63 - 1, 1.0, "9.223372036854776e+18"),
                                     (10**18, 0.01, "1e+20"), (10**18, 0.005, "2e+20")):
            want = f"^n/gamma must be at most {2**63 - 1}, got {re.escape(block)}$"
            with pytest.raises(ValueError, match=want):
                AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=budget, gamma=gamma)

    @pytest.mark.parametrize("budget", [2**63, 2**64 - 2048, 10**20, 10**400],
                             ids=["2^63", "2^64-2048", "10^20", "10^400"])
    @pytest.mark.parametrize("gamma", [2.0, 1e-320, None], ids=["gamma", "tiny-gamma", "default"])
    def test_rejects_budget_past_int64(self, budget, gamma):
        # Checked before any float division, which 10**400 would overflow.
        w = GroupWeights([0.5, 0.5])
        with pytest.raises(ValueError, match=f"^budget must be at most {2**63 - 1}, got {budget}$"):
            if gamma is None:
                AttributeSpecificPlan.default(w, budget)
            else:
                AttributeSpecificPlan(w=w, budget=budget, gamma=gamma)

    def test_expected_included_counts_clipped_groups_once(self):
        # gamma * w = (4.5, 0.5): the first group is clipped at 1, so the plan
        # expects 1.5 groups of n/gamma = 2 samples, 3 samples against n = 10.
        plan = AttributeSpecificPlan(w=GroupWeights([0.9, 0.1]), budget=10, gamma=5.0)
        assert plan.expected_included() == 1.5
        assert plan.block * plan.expected_included() == 3.0
        unclipped = AttributeSpecificPlan(w=GroupWeights.uniform(10), budget=10, gamma=5.0)
        assert unclipped.block * unclipped.expected_included() == pytest.approx(10.0)

    def test_budget_identity(self):
        # With gamma * w_g <= 1 for all g, E[sum M_g] = n.
        w = GroupWeights.uniform(10)
        n = 10
        plan = AttributeSpecificPlan(w=w, budget=n, gamma=n / 2)
        totals = []
        for seed in range(10_000):
            rng = np.random.default_rng(seed)
            totals.append(int(plan.draw_counts(rng).sum()))
        mean = np.mean(totals)
        se = np.std(totals) / math.sqrt(len(totals))
        assert abs(mean - n) <= 3 * se


def _first_pair(plan):
    """(P[M_0 >= 1], P[M_0 >= 2]) of the plan's first group."""
    p1, p2 = plan.inclusion_pair()
    return p1[0], p2[0]


class TestInclusionProbabilities:
    def test_weighted_half(self):
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=4)
        p1, p2 = _first_pair(plan)
        assert abs(p1 - 0.9375) <= 1e-12
        assert abs(p2 - 0.6875) <= 1e-12

    def test_weighted_certain_group(self):
        plan = WeightedPlan(v=GroupWeights([1.0, 0.0]), budget=5)
        assert _first_pair(plan) == (1.0, 1.0)

    def test_attr_plain(self):
        w = GroupWeights([0.1] + [0.9 / 9] * 9)
        plan = AttributeSpecificPlan(w=w, budget=10, gamma=5.0)
        p1, p2 = _first_pair(plan)
        assert abs(p1 - 0.5) <= 1e-12
        assert p1 == p2

    def test_attr_block_one_rejected(self):
        plan = AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=4, gamma=4.0)
        with pytest.raises(EstimatorUndefined):
            plan.inclusion_pair()

    def test_matches_direct_binomial_sum(self):
        # Cross-check the log1p/expm1 form against naive binomial tails.
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            v = float(rng.random())
            plan = WeightedPlan(v=GroupWeights([v, 1.0 - v]), budget=n)
            p1, p2 = _first_pair(plan)
            q = (1.0 - v) ** n
            assert abs(p1 - (1.0 - q)) <= 1e-12
            assert abs(p2 - (1.0 - q - n * v * (1.0 - v) ** (n - 1))) <= 1e-12

    def test_stable_for_tiny_v(self):
        # Tiny v_g and large n: P[M>=1] ~ nv, P[M>=2] ~ (nv)^2/2; the naive
        # 1 - (1-v)^n form would lose most significant digits here.
        n = 10**6
        v = 1e-12
        plan = WeightedPlan(v=GroupWeights([v, 1.0 - v]), budget=n)
        p1, p2 = _first_pair(plan)
        assert abs(p1 / (n * v) - 1.0) <= 1e-5
        assert abs(p2 / ((n * v) ** 2 / 2.0) - 1.0) <= 1e-4

    def test_monotone_in_n_and_v(self):
        for v in (0.01, 0.2, 0.7):
            prev = (0.0, 0.0)
            for n in range(1, 30):
                plan = WeightedPlan(v=GroupWeights([v, 1.0 - v]), budget=n)
                cur = _first_pair(plan)
                assert cur[0] >= prev[0] - 1e-15
                assert cur[1] >= prev[1] - 1e-15
                prev = cur
        n = 10
        prev = (0.0, 0.0)
        for v in np.linspace(0.01, 0.99, 25):
            plan = WeightedPlan(v=GroupWeights([v, 1.0 - v]), budget=n)
            cur = _first_pair(plan)
            assert cur[0] >= prev[0] - 1e-15
            assert cur[1] >= prev[1] - 1e-15
            prev = cur

    def test_empirical_frequency_weighted(self):
        plan = WeightedPlan(v=GroupWeights([0.15, 0.85]), budget=8)
        p1, p2 = _first_pair(plan)
        trials = 100_000
        rng = np.random.default_rng(4)
        m0 = np.array([plan.draw_counts(rng)[0] for _ in range(trials)])
        for p, hits in ((p1, m0 >= 1), (p2, m0 >= 2)):
            freq = hits.mean()
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(freq - p) <= 3 * se

    def test_empirical_frequency_attr(self):
        w = GroupWeights([0.1, 0.4, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=6, gamma=3.0)
        probs = zip(*plan.inclusion_pair())
        trials = 100_000
        rng = np.random.default_rng(5)
        counts = np.array([plan.draw_counts(rng) for _ in range(trials)])
        for g, (p1, p2) in enumerate(probs):
            freq = (counts[:, g] >= 2).mean()
            se = math.sqrt(p2 * (1 - p2) / trials) if 0 < p2 < 1 else 0.0
            assert abs(freq - p2) <= max(3 * se, 1e-12)

    def test_inclusion_array_cached_read_only(self):
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=4)
        arr = inclusion_array(plan)
        assert arr.shape == (2, 2)
        assert not arr.flags.writeable
        assert inclusion_array(plan) is arr

    def test_array_form_matches_per_group_scalars(self):
        w = GroupWeights([0.5, 0.25, 0.125, 0.125, 0.0])
        weighted = WeightedPlan.from_weights(w, OPTIMAL_ETA, 7)
        attr = AttributeSpecificPlan(w=w, budget=12, gamma=6.0)  # clips group 0
        for plan, rows in (
            (weighted, [_binomial_inclusion(7, vg) for vg in weighted.v.w]),
            (attr, [(float(p), float(p)) for p in attr.include_probs()]),
        ):
            arr = inclusion_array(plan)
            assert arr.shape == (5, 2) and arr.dtype == np.float64
            assert [tuple(row) for row in arr.tolist()] == rows  # bit for bit

    def test_inclusion_array_hits_for_equal_distinct_plans(self):
        w = [0.25, 0.25, 0.5]
        first = AttributeSpecificPlan(w=GroupWeights(w), budget=8, gamma=2.0)
        arr = inclusion_array(first)
        hits = inclusion_array.cache_info().hits
        second = AttributeSpecificPlan(w=GroupWeights(w), budget=8, gamma=2.0)
        assert second is not first and second.w is not first.w
        assert inclusion_array(second) is arr
        assert inclusion_array.cache_info().hits == hits + 1


class TestPlanProtocol:
    """What the audit and the sweeps ask of a plan, answered by the plan."""

    W = GroupWeights([0.5, 0.25, 0.125, 0.125, 0.0])

    def test_attr_pair_is_one_array(self):
        plan = AttributeSpecificPlan(w=self.W, budget=12, gamma=6.0)
        p1, p2 = plan.inclusion_pair()
        assert p1 is p2
        assert p1.tolist() == plan.include_probs().tolist()

    @staticmethod
    def _per_group(plan):
        """The per-group loop the weighted plan's memo replaced."""
        return np.array([_binomial_inclusion(plan.budget, x) for x in plan.v.as_array().tolist()])

    def test_weighted_memo_matches_per_group_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.integers(1, 300))
            raw = rng.choice(rng.random(int(rng.integers(1, 6))), size=k)  # repeated values
            raw[rng.random(k) < 0.1] = 0.0
            if not raw.any():
                raw[0] = 1.0
            plan = WeightedPlan(v=GroupWeights(raw / raw.sum()), budget=int(rng.integers(0, 5000)))
            want = self._per_group(plan)
            p1, p2 = plan.inclusion_pair()
            assert p1.tobytes() == want[:, 0].tobytes() and p2.tobytes() == want[:, 1].tobytes()

    def test_weighted_memo_at_uniform_wide_v(self):
        plan = WeightedPlan.from_weights(GroupWeights.uniform(16384), 0.0, 115_000)
        want = self._per_group(plan)
        p1, p2 = plan.inclusion_pair()
        assert p1.tobytes() == want[:, 0].tobytes() and p2.tobytes() == want[:, 1].tobytes()

    def test_block_one_undefined_through_pair_and_array(self):
        plan = AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=4, gamma=4.0)
        for ask in (plan.inclusion_pair, lambda: inclusion_array(plan)):
            with pytest.raises(EstimatorUndefined, match="n/gamma < 2"):
                ask()

    def test_weighted_count_check_text(self):
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=5)
        plan.check_counts(np.array([2, 3]), ("a", "b"))
        with pytest.raises(PlanMismatch) as err:
            plan.check_counts(np.array([2, 2]), ("a", "b"))
        assert str(err.value) == "weighted plan draws exactly n=5 samples, observed 4"

    def test_attr_count_check_text(self):
        plan = AttributeSpecificPlan(w=GroupWeights.uniform(8), budget=8, gamma=4.0)
        plan.check_counts(np.array([0, 2, 2, 0, 0, 0, 2, 0]), tuple("abcdefgh"))
        with pytest.raises(PlanMismatch) as err:
            plan.check_counts(np.array([1, 2, 0, 3, 0, 0, 0, 0]), tuple("abcdefgh"))
        assert str(err.value) == (
            "attribute-specific counts must be 0 or 2; groups 'a', 'd' violate this"
        )
        with pytest.raises(PlanMismatch) as err:
            plan.check_counts(np.array([1, 3, 1, 3, 1, 3, 2, 0]), tuple("abcdefgh"))
        assert str(err.value) == (
            "attribute-specific counts must be 0 or 2; groups 'a', 'b', 'c', 'd', 'e' "
            "... (6 groups in all) violate this"
        )


class TestTailLemma:
    def test_small_cases_hold(self):
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=2)
        assert satisfies_tail_lemma(plan) == [True, True]

    def test_sparse_group_holds(self):
        plan = WeightedPlan(v=GroupWeights([0.005, 0.995]), budget=100)
        report = satisfies_tail_lemma(plan)
        assert report[0] is True
        assert report[1] is None  # n * v = 99.5 > 1: hypothesis fails

    def test_out_of_hypothesis_vacuous(self):
        plan = WeightedPlan(v=GroupWeights([0.5, 0.5]), budget=100)
        assert satisfies_tail_lemma(plan) == [None, None]

    def test_grid(self):
        for n in (2, 5, 20, 200):
            for v in (1e-4, 1e-3, 0.01, 1.0 / n):
                if n * v > 1:
                    continue
                plan = WeightedPlan(v=GroupWeights([v, 1.0 - v]), budget=n)
                assert satisfies_tail_lemma(plan)[0] is True

    def test_requires_weighted_plan(self):
        plan = AttributeSpecificPlan(w=GroupWeights([0.5, 0.5]), budget=4, gamma=2.0)
        with pytest.raises(TypeError):
            satisfies_tail_lemma(plan)

