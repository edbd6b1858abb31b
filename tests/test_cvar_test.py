"""Tests for the threshold audit test."""

import tracemalloc

import numpy as np
import pytest

from fairaudit.core import FairnessInstance, GroupCounts, GroupWeights
from fairaudit.errors import EstimatorUndefined, PlanMismatch
from fairaudit.cvar_test import (
    P0_MAX_GAP,
    REGION_TOL,
    Decision,
    Region,
    TestConfig,
    classify_region,
    run_test_dataset,
    run_test_synthetic,
)
from fairaudit.metrics import cvar_fairness, max_gap
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan, inclusion_array


def _weighted_cfg(k, n, alpha, epsilon, eta=0.0):
    w = GroupWeights.uniform(k)
    plan = WeightedPlan.from_weights(w, eta, n)
    return w, TestConfig(alpha=alpha, epsilon=epsilon, plan=plan)


class TestTestConfig:
    def test_threshold_value(self):
        _, cfg = _weighted_cfg(2, 10, 0.5, 0.2)
        assert abs(cfg.threshold - 0.5 * 0.04 / 2.0) <= 1e-15

    def test_rejects_threshold_above_half(self):
        w = GroupWeights.uniform(2)
        plan = WeightedPlan.from_weights(w, 0.0, 10)
        with pytest.raises(ValueError):
            TestConfig(alpha=0.0, epsilon=1.5, plan=plan)

    def test_rejects_bad_alpha(self):
        w = GroupWeights.uniform(2)
        plan = WeightedPlan.from_weights(w, 0.0, 10)
        with pytest.raises(ValueError):
            TestConfig(alpha=1.0, epsilon=0.1, plan=plan)

    def test_rejects_nonpositive_epsilon(self):
        w = GroupWeights.uniform(2)
        plan = WeightedPlan.from_weights(w, 0.0, 10)
        with pytest.raises(ValueError):
            TestConfig(alpha=0.5, epsilon=0.0, plan=plan)


class TestRunTestSynthetic:
    def test_all_zero_means_always_h0(self):
        w, cfg = _weighted_cfg(3, 12, 0.5, 0.3)
        inst = FairnessInstance(w, [0.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = run_test_synthetic(inst, cfg, rng)
            assert out.decision is Decision.H0
            assert out.statistic.f == 0.0

    def test_all_one_means_h0(self):
        # Uniformly bad service is still fair: F1 = F2 = 1, F = 0.
        w = GroupWeights.uniform(2)
        plan = WeightedPlan.from_weights(w, 0.0, 200)  # inclusion ~ 1
        cfg = TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
        inst = FairnessInstance(w, [1.0, 1.0])
        rng = np.random.default_rng(1)
        out = run_test_synthetic(inst, cfg, rng)
        assert out.decision is Decision.H0
        assert abs(out.statistic.f) <= 1e-9

    def test_reproducible_given_seed(self):
        w, cfg = _weighted_cfg(4, 20, 0.5, 0.3)
        inst = FairnessInstance(w, [0.1, 0.5, 0.5, 0.9])
        a = run_test_synthetic(inst, cfg, np.random.default_rng(42))
        b = run_test_synthetic(inst, cfg, np.random.default_rng(42))
        assert a.decision == b.decision
        assert a.statistic.f1 == b.statistic.f1
        assert a.statistic.f2 == b.statistic.f2
        assert np.array_equal(a.counts, b.counts)

    def test_counts_match_plan_budget(self):
        w, cfg = _weighted_cfg(3, 17, 0.5, 0.3)
        inst = FairnessInstance(w, [0.5] * 3)
        out = run_test_synthetic(inst, cfg, np.random.default_rng(2))
        assert out.counts.sum() == 17

    def test_plan_instance_k_mismatch(self):
        w, cfg = _weighted_cfg(3, 10, 0.5, 0.3)
        inst = FairnessInstance(GroupWeights.uniform(2), [0.5, 0.5])
        with pytest.raises(ValueError):
            run_test_synthetic(inst, cfg, np.random.default_rng(0))

    def test_attr_plan_runs(self):
        w = GroupWeights.uniform(4)
        plan = AttributeSpecificPlan(w=w, budget=8, gamma=4.0)
        cfg = TestConfig(alpha=0.75, epsilon=0.3, plan=plan)
        inst = FairnessInstance(w, [0.9, 0.5, 0.5, 0.5])
        out = run_test_synthetic(inst, cfg, np.random.default_rng(3))
        assert out.decision in (Decision.H0, Decision.H1)
        assert set(np.unique(out.counts)).issubset({0, 2})

    @staticmethod
    def _plans(w, n):
        return WeightedPlan.from_weights(w, 2.0 / 3.0, n), AttributeSpecificPlan(w, n, n / 4)

    def test_matches_the_dataset_audit_of_its_draw(self):
        # The same draw, audited as collected counts, gives the same outcome bit for bit.
        w = GroupWeights([0.3, 0.25, 0.2, 0.15, 0.1])
        inst = FairnessInstance(w, [0.1, 0.6, 0.3, 0.9, 0.5])
        names = [f"g{g}" for g in range(w.k)]
        for plan in self._plans(w, 12):
            cfg = TestConfig(alpha=0.5, epsilon=0.5, plan=plan)
            decisions = set()
            for seed in range(200):
                out = run_test_synthetic(inst, cfg, np.random.default_rng(seed))
                rng = np.random.default_rng(seed)
                m = plan.draw_counts(rng)
                ref = run_test_dataset(GroupCounts(names, rng.binomial(m, inst.mu_array()), m),
                                       w, cfg)
                assert out.decision is ref.decision
                assert (out.statistic.f1, out.statistic.f2) == (ref.statistic.f1,
                                                                ref.statistic.f2)
                assert out.counts.dtype == ref.counts.dtype
                assert np.array_equal(out.counts, ref.counts)
                decisions.add(out.decision)
            assert decisions == {Decision.H0, Decision.H1}

    def test_fills_no_inclusion_cache(self):
        inclusion_array.cache_clear()
        w = GroupWeights.uniform(4)
        inst = FairnessInstance(w, [0.1, 0.5, 0.5, 0.9])
        for plan in self._plans(w, 8):
            run_test_synthetic(inst, TestConfig(0.5, 0.3, plan), np.random.default_rng(0))
        assert inclusion_array.cache_info().currsize == 0

    def test_block_one_fails_before_the_draw(self):
        w = GroupWeights.uniform(4)
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=4.0)  # n/gamma = 1
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(EstimatorUndefined):
            run_test_synthetic(FairnessInstance(w, [0.5] * 4), TestConfig(0.5, 0.3, plan), rng)
        assert rng.bit_generator.state == state


class TestRunTestDataset:
    def _counts(self, per_group):
        """Counts of per-group loss lists; group g is named f"g{g}"."""
        names = [f"g{g}" for g in range(len(per_group))]
        return GroupCounts(
            names, [int(sum(x)) for x in per_group], [len(x) for x in per_group]
        )

    def test_deterministic_two_group_h1(self):
        # F = 0.25 >= threshold 0.2.
        w = GroupWeights([0.5, 0.5])
        plan = WeightedPlan.from_weights(w, 0.0, 4)
        cfg = TestConfig(alpha=0.2, epsilon=0.7071067811865476, plan=plan)
        assert abs(cfg.threshold - 0.2) <= 1e-12
        counts = self._counts([[0, 0], [1, 1]])
        out = run_test_dataset(counts, w, cfg)
        assert out.decision is Decision.H1
        # The deterministic data make F exact up to inclusion normalization,
        # which only inflates it here (inclusion < 1 on both groups).
        assert out.statistic.f >= 0.25 - 1e-12

    def test_tie_at_threshold_decides_h1(self):
        # With inclusion forced to 1 via a certain plan, F is exactly 0.25;
        # alpha=0.5, epsilon=1 puts the threshold at exactly 0.25.
        w = GroupWeights([0.5, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)  # gamma*w = 1
        cfg = TestConfig(alpha=0.5, epsilon=1.0, plan=plan)
        assert cfg.threshold == 0.25
        counts = self._counts([[0, 0], [1, 1]])
        out = run_test_dataset(counts, w, cfg)
        assert out.statistic.f == 0.25
        assert out.decision is Decision.H1

    def test_empty_dataset_is_h0(self):
        # Every group can legitimately come back empty under the
        # attribute-specific plan; the statistic degenerates to 0.
        w = GroupWeights([0.5, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)
        cfg = TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
        out = run_test_dataset(self._counts([[], []]), w, cfg)
        assert out.decision is Decision.H0
        assert out.statistic.f == 0.0

    def test_weighted_count_mismatch(self):
        w = GroupWeights([0.5, 0.5])
        plan = WeightedPlan.from_weights(w, 0.0, 5)
        cfg = TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
        with pytest.raises(PlanMismatch) as err:
            run_test_dataset(self._counts([[0, 0], [1, 1]]), w, cfg)
        assert str(err.value) == "weighted plan draws exactly n=5 samples, observed 4"

    def test_attr_partial_block_mismatch(self):
        w = GroupWeights([0.5, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)
        cfg = TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
        with pytest.raises(PlanMismatch) as err:
            run_test_dataset(self._counts([[0], [1, 1]]), w, cfg)
        assert str(err.value) == "attribute-specific counts must be 0 or 2; groups 'g0' violate this"

    def test_group_out_of_range(self):
        w = GroupWeights([1.0])
        plan = WeightedPlan.from_weights(w, 0.0, 1)
        cfg = TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
        with pytest.raises(ValueError):
            run_test_dataset(self._counts([[], [0]]), w, cfg)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("attr", [False, True], ids=["weighted", "attr"])
    def test_plan_k_mismatch(self, attr, k):
        # A K=1 plan's one inclusion pair would broadcast over all 3 groups.
        pw = GroupWeights.uniform(k)
        plan = AttributeSpecificPlan(pw, 2, 1.0) if attr else WeightedPlan(pw, 4)
        counts = GroupCounts(["a", "b", "c"], [1, 2, 0], [2, 2, 0])
        with pytest.raises(ValueError, match=f"^counts cover 3 groups, weights 3, plan {k}$"):
            run_test_dataset(counts, GroupWeights.uniform(3), TestConfig(0.5, 0.3, plan))

    def test_decision_monotone_in_epsilon(self):
        # Fixed data: raising epsilon raises the threshold, so the decision
        # can only move from H1 toward H0, never the reverse.
        rng = np.random.default_rng(31)
        w = GroupWeights([0.5, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)
        for _ in range(30):
            counts = self._counts(
                [list(rng.integers(0, 2, size=2)), list(rng.integers(0, 2, size=2))]
            )
            decided_h0 = False
            for eps in (0.05, 0.2, 0.5, 0.8, 1.0):
                cfg = TestConfig(alpha=0.5, epsilon=eps, plan=plan)
                out = run_test_dataset(counts, w, cfg)
                if decided_h0:
                    assert out.decision is Decision.H0
                decided_h0 = out.decision is Decision.H0


def _region_by_fill(inst, alpha, epsilon):
    """classify_region without the max-gap shortcut: always the CVaR fill."""
    value = cvar_fairness(inst, alpha)
    if value <= REGION_TOL:
        return Region.P0
    return Region.P1 if value >= epsilon - REGION_TOL else Region.NEITHER


class TestClassifyRegion:
    def test_all_equal_is_p0(self):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.4] * 3)
        assert classify_region(inst, 0.5, 0.1) is Region.P0

    def test_large_gap_is_p1(self):
        inst = FairnessInstance(GroupWeights.uniform(2), [0.0, 1.0])
        assert classify_region(inst, 0.5, 0.5) is Region.P1

    def test_middle_is_neither(self):
        inst = FairnessInstance(GroupWeights.uniform(2), [0.45, 0.55])
        # CVaR at alpha=0.5 is 0.1: below epsilon=0.5, above 0.
        assert classify_region(inst, 0.5, 0.5) is Region.NEITHER

    @staticmethod
    def _fills(monkeypatch):
        import fairaudit.cvar_test as cvar_test

        calls = []
        fill = cvar_test.cvar_fairness
        monkeypatch.setattr(cvar_test, "cvar_fairness", lambda *a: calls.append(a) or fill(*a))
        return calls

    def test_max_gap_shortcut_near_the_bound(self, monkeypatch):
        # Gaps scaled to lie at, just inside and just outside P0_MAX_GAP, and
        # far past it, where the fill can land on either side of REGION_TOL.
        fills = self._fills(monkeypatch)
        rng = np.random.default_rng(48)
        shortcuts = filled = 0
        for _ in range(400):
            k = int(rng.choice([2, 3, 17, 1000, 5000]))
            weights = np.ones(k) / k if rng.random() < 0.3 else rng.dirichlet(np.ones(k))
            w = GroupWeights(weights)
            base = float(rng.choice([0.0, 1e-3, 0.5, 0.9, 1.0 - 1e-12, 1.0]))
            offsets = rng.standard_normal(k) * (rng.random(k) < 0.3)
            scale = float(rng.choice([0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 1e3]))
            unit = FairnessInstance(w, np.clip(base + offsets * 1e-12, 0.0, 1.0))
            gap = max_gap(unit)
            if gap == 0.0:
                continue
            mu = np.clip(base + offsets * (1e-12 * scale * P0_MAX_GAP / gap), 0.0, 1.0)
            inst = FairnessInstance(w, mu)
            alpha = float(rng.choice([0.0, 0.5, 0.75, 1.0 - 1.0 / k, 1.0 - 2.0**-52]))
            epsilon = float(rng.choice([2e-12, 0.3]))
            fills.clear()
            assert classify_region(inst, alpha, epsilon) is _region_by_fill(inst, alpha, epsilon)
            if max_gap(inst) <= P0_MAX_GAP:
                assert fills == []
                shortcuts += 1
            else:
                assert len(fills) == 1
                filled += 1
        assert shortcuts >= 50 and filled >= 50

    def test_equal_means_take_the_shortcut(self, monkeypatch):
        fills = self._fills(monkeypatch)
        rng = np.random.default_rng(49)
        for _ in range(100):
            k = int(rng.integers(1, 3000))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            inst = FairnessInstance(w, np.full(k, rng.random()))
            for alpha in (0.0, 0.5, 1.0 - 2.0**-52):
                assert _region_by_fill(inst, alpha, 0.3) is Region.P0
                fills.clear()
                assert classify_region(inst, alpha, 0.3) is Region.P0
                assert fills == []

    def test_p1_check_holds_at_most_one_k_sized_array(self):
        # The largest gap reads the extreme means, and the equal-weight fill
        # sorts the fresh gaps in place and walks them in chunks: the gaps
        # are the one K-sized array.
        k = 65536
        inst = FairnessInstance(GroupWeights.uniform(k), [0.9] * (k // 4) + [0.5] * (k - k // 4))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            region = classify_region(inst, 0.75, 0.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert region is Region.P1
        assert 8 * k <= peak < 2 * 8 * k

    @pytest.mark.parametrize("alpha", [1.0, -0.5, float("nan")])
    def test_bad_alpha_still_rejected(self, alpha):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.4] * 3)
        with pytest.raises(ValueError, match="alpha must be in"):
            classify_region(inst, alpha, 0.1)

    def test_threshold_separates_regions(self):
        # For P1 members D >= (1-alpha) eps^2, for P0 members D = 0; the
        # test threshold sits strictly between.
        rng = np.random.default_rng(32)
        from fairaudit.metrics import separation_statistic

        for _ in range(200):
            k = int(rng.integers(2, 8))
            w = GroupWeights(rng.dirichlet(np.ones(k)))
            inst = FairnessInstance(w, rng.random(k))
            alpha, eps = 0.5, 0.3
            region = classify_region(inst, alpha, eps)
            d = separation_statistic(inst)
            if region is Region.P0:
                assert d <= 1e-10
            elif region is Region.P1:
                assert d >= (1.0 - alpha) * eps * eps - 1e-9
