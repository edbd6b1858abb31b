"""Tests for the Monte Carlo error-estimation harness."""

import dataclasses
import json
import math
import platform
import tracemalloc

import numpy as np
import pytest

import fairaudit
from fairaudit import simulator
from fairaudit.adversarial import build_hard_pair
from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.cvar_test import TestConfig
from fairaudit.errors import ConfigError, EstimatorUndefined, ZeroInclusionProbability
from fairaudit.estimator import _ratio_terms, estimate_entries, estimate_from_counts, exact_moments
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan, inclusion_array
from fairaudit.simulator import (
    Experiment,
    SweepPoint,
    estimate_error,
    threshold_sweep,
    write_manifest,
    write_sweep_csv,
)


def _hard_pair_cfg(k=4, eps=0.3, n=40):
    pair = build_hard_pair(k, eps)
    plan = WeightedPlan.from_weights(pair.p0.weights, 0.0, n)
    cfg = TestConfig(alpha=1.0 - 1.0 / k, epsilon=eps, plan=plan)
    return pair, cfg


def _both_plans_cfgs(pair, n=40):
    """Test configs at the hard pair's level: weighted, then attribute-specific (p = 1/2)."""
    _, weighted = _hard_pair_cfg(k=pair.p0.k, n=n)
    attr = AttributeSpecificPlan(w=pair.p0.weights, budget=4, gamma=2.0)
    return weighted, TestConfig(alpha=weighted.alpha, epsilon=weighted.epsilon, plan=attr)


class TestEstimateError:
    def test_deterministic_across_runs(self):
        pair, _ = _hard_pair_cfg()
        for cfg in _both_plans_cfgs(pair):
            a = estimate_error(pair.p0, pair.p1, cfg, trials=200, base_seed=7)
            b = estimate_error(pair.p0, pair.p1, cfg, trials=200, base_seed=7)
            assert a.p_err_hat == b.p_err_hat
            assert a.frac_h1_given_h0 == b.frac_h1_given_h0
            assert a.frac_h0_given_h1 == b.frac_h0_given_h1

    def test_seed_changes_result(self):
        pair, cfg = _hard_pair_cfg(n=20)
        a = estimate_error(pair.p0, pair.p1, cfg, trials=400, base_seed=1)
        b = estimate_error(pair.p0, pair.p1, cfg, trials=400, base_seed=2)
        # Same distributional behavior, but different realizations.
        assert abs(a.p_err_hat - b.p_err_hat) <= 0.2
        assert (a.frac_h1_given_h0, a.frac_h0_given_h1) != (
            b.frac_h1_given_h0,
            b.frac_h0_given_h1,
        )

    def test_degenerate_instances_zero_error(self):
        # mu in {0,1} with certain inclusion: the statistic is deterministic,
        # so both conditional errors are exactly 0 with stderr 0.
        w = GroupWeights([0.5, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)  # gamma*w = 1
        cfg = TestConfig(alpha=0.5, epsilon=0.5, plan=plan)
        h0 = FairnessInstance(w, [0.0, 0.0])
        h1 = FairnessInstance(w, [0.0, 1.0])
        est = estimate_error(h0, h1, cfg, trials=100, base_seed=0)
        assert est.p_err_hat == 0.0
        assert est.stderr == 0.0

    def test_blocks_are_independent_of_evaluation_order(self):
        # Hits over 3B trials equal the hits of its three blocks run on
        # their own, last block first, for both plans and both sides.
        pair, _ = _hard_pair_cfg()
        for cfg in _both_plans_cfgs(pair):
            setup = simulator._setup(cfg.plan, pair.p0.weights)
            b = setup.block
            for side, inst in ((0, pair.p0), (1, pair.p1)):
                whole = simulator._side_h1(inst, cfg, setup, 3 * b, 9, side, {})
                score = simulator._block_scorer(inst, cfg.plan, setup, {})
                parts = [simulator._block_h1(score, cfg.threshold, 9, side, i, b)
                         for i in (2, 1, 0)]
                assert whole == sum(parts)
                assert 0 < whole < 3 * b  # the check is not vacuous

    def test_tie_at_threshold_decides_h1(self):
        # Certain inclusion and means 0 and 1 give F = 0.25 in every trial,
        # exactly the threshold at alpha = 0.5, epsilon = 1.
        w = GroupWeights([0.5, 0.5])
        plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)
        cfg = TestConfig(alpha=0.5, epsilon=1.0, plan=plan)
        inst = FairnessInstance(w, [0.0, 1.0])
        setup = simulator._setup(plan, w)
        f1, f2 = simulator._block_scorer(inst, plan, setup, {})(np.random.default_rng(0), 5)
        assert f1.shape == (5,) and np.all(f1 - f2 * f2 == cfg.threshold)
        assert simulator._side_h1(inst, cfg, setup, 40, 3, 1, {}) == 40

    def test_weighted_scores_match_the_scalar_estimator(self):
        # Per-trial F1 and F2 of a weighted block are the scalar estimator's
        # on the block's own draws, up to summation order.
        w = GroupWeights([0.4, 0.3, 0.2, 0.1])
        inst = FairnessInstance(w, [0.1, 0.6, 0.3, 0.9])
        plan = WeightedPlan.from_weights(w, 2.0 / 3.0, 12)
        score = simulator._block_scorer(inst, plan, simulator._setup(plan, w), {})
        f1, f2 = score(np.random.default_rng(4), 50)
        rng = np.random.default_rng(4)
        m = rng.multinomial(12, plan.v.as_array(), size=50)
        s = rng.binomial(m, inst.mu_array())
        ref = [estimate_from_counts(s[b], m[b], w, plan.inclusion_probabilities())
               for b in range(50)]
        np.testing.assert_allclose(f1, [r.f1 for r in ref], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(f2, [r.f2 for r in ref], rtol=1e-14, atol=1e-15)

    def test_h1_rate_matches_exact_law(self):
        # On a small instance the law of F is enumerable, so each plan's H1
        # rate must match P[F >= tau] within sampling error.
        w = GroupWeights([0.5, 0.3, 0.2])
        inst = FairnessInstance(w, [0.2, 0.5, 0.9])
        trials = 200_000
        plans = (WeightedPlan.from_weights(w, 2.0 / 3.0, 6),
                 AttributeSpecificPlan(w=w, budget=6, gamma=3.0))
        for plan in plans:
            law = exact_moments(inst, plan).distribution
            f = np.array([value for value, _ in law])
            prob = np.array([p for _, p in law])
            # tau halfway across the first clear gap between positive atoms,
            # so rounding in F cannot move a trial across it.
            j = int(np.argmax((f[:-1] > 0) & (np.diff(f) > 1e-6)))
            tau = (f[j] + f[j + 1]) / 2
            q = float(prob[f >= tau].sum())
            assert 0.2 < q < 0.8
            cfg = TestConfig(alpha=0.0, epsilon=math.sqrt(2 * tau), plan=plan)
            setup = simulator._setup(plan, w)
            rate = simulator._side_h1(inst, cfg, setup, trials, 13, 0, {}) / trials
            assert abs(rate - q) <= 5 * math.sqrt(q * (1 - q) / trials)

    def test_block_size_follows_entries_per_trial(self):
        pair, _ = _hard_pair_cfg(k=64)
        weighted, attr = _both_plans_cfgs(pair)
        w = pair.p0.weights
        assert simulator._setup(weighted.plan, w).block == simulator.BLOCK_ELEMS // 64
        # p_g = 2/64 for all 64 groups: two included groups per trial.
        assert simulator._setup(attr.plan, w).block == simulator.BLOCK_ELEMS // 2

    def test_rejects_h0_instance_outside_p0(self):
        pair, cfg = _hard_pair_cfg()
        with pytest.raises(ConfigError):
            estimate_error(pair.p1, pair.p1, cfg, trials=10, base_seed=0)

    def test_rejects_h1_instance_outside_p1(self):
        pair, cfg = _hard_pair_cfg()
        with pytest.raises(ConfigError):
            estimate_error(pair.p0, pair.p0, cfg, trials=10, base_seed=0)

    def test_rejects_zero_trials(self):
        pair, cfg = _hard_pair_cfg()
        with pytest.raises(ConfigError):
            estimate_error(pair.p0, pair.p1, cfg, trials=0, base_seed=0)

    def test_stderr_formula(self):
        pair, cfg = _hard_pair_cfg(n=20)
        est = estimate_error(pair.p0, pair.p1, cfg, trials=500, base_seed=3)
        p = est.p_err_hat
        assert abs(est.stderr - (p * (1 - p) / 500) ** 0.5) <= 1e-15


class _ConstantGaps:
    """A generator stand-in whose Geometric(q) gaps are all `gap`.

    numpy searches with a uniform for q >= 1/3 (faked by `geometric`) and
    inverts a standard exponential E as ceil(E / -log1p(-q)) below 1/3 (faked
    by an E that inverts to `gap`).
    """

    def __init__(self, gap, q):
        self.gap, self.q = gap, q
        self.calls = {"geometric": 0, "standard_exponential": 0}

    def geometric(self, q, size):
        assert q == self.q
        self.calls["geometric"] += 1
        return np.full(size, self.gap, dtype=np.int64)

    def standard_exponential(self, size):
        self.calls["standard_exponential"] += 1
        return np.full(size, (self.gap - 0.5) * -math.log1p(-self.q))

    def method(self):
        """The one draw method used, which must be the one numpy uses at q."""
        used = [name for name, calls in self.calls.items() if calls]
        assert len(used) == 1
        assert used[0] == ("geometric" if self.q >= 1 / 3 else "standard_exponential")
        return self.calls[used[0]]


class TestSparseDraw:
    def test_inclusion_frequencies_match_p(self):
        # Several binary-exponent classes (with p_g / q < 1 inside them),
        # clipped and exact p_g = 1 groups, zero-weight groups and one p_g
        # near 1e-300.
        w = GroupWeights([0.5, 0.25, 0.1, 0.07, 0.045, 0.035, 0.0, 0.0, 2.5e-301])
        plan = AttributeSpecificPlan(w=w, budget=8, gamma=4.0)
        p = plan.include_probs()
        assert p[0] == p[1] == 1.0 and p[6] == p[7] == 0.0 and 0.0 < p[8] < 1e-299
        classes = simulator._inclusion_classes(p)
        assert len(classes) == 4
        assert sorted(g for members, _, _, _ in classes for g in members.tolist()) == [
            0, 1, 2, 3, 4, 5, 8]
        rng = np.random.default_rng(31)
        trials, hits = 0, np.zeros(w.k)
        for size in (1, 7, 50_000, 150_000):
            rows, groups = simulator._included(rng, classes, size)
            assert rows.min() >= 0 and rows.max() < size
            pairs = rows * w.k + groups
            assert np.unique(pairs).size == pairs.size  # a group at most once per trial
            hits += np.bincount(groups, minlength=w.k)
            trials += size
        assert hits[0] == hits[1] == trials
        assert hits[6] == hits[7] == hits[8] == 0
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(hits / trials - p) <= 5 * sigma)

    def test_gaps_topped_up_until_past_the_grid(self):
        # Unit gaps: every one of the n trials succeeds, which needs far
        # more gaps than the chunk sized for q (inverted, then searched).
        for q in (0.001, 0.5):
            rng = _ConstantGaps(1, q)
            assert np.array_equal(simulator._success_positions(rng, q, 1000), np.arange(1000))
            assert rng.method() > 1

    def test_huge_gaps_capped(self):
        # Gaps of int64 max (numpy's value for a tiny q) would overflow the
        # running sum; capped, they land past the end.
        for q in (1e-300, 0.5):
            rng = _ConstantGaps(np.iinfo(np.int64).max, q)
            assert simulator._success_positions(rng, q, 10**6).size == 0
            assert rng.method() == 1


# The draw replays give numpy's values only as long as numpy's samplers
# stay as they were when the replays were written.
_STREAMS_NOTE = (
    f"the replayed draws follow numpy 2.4.6's samplers; numpy {np.__version__} "
    "draws differently"
)


def _pair_of_generators(seed):
    """Two generators in one state, part-way into their stream."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    a.random(3)
    b.random(3)
    return a, b


def _same_stream(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestDrawReplays:
    """Each replay against the numpy call it stands for: values and generator state."""

    Q_EDGES = [5e-324, 1e-300, 1e-12, 1e-6, 0.001, 0.1, 0.25, 0.3333,
               math.nextafter(1 / 3, 0), 1 / 3, math.nextafter(1 / 3, 1), 0.5, 0.9, 1.0]

    @pytest.mark.parametrize("q", [1e-300, 3e-310, 5e-324, 1e-15, 1e-12, 0.001, 0.1, 0.3333,
                                   math.nextafter(1 / 3, 0)])
    def test_inverted_geometric_matches_generator(self, q):
        # Near q = 1e-15 the gaps are about 1e15, where one ulp of E / step
        # is 1/8: a division rounded differently moves many ceilings.
        assert q < 1 / 3
        for seed, size, cap in ((1, 1, 2), (2, 5000, 10**6), (3, 777, 7), (4, 0, 5),
                                (8, 5000, 2**62)):
            a, b = _pair_of_generators(seed)
            got = simulator._inverted_geometric(a, -math.log1p(-q), size, cap)
            want = np.minimum(b.geometric(q, size=size), cap)
            assert got.dtype == want.dtype, _STREAMS_NOTE
            assert np.array_equal(got, want), _STREAMS_NOTE
            assert _same_stream(a, b), _STREAMS_NOTE

    @pytest.mark.parametrize("q", Q_EDGES)
    def test_success_positions_match_geometric_gaps(self, q):
        # The positions as drawn before the replay: rng.geometric chunks.
        def reference(rng, n):
            mean = n * q
            chunk = int(mean + 4.0 * math.sqrt(mean)) + 8
            gaps = []
            while sum(gaps) <= n:
                gaps += np.minimum(rng.geometric(q, size=chunk), n + 1).tolist()
            ends = np.cumsum(gaps) - 1
            return ends[ends < n]

        for seed, n in ((5, 1), (6, 40), (7, 20_000)):
            a, b = _pair_of_generators(seed)
            got = simulator._success_positions(a, q, n)
            assert np.array_equal(got, reference(b, n)), _STREAMS_NOTE
            assert _same_stream(a, b), _STREAMS_NOTE

    @staticmethod
    def _check_losses(mu, m, seed, replayed=True):
        draw = simulator._loss_sampler(np.asarray(mu, dtype=float), m)
        assert (draw.__name__ == "draw") == replayed
        rng = np.random.default_rng(seed)
        for size in (0, 1, 6000):
            groups = rng.integers(0, len(mu), size)
            a, b = _pair_of_generators([seed, size])
            got = draw(a, groups)
            want = b.binomial(m, np.asarray(mu)[groups])
            assert got.dtype == want.dtype, _STREAMS_NOTE
            assert np.array_equal(got, want), _STREAMS_NOTE
            assert _same_stream(a, b), _STREAMS_NOTE

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 25, 40])
    def test_losses_at_edge_means(self, m):
        edges = [1.0, 1 - 1e-9, 1e-9, 0.5, math.nextafter(0.5, 1), math.nextafter(0.5, 0),
                 5e-324, 0.9]
        for i, mean in enumerate(edges):
            self._check_losses([mean], m, seed=[m, i])
        self._check_losses(edges, m, seed=m)  # eight means, one table row each

    def test_losses_of_random_instances(self):
        rng = np.random.default_rng(77)
        for case in range(120):
            m = int(rng.choice([1, 2, 3, 4, 7, 12, 25, 40, 300]))
            means = rng.random(int(rng.integers(1, 9)))
            if m == 300:
                means *= 0.1  # p * m <= 30
            mu = rng.choice(means, size=int(rng.integers(1, 500)))
            self._check_losses(mu, m, seed=case)

    @pytest.mark.parametrize("mu, m", [
        (np.linspace(0.05, 0.95, 9), 2),  # more than 8 means
        ([0.5, 0.0, 0.9], 2),  # numpy draws no uniform for a mean of 0
        ([0.5, 0.25], 121),  # 0.25 * 121 > 30: not an inversion
        ([0.9], 301),  # (1 - 0.9) * 301 > 30
    ])
    def test_losses_fall_back_to_generator(self, mu, m):
        self._check_losses(mu, m, seed=78, replayed=False)

    def test_losses_redraw_restores_the_stream(self, monkeypatch):
        # Thresholds cut at px_0 make most draws pass every threshold, the
        # case where numpy draws U again; the block must then come from
        # rng.binomial, from the state before the replay's uniforms.
        real = simulator._inversion_thresholds
        monkeypatch.setattr(simulator, "_inversion_thresholds",
                            lambda mean, m: real(mean, m)[:1])
        self._check_losses([0.3, 0.6], 40, seed=79)

    @staticmethod
    def _next_uniform_is(u):
        """A generator whose next `random()` is u, a multiple of 2**-53 in [0, 1).

        PCG64 steps its state by state * mult + inc and outputs (high ^ low)
        rotated by the top 6 bits; from state 0, inc becomes the state, and
        with a zero high word the output is inc itself.
        """
        out = int(u * 2.0**53) << 11
        rng = np.random.Generator(np.random.PCG64(0))
        state = rng.bit_generator.state
        state["state"] = {"state": 0, "inc": out}
        rng.bit_generator.state = state
        return rng

    def test_losses_at_threshold_boundaries(self):
        # A uniform exactly at px_0 gives X = 0 and the next double up does
        # not; for px_0 >= 1/2 both are uniforms numpy can draw, so a
        # threshold one ulp off shows.  Both the ufuncs np.exp and np.log1p
        # and the formula exp(m * log(q)) give a different px_0 in some of
        # these cases.
        ufunc_differs = log_differs = 0
        for m in (2, 3, 7, 12, 25, 40, 60):
            for mean in (0.001, 0.004, 0.01, 0.3 / m, 0.5 / m, 1 - 0.004, 1 - 0.5 / m):
                px0 = simulator._inversion_thresholds(mean, m)[0]
                p = mean if mean <= 0.5 else 1.0 - mean
                ufunc_differs += float(np.exp(m * np.log1p(-p))) != px0
                log_differs += math.exp(m * math.log(1.0 - p)) != px0
                assert px0 >= 0.5
                draw = simulator._loss_sampler(np.array([mean]), m)
                for u in (px0, math.nextafter(px0, 1.0)):
                    a, b = self._next_uniform_is(u), self._next_uniform_is(u)
                    got, want = draw(a, np.zeros(1, np.intp)), b.binomial(m, [mean])
                    assert np.array_equal(got, want), _STREAMS_NOTE
                    assert _same_stream(a, b), _STREAMS_NOTE
        assert ufunc_differs > 0 and log_differs > 0

    @pytest.mark.parametrize("m, mean", [(12, 0.2), (20, 0.0375), (100, 0.05), (1000, 0.001)])
    def test_losses_after_a_true_redraw(self, m, mean):
        # The largest uniform passes every threshold numpy has for these
        # (rounding leaves the remainder above the last one), so numpy draws
        # a second uniform; the replay must hand that block to rng.binomial.
        # At (20, 0.0375) one threshold past numpy's bound would take it.
        u = 1.0 - 2.0**-53
        a, b, c = (self._next_uniform_is(u) for _ in range(3))
        want = b.binomial(m, [mean, mean])
        c.random(3)
        assert _same_stream(b, c)  # one redraw: three uniforms for two draws
        assert np.array_equal(simulator._loss_sampler(np.array([mean]), m)(a, np.zeros(2, np.intp)),
                              want), _STREAMS_NOTE
        assert _same_stream(a, b), _STREAMS_NOTE

    def test_hard_pairs_take_the_replay(self):
        for k, eps in ((2, 0.25), (16, 0.3), (4096, 0.1)):
            pair = build_hard_pair(k, eps)
            for inst in (pair.p0, pair.p1):
                for m in (1, 2, 7, 60):
                    assert simulator._loss_sampler(inst.mu_array(), m).__name__ == "draw"

    def test_mean_codes(self):
        mu = np.array([0.5, 0.9, 0.5, 0.1, 0.9])
        codes, means = simulator._mean_codes(mu)
        assert np.array_equal(np.asarray(means)[codes], mu)
        assert means == [0.5, 0.9, 0.1] and codes.dtype == np.int8
        assert simulator._mean_codes(np.full(3, 0.25)) == (None, [0.25])
        assert simulator._mean_codes(np.arange(9) / 8) is None
        codes, means = simulator._mean_codes(np.arange(8) / 8)
        assert codes.tolist() == list(range(8))


def _old_block(inst, plan, setup):
    """The sparse block by way of S (reference).

    Draws every entry's group, S from the loss sampler, then S's terms.
    """
    losses = simulator._loss_sampler(inst.mu_array(), plan.block)
    c = None if setup.weights is None else setup.weights[0]

    def score(rng, size):
        rows, groups = simulator._included(rng, setup.classes, size)
        return estimate_entries(rows, groups, losses(rng, groups), setup.terms, c, size)

    return score


def _random_attr_case(rng):
    """An attribute-specific plan and an instance with 1 to 8 means, or 9 (no replay)."""
    k = int(rng.choice([1, 2, 5, 64, 999, 3000]))
    style = rng.integers(4)
    if style == 0:  # equal weights: one normalizer, carried by the term tables
        raw = np.ones(k)
    elif style == 1:  # a few weights: several inclusion classes
        raw = rng.choice([1.0, 1.5, 2.0, 3.0, 7.9], size=k)
    else:
        raw = rng.dirichlet(np.ones(k)) * (rng.random(k) < rng.choice([1.0, 0.7]))
        if not raw.any():
            raw[0] = 1.0
    w = GroupWeights(raw / raw.sum())
    block = int(rng.integers(2, 6))
    budget = block * int(rng.integers(1, 3 * k + 1))
    plan = AttributeSpecificPlan(w=w, budget=budget, gamma=budget / block)
    pool = rng.choice([0.5, 0.9, 0.1, 1.0, 0.25, 0.75, 1e-9, 1 - 1e-9, 0.6], size=9, replace=False)
    means = pool[: int(rng.integers(1, 10))]
    return FairnessInstance(w, rng.choice(means, size=k)), plan


class TestBlockScorer:
    """A block's terms looked up by the loss replay's row: the bits and stream of S's own terms."""

    @staticmethod
    def _check(inst, plan, seeds):
        setup = simulator._setup(plan, inst.weights)
        score = simulator._block_scorer(inst, plan, setup, {})
        old = _old_block(inst, plan, setup)
        for seed in seeds:
            for size in {1, setup.block, 3 * setup.block}:
                a, b = _pair_of_generators([seed, size])
                got, want = score(a, size), old(b, size)
                assert all(_same_bits(x, y) for x, y in zip(got, want)), _STREAMS_NOTE
                assert _same_stream(a, b), _STREAMS_NOTE
        return setup, score

    def test_random_plans_and_instances(self):
        rng = np.random.default_rng(410)
        replayed = shared = grouped = classes = 0
        for case in range(150):
            inst, plan = _random_attr_case(rng)
            setup, score = self._check(inst, plan, seeds=[case])
            replayed += score.__name__ == "score"
            shared += setup.weights is None
            grouped += np.unique(inst.mu_array()).size > 1
            classes += len(setup.classes) > 1
        assert min(replayed, shared, grouped, classes) >= 10 and replayed < 150

    def test_benchmark_shape(self):
        # Equal weights: the fair side draws no per-entry group index, the
        # unfair side (two means) looks up each entry's mean by its group.
        exp = _attr_wide_sweep(GroupWeights.uniform(65536), 0.9)
        for point in exp.points:
            for inst in (point.h0, point.h1):
                self._check(inst, point.cfg.plan, seeds=[1, 2])

    def test_ungrouped_draw_matches_the_grouped_rows(self):
        raw = 1.0 + np.arange(4096) % 3  # three classes, two with p_g / q < 1
        uneven = AttributeSpecificPlan(w=GroupWeights(raw / raw.sum()), budget=4096, gamma=2048.0)
        for plan in (_uniform_plan(4096, False), _uniform_plan(4096, True), uneven):
            classes = simulator._setup(plan, plan.w).classes
            a, b = _pair_of_generators(411)
            rows, groups = simulator._included(a, classes, 9, grouped=False)
            want_rows, _ = simulator._included(b, classes, 9)
            assert groups is None and _same_bits(rows, want_rows) and _same_stream(a, b)

    def test_redraw_takes_the_binomial_block(self, monkeypatch):
        # Thresholds cut at px_0 make most draws pass every threshold: the
        # replay's rows then hold NaN terms, and the block is numpy's
        # rng.binomial draw, from the generator state before the block.
        real = simulator._inversion_thresholds
        monkeypatch.setattr(simulator, "_inversion_thresholds", lambda mean, m: real(mean, m)[:1])
        rng = np.random.default_rng(412)
        for mu in ([0.3], [0.3, 0.6], [0.2, 0.5, 0.9]):
            w = GroupWeights(rng.dirichlet(np.ones(300)))
            for weights in (GroupWeights.uniform(300), w):
                inst = FairnessInstance(weights, rng.choice(mu, size=300))
                plan = AttributeSpecificPlan(w=weights, budget=300, gamma=150.0)
                setup = simulator._setup(plan, weights)
                score = simulator._block_scorer(inst, plan, setup, {})
                assert score.__name__ == "score"
                c = None if setup.weights is None else setup.weights[0]
                a, b = _pair_of_generators(413)
                got = score(a, setup.block)
                rows, groups = simulator._included(b, setup.classes, setup.block)
                s = b.binomial(plan.block, inst.mu_array()[groups])
                want = estimate_entries(rows, groups, s, setup.terms, c, setup.block)
                assert all(_same_bits(x, y) for x, y in zip(got, want))
                assert _same_stream(a, b)


def _classes_oracle(p):
    """The inclusion classes by masked reductions, one pass per class (reference)."""
    _, exponent = np.frexp(p)
    left = p > 0
    classes = []
    while left.any():
        top = np.max(exponent, where=left, initial=np.iinfo(exponent.dtype).min)
        in_class = left & (exponent == top)
        left &= ~in_class
        members = np.flatnonzero(in_class)
        q = float(np.max(p, where=in_class, initial=0.0))
        ratio = None if np.min(p, where=in_class, initial=q) == q else p[members] / q
        classes.append((members, q, ratio))
    return tuple(classes)


def _normalizers_oracle(w, incl):
    """(w_g / P[M_g>=2], w_g / P[M_g>=1]), 0 for zero-weight groups (reference)."""
    warr = w.as_array()
    active = warr > 0
    bad = active & (incl[:, 1] <= 0.0)
    if np.any(bad):
        raise ZeroInclusionProbability(int(np.argmax(bad)))
    return tuple(np.divide(warr, incl[:, col], out=np.zeros_like(warr), where=active)
                 for col in (1, 0))


def _setup_oracle(plan, w):
    """The attribute-specific set-up from the general-purpose pieces (reference)."""
    incl = inclusion_array(plan)
    weights = _normalizers_oracle(w, incl)
    entries = max(1, math.ceil(plan.expected_included()))
    return weights, _classes_oracle(incl[:, 0]), max(1, simulator.BLOCK_ELEMS // entries)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_classes(got, want, k):
    assert len(got) == len(want)
    for (members, count, q, ratio), (members_o, q_o, ratio_o) in zip(got, want):
        assert count == members_o.size
        if members is None:  # all K groups
            assert count == k
            members = np.arange(k)
        assert _same_bits(members, members_o)
        assert q == q_o
        assert (ratio is None) == (ratio_o is None)
        if ratio is not None:
            assert _same_bits(ratio, ratio_o)


def _random_weights(rng):
    """Raw weights mixing ties, zeros, wide spreads and tiny (down to subnormal) values."""
    k = int(rng.integers(1, 400))
    style = rng.integers(5)
    if style == 0:  # all tied: a single class
        raw = np.ones(k)
    elif style == 1:  # a few distinct values, many ties
        raw = rng.choice([1.0, 1.5, 2.0, 3.0, 4.0, 7.9], size=k)
    else:  # spread over up to 60 octaves
        raw = np.exp2(-rng.random(k) * rng.choice([1, 8, 60]))
    raw[rng.random(k) < rng.choice([0.0, 0.1, 0.5])] = 0.0
    tiny = rng.random(k) < rng.choice([0.0, 0.02])
    raw[tiny] = rng.choice([1e-300, 3e-310, 5e-324], size=int(tiny.sum()))
    if not raw.any():
        raw[0] = 1.0
    return raw / raw.sum()


class TestSetupMatchesOracle:
    def test_classes_of_random_vectors(self):
        rng = np.random.default_rng(404)
        edge = np.array([1.0, 0.5, 0.25, 0.75, 1e-300, 5e-324, 2.2250738585072014e-308, 0.0])
        for _ in range(400):
            p = np.minimum(_random_weights(rng) * rng.choice([1.0, 10.0, 1e3]), 1.0)
            if rng.random() < 0.3:
                p[rng.integers(p.size, size=3)] = rng.choice(edge, size=3)
            _assert_same_classes(simulator._inclusion_classes(p), _classes_oracle(p), p.size)
        assert simulator._inclusion_classes(np.zeros(5)) == _classes_oracle(np.zeros(5)) == ()

    def test_attr_setup_of_random_plans(self):
        rng = np.random.default_rng(405)
        zero_inclusion = equal = 0
        for _ in range(320):
            raw = _random_weights(rng)
            block = int(rng.integers(2, 5))
            budget = int(rng.integers(1, 3 * raw.size))  # clips groups when gamma * w_g > 1
            if rng.random() < 0.1:
                # gamma = 1/block < 1 takes the smallest subnormal w_g to p_g = 0.
                budget, raw = 1, np.append(raw, 5e-324)
            w = GroupWeights(raw)
            plan = AttributeSpecificPlan(w=w, budget=budget, gamma=budget / block)
            try:
                want = _setup_oracle(plan, w)
            except ZeroInclusionProbability as exc:
                zero_inclusion += 1
                with pytest.raises(ZeroInclusionProbability) as got:
                    simulator._setup(plan, w)
                assert got.value.group == exc.group
                continue
            got = simulator._setup(plan, w)
            _assert_same_setup(got, want, plan, w)
            equal += got.weights is None
        assert 0 < zero_inclusion < 320
        assert 0 < equal < 320


def _assert_same_setup(got, want, plan, w):
    """`_setup`'s attribute-specific set-up carries the oracle's bits, in array or scalar form."""
    want_terms = _ratio_terms(np.arange(plan.block + 1), plan.block)
    c1, c2 = want[0]
    if got.weights is None:
        # Equal weights: the tables carry the one normalizer all groups share.
        assert np.unique(c1).size == 1 and _same_bits(c1, c2)
        want_terms = tuple(t * c1[0] for t in want_terms)
    else:
        assert _same_bits(got.weights[0], c1)
        assert _same_bits(got.weights[1], c2)
    assert [t.tobytes() for t in got.terms] == [t.tobytes() for t in want_terms]
    _assert_same_classes(got.classes, want[1], w.k)
    assert got.block == want[2]


def _uniform_plan(k, clipped):
    """An attribute-specific plan with block 2 over K equal weights; gamma * w > 1 when clipped."""
    gamma = 3.0 * k if clipped else k / 2
    return AttributeSpecificPlan(w=GroupWeights.uniform(k), budget=int(2 * gamma), gamma=gamma)


class TestEqualWeightSetup:
    """Equal plan and instance weights: a set-up from scalars, with the general path's bits."""

    @pytest.mark.parametrize("clipped", [False, True], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("k", [1, 3, 1000, 65536])
    def test_scalar_setup_matches_oracle(self, k, clipped):
        plan = _uniform_plan(k, clipped)
        w = plan.w
        got = simulator._setup(plan, w)
        assert got.weights is None
        assert (got.classes[0][2] == 1.0) == clipped
        _assert_same_setup(got, _setup_oracle(plan, w), plan, w)

    def test_scalar_setup_of_random_budgets(self):
        # Budgets that put sum_g p_g at or near a whole number, where the
        # ceiling that fixes the block count B is most sensitive to rounding.
        rng = np.random.default_rng(406)
        for _ in range(200):
            k = int(rng.choice([1, 3, 7, 10, 1000, 4099]))
            block = int(rng.integers(2, 6))
            budget = int(rng.integers(1, 4 * k)) * block
            w = GroupWeights.uniform(k)
            plan = AttributeSpecificPlan(w=w, budget=budget, gamma=budget / block)
            got = simulator._setup(plan, w)
            assert got.weights is None
            _assert_same_setup(got, _setup_oracle(plan, w), plan, w)

    @pytest.mark.parametrize("equal_side", ["plan", "instance"])
    def test_unequal_side_takes_the_general_path(self, equal_side):
        k = 1000
        raw = 1.0 + np.arange(k) % 7
        uneven, even = GroupWeights(raw / raw.sum()), GroupWeights.uniform(k)
        plan_w, inst_w = (even, uneven) if equal_side == "plan" else (uneven, even)
        plan = AttributeSpecificPlan(w=plan_w, budget=k, gamma=k / 2)
        got = simulator._setup(plan, inst_w)
        assert got.weights is not None
        _assert_same_setup(got, _setup_oracle(plan, inst_w), plan, inst_w)

    def test_undefined_and_zero_inclusion_as_the_general_path(self, monkeypatch):
        w = GroupWeights.uniform(8)
        with pytest.raises(EstimatorUndefined, match="n/gamma < 2"):
            simulator._setup(AttributeSpecificPlan(w=w, budget=4, gamma=4.0), w)
        # gamma * w_0 cannot underflow to 0 for a plan that exists, so the
        # shared p is forced to 0; the general path names group 0 then too.
        monkeypatch.setattr(AttributeSpecificPlan, "shared_inclusion", lambda self: 0.0)
        with pytest.raises(ZeroInclusionProbability) as got:
            simulator._setup(AttributeSpecificPlan(w=w, budget=4, gamma=2.0), w)
        assert got.value.group == 0

    def test_equal_weight_sweep_matches_the_array_path(self, monkeypatch):
        exp = _attr_wide_sweep(GroupWeights.uniform(4096), 0.9, trials=24)
        scalar = threshold_sweep(exp)
        # With no shared weight, _setup builds the per-group arrays instead.
        monkeypatch.setattr(GroupWeights, "shared", property(lambda self: None))
        assert simulator._setup(exp.points[0].cfg.plan, exp.points[0].h0.weights).weights
        assert threshold_sweep(exp) == scalar

    def test_setup_holds_at_most_one_k_sized_array(self):
        # p_g and w_g / p_g were two K-sized arrays per point; the scalar set-up
        # allocates only the K copies of p whose pairwise sum fixes the block.
        k = 2**20
        plan = _uniform_plan(k, clipped=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            setup = simulator._setup(plan, plan.w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert setup.weights is None and setup.block == 1  # k / 2 entries per trial
        assert 8 * k <= peak < 8 * k + 2**16


def _sweep_experiment(grid, trials=150, base_seed=5, target=0.1):
    pair = build_hard_pair(8, 0.3)
    points = []
    for n in grid:
        plan = WeightedPlan.from_weights(pair.p0.weights, 0.0, n)
        cfg = TestConfig(alpha=1.0 - 1.0 / 8.0, epsilon=0.3, plan=plan)
        points.append(SweepPoint(axis_value=n, h0=pair.p0, h1=pair.p1, cfg=cfg))
    return Experiment(
        axis="n", points=tuple(points), trials=trials, base_seed=base_seed, target=target
    )


class TestThresholdSweep:
    def test_error_decreases_with_n(self):
        result = threshold_sweep(_sweep_experiment([50, 200, 800, 3200]))
        ps = [est.p_err_hat for _, est in result.rows]
        for small, large in zip(ps, ps[1:]):
            ses = 3 * max(e.stderr for _, e in result.rows)
            assert large <= small + ses

    def test_n_hat_detection(self):
        result = threshold_sweep(_sweep_experiment([50, 200, 800, 3200]))
        below = [n for n, est in result.rows if est.p_err_hat <= result.target]
        assert result.n_hat == (min(below) if below else None)

    def test_n_hat_none_when_never_reached(self):
        result = threshold_sweep(_sweep_experiment([5, 10], target=0.0001))
        assert result.n_hat is None

    def test_identical_reruns(self):
        a = threshold_sweep(_sweep_experiment([50, 200]))
        b = threshold_sweep(_sweep_experiment([50, 200]))
        assert a == b

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            _sweep_experiment([])

    def test_block_one_undefined(self):
        # n/gamma = 1: no included group can be observed twice.
        pair = build_hard_pair(8, 0.3)
        plan = AttributeSpecificPlan(w=pair.p0.weights, budget=4, gamma=4.0)
        cfg = TestConfig(alpha=1.0 - 1.0 / 8.0, epsilon=0.3, plan=plan)
        point = SweepPoint(axis_value=4, h0=pair.p0, h1=pair.p1, cfg=cfg)
        with pytest.raises(EstimatorUndefined, match="n/gamma < 2"):
            threshold_sweep(Experiment(axis="n", points=(point,), trials=10, base_seed=1))

    @staticmethod
    def _count_classifications(monkeypatch):
        calls = []
        classify = simulator.classify_region

        def counted(inst, alpha, epsilon):
            calls.append((inst, alpha, epsilon))
            return classify(inst, alpha, epsilon)

        monkeypatch.setattr(simulator, "classify_region", counted)
        return calls

    def test_each_instance_classified_once_per_sweep(self, monkeypatch):
        calls = self._count_classifications(monkeypatch)
        threshold_sweep(_sweep_experiment([50, 100, 200, 400], trials=10))
        assert len(calls) == 2

    def test_loss_sampler_built_once_per_instance_and_block(self, monkeypatch):
        # Three points with block 2 and two with block 3 share the sweep's two
        # instances: 2 + 2 samplers, not one per side per point; the rows are
        # those of the points swept one at a time.
        built = []
        build = simulator._loss_sampler
        monkeypatch.setattr(simulator, "_loss_sampler",
                            lambda mu, m: built.append(m) or build(mu, m))
        exp = _attr_wide_sweep(GroupWeights.uniform(256), 0.9, trials=8, grid=(600, 900, 1200))
        extra = tuple(
            dataclasses.replace(pt, axis_value=n, cfg=dataclasses.replace(
                pt.cfg, plan=AttributeSpecificPlan(w=pt.cfg.plan.w, budget=n, gamma=n / 3)))
            for pt, n in zip(exp.points, (600, 1500))
        )
        exp = dataclasses.replace(exp, points=exp.points + extra)
        rows = threshold_sweep(exp).rows
        assert sorted(built) == [2, 2, 3, 3]
        for point, row in zip(exp.points, rows):
            one = dataclasses.replace(exp, points=(point,))
            assert threshold_sweep(one).rows[0] == row

    @pytest.mark.parametrize("other_pair, other_eps", [(True, 0.3), (False, 0.2)])
    def test_distinct_instances_classified_apart(self, monkeypatch, other_pair, other_eps):
        # Equal by value, a second pair is still a distinct instance, and the
        # same pair at another epsilon is a distinct check.
        calls = self._count_classifications(monkeypatch)
        exp = _sweep_experiment([50, 100, 200, 400], trials=10)
        pair = build_hard_pair(8, 0.3) if other_pair else None
        points = tuple(
            SweepPoint(
                axis_value=pt.axis_value,
                h0=pair.p0 if pair else pt.h0,
                h1=pair.p1 if pair else pt.h1,
                cfg=TestConfig(alpha=pt.cfg.alpha, epsilon=other_eps, plan=pt.cfg.plan),
            ) if i % 2 else pt
            for i, pt in enumerate(exp.points)
        )
        threshold_sweep(dataclasses.replace(exp, points=points))
        assert len(calls) == 4

    def test_sweep_pins_no_per_point_arrays(self):
        # Each point builds its plan's inclusion probabilities once, outside
        # inclusion_array's process-lifetime cache; nor does a sweep build the
        # per-group tuples of its weights and instances.
        w = GroupWeights.uniform(4096)
        exp = _attr_wide_sweep(w, 0.9, trials=1, grid=range(600, 600 + 2 * 64, 2))
        inclusion_array.cache_clear()  # earlier tests may have filled it to its maxsize
        assert len(threshold_sweep(exp).rows) == 64
        assert inclusion_array.cache_info().currsize == 0
        h0, h1 = exp.points[0].h0, exp.points[0].h1
        assert "w" not in vars(w) and "mu" not in vars(h0) and "mu" not in vars(h1)

    def test_bad_last_point_fails_before_any_block(self, monkeypatch):
        runs = []
        monkeypatch.setattr(simulator, "_side_h1", lambda *args: runs.append(args) or 0)
        exp = _sweep_experiment([50, 100, 200])
        last = exp.points[-1]
        bad = dataclasses.replace(last, h1=last.h0)  # the fair instance is not in P1
        with pytest.raises(ConfigError, match="h1 instance does not have CVaR fairness"):
            threshold_sweep(dataclasses.replace(exp, points=exp.points[:-1] + (bad,)))
        assert runs == []


def _attr_wide_sweep(w, mu_hot, trials=32, base_seed=20261018, grid=(600, 1200, 3000)):
    """The benchmark's attribute-specific sweep shape at K = w.k: a quarter of the groups hot."""
    k, hot = w.k, w.k // 4
    h0 = FairnessInstance(w, [0.5] * k)
    h1 = FairnessInstance(w, [mu_hot] * hot + [0.5] * (k - hot))
    points = tuple(
        SweepPoint(axis_value=n, h0=h0, h1=h1, cfg=TestConfig(
            alpha=0.75, epsilon=0.3, plan=AttributeSpecificPlan(w=w, budget=n, gamma=n / 2)))
        for n in grid
    )
    return Experiment(axis="n", points=points, trials=trials, base_seed=base_seed)


# sweep.csv of `_attr_wide_sweep` at K = 4096, recorded before the attribute
# plan's set-up was rewritten; a set-up change must not alter the streams.
_ATTR_WIDE_GOLDEN = {
    "uniform": (
        "n,p_err_hat,stderr,frac_h1_given_h0,frac_h0_given_h1,trials,n_hat\n"
        "600,0.25,0.07654655446197431,0.21875,0.28125,32,3000\n"
        "1200,0.203125,0.07112164631262939,0.1875,0.21875,32,3000\n"
        "3000,0.046875,0.037365481386150375,0.09375,0.0,32,3000\n"
    ),
    "three_classes": (
        "n,p_err_hat,stderr,frac_h1_given_h0,frac_h0_given_h1,trials,n_hat\n"
        "600,0.265625,0.07807615660666674,0.375,0.15625,32,3000\n"
        "1200,0.21875,0.07307924583542855,0.3125,0.125,32,3000\n"
        "3000,0.0625,0.0427908248050911,0.125,0.0,32,3000\n"
    ),
}


# sweep.csv of `_weighted_sweep`, recorded before the attribute-specific
# plan's equal-weight set-up; the weighted plan's streams must not change.
_WEIGHTED_GOLDEN = (
    "n,p_err_hat,stderr,frac_h1_given_h0,frac_h0_given_h1,trials,n_hat\n"
    "40,0.40625,0.06139153767774106,0.421875,0.390625,64,2560\n"
    "160,0.4609375,0.06230897320683309,0.40625,0.515625,64,2560\n"
    "640,0.15625,0.045386523588368165,0.0625,0.25,64,2560\n"
    "2560,0.0078125,0.011005300458578754,0.0,0.015625,64,2560\n"
)


def _weighted_sweep():
    """The weighted plan's sweep on the K = 16 hard pair, as `simulate` runs it."""
    pair = build_hard_pair(16, 0.3)
    points = tuple(
        SweepPoint(axis_value=n, h0=pair.p0, h1=pair.p1, cfg=TestConfig(
            alpha=1.0 - 1.0 / 16, epsilon=0.3,
            plan=WeightedPlan.from_weights(pair.p0.weights, 0.0, n)))
        for n in (40, 160, 640, 2560)
    )
    return Experiment(axis="n", points=points, trials=64, base_seed=20261018)


class TestOutputs:
    def test_weighted_sweep_matches_recorded_bytes(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(threshold_sweep(_weighted_sweep()), str(path))
        assert path.read_bytes() == _WEIGHTED_GOLDEN.encode("utf-8"), (
            f"recorded with numpy 2.4.6; numpy is {np.__version__}")

    @pytest.mark.parametrize("shape", sorted(_ATTR_WIDE_GOLDEN))
    def test_attr_sweep_matches_recorded_bytes(self, tmp_path, shape):
        k = 4096
        if shape == "uniform":
            w, mu_hot = GroupWeights.uniform(k), 0.9
        else:  # w_g proportional to 1..7: classes {1}, {2, 3}, {4..7}, thinned within
            raw = 1.0 + np.arange(k) % 7
            w, mu_hot = GroupWeights(raw / raw.sum()), 0.95
        path = tmp_path / "sweep.csv"
        write_sweep_csv(threshold_sweep(_attr_wide_sweep(w, mu_hot)), str(path))
        assert path.read_bytes() == _ATTR_WIDE_GOLDEN[shape].encode("utf-8"), (
            "recorded with numpy 2.4.6, whose samplers the sweep's draws replay; "
            f"numpy is {np.__version__}")

    def test_csv_byte_identical(self, tmp_path):
        result = threshold_sweep(_sweep_experiment([50, 200]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(result, str(p1))
        write_sweep_csv(result, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header.startswith("n,p_err_hat,stderr")

    def test_csv_row_count(self, tmp_path):
        result = threshold_sweep(_sweep_experiment([50, 200, 800]))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, str(path))
        assert len(path.read_text().splitlines()) == 4  # header + 3 rows

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "manifest.json"
        config = {"k": 8, "epsilon": 0.3, "n_grid": "50,200"}
        write_manifest(str(path), config, base_seed=5)
        data = json.loads(path.read_text())
        assert data["base_seed"] == 5
        assert data["config"] == config
        assert len(data["config_sha256"]) == 64
        assert data["seeding"] == {
            "scheme": "numpy.random.default_rng([base_seed, side, block_index])",
            "block_elems": simulator.BLOCK_ELEMS,
            "block_rule": "B = max(1, block_elems // E) trials per block; E = K for the "
            "weighted plan, ceil(sum_g p_g) for the attribute-specific plan",
        }
        assert data["versions"] == {
            "fairaudit": fairaudit.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }

    def test_manifest_hash_tracks_config(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(str(p1), {"k": 8}, base_seed=0)
        write_manifest(str(p2), {"k": 16}, base_seed=0)
        h1 = json.loads(p1.read_text())["config_sha256"]
        h2 = json.loads(p2.read_text())["config_sha256"]
        assert h1 != h2
