"""Tests for the Monte Carlo error-estimation harness."""

import dataclasses
import json
import math
import platform

import numpy as np
import pytest

import fairaudit
from fairaudit import simulator
from fairaudit.adversarial import build_hard_pair
from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.cvar_test import TestConfig
from fairaudit.errors import ConfigError, ZeroInclusionProbability
from fairaudit.estimator import exact_moments, term_weights
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
                whole = simulator._side_h1(inst, cfg, setup, 3 * b, 9, side)
                decide = simulator._block_decider(inst, cfg, setup)
                parts = [simulator._block_h1(decide, 9, side, i, b) for i in (2, 1, 0)]
                assert whole == sum(parts)
                assert 0 < whole < 3 * b  # the check is not vacuous

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
            rate = simulator._side_h1(inst, cfg, setup, trials, 13, 0) / trials
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
    """A generator stand-in whose geometric draws are all `gap`."""

    def __init__(self, gap):
        self.gap = gap
        self.calls = 0

    def geometric(self, q, size):
        self.calls += 1
        return np.full(size, self.gap, dtype=np.int64)


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
        assert sorted(g for members, _, _ in classes for g in members.tolist()) == [
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
        # more gaps than the chunk sized for q = 0.001.
        rng = _ConstantGaps(1)
        assert np.array_equal(simulator._success_positions(rng, 0.001, 1000), np.arange(1000))
        assert rng.calls > 1

    def test_huge_gaps_capped(self):
        # Gaps of int64 max (numpy's value for a tiny q) would overflow the
        # running sum; capped, they land past the end.
        rng = _ConstantGaps(np.iinfo(np.int64).max)
        assert simulator._success_positions(rng, 1e-300, 10**6).size == 0
        assert rng.calls == 1


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


def _setup_oracle(plan, w):
    """The attribute-specific set-up from the general-purpose pieces (reference)."""
    incl = inclusion_array(plan)
    weights = term_weights(w, incl)
    entries = max(1, math.ceil(plan.expected_included()))
    return weights, _classes_oracle(incl[:, 0]), max(1, simulator.BLOCK_ELEMS // entries)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_classes(got, want):
    assert len(got) == len(want)
    for (members, q, ratio), (members_o, q_o, ratio_o) in zip(got, want):
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
            _assert_same_classes(simulator._inclusion_classes(p), _classes_oracle(p))
        assert simulator._inclusion_classes(np.zeros(5)) == _classes_oracle(np.zeros(5)) == ()

    def test_attr_setup_of_random_plans(self):
        rng = np.random.default_rng(405)
        zero_inclusion = 0
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
            assert _same_bits(got.weights[0], want[0][0])
            assert _same_bits(got.weights[1], want[0][1])
            _assert_same_classes(got.classes, want[1])
            assert got.block == want[2]
        assert 0 < zero_inclusion < 320


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


class TestOutputs:
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
        assert path.read_bytes() == _ATTR_WIDE_GOLDEN[shape].encode("utf-8")

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
