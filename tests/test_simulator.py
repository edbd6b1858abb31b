"""Tests for the Monte Carlo error-estimation harness."""

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
from fairaudit.errors import ConfigError
from fairaudit.estimator import exact_moments
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan
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
        pair, cfg = _hard_pair_cfg()
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
        b = max(1, simulator.BLOCK_ELEMS // pair.p0.k)
        for cfg in _both_plans_cfgs(pair):
            for side, inst in ((0, pair.p0), (1, pair.p1)):
                whole = simulator._side_h1(inst, cfg, 3 * b, 9, side)
                decide = simulator._block_decider(inst, cfg, b)
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
            rate = simulator._side_h1(inst, cfg, trials, 13, 0) / trials
            assert abs(rate - q) <= 5 * math.sqrt(q * (1 - q) / trials)

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


class TestOutputs:
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
