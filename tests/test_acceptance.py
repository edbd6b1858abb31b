"""End-to-end acceptance criteria.

Each test exercises one numbered criterion at its stated tolerances and
records a one-line verdict; the summary is printed at the end of the pytest
run.  Criteria whose literal statement is unattainable (a provably false
bound, or an infeasible sampling configuration) assert the documented actual
behavior instead and say so in their verdict line; the analysis lives in the
"Deviations from the paper (decision ledger)" section of README.md.
"""

import math
from itertools import product

import numpy as np

from conftest import _random_instances, record_criterion
from fairaudit.adversarial import (
    build_hard_pair,
    build_mixture_family,
    chi_sq_mixture_bound,
    exact_chi_sq_small,
    hellinger_sq,
)
from fairaudit.bounds import le_cam_error_floor, p_error_attr, p_error_weighted, renyi_entropy
from fairaudit.cli import EXIT_H0, EXIT_H1, main
from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.cli import read_records
from fairaudit.cvar_test import Region, TestConfig, classify_region, run_test_dataset
from fairaudit.estimator import exact_moments
from fairaudit.metrics import alpha_star, cvar_fairness, max_gap
from fairaudit.sampling import (
    OPTIMAL_ETA,
    AttributeSpecificPlan,
    WeightedPlan,
)
from fairaudit.simulator import Experiment, SweepPoint, estimate_error, threshold_sweep

# ---------------------------------------------------------------------------
# Shared fixtures (computed once, reused across criteria)

_ENUM_SWEEP = None


def _enumeration_sweep():
    """Exhaustive-enumeration moments over the full small-instance grid.

    K in {1,2,3} with fixed non-uniform weights, n in 2..6, all per-group
    means from {0, 1/3, 1/2, 1}, weighted plans at eta in {0, 2/3, 1} plus
    the attribute-specific plan (even n, gamma = n/2).
    """
    global _ENUM_SWEEP
    if _ENUM_SWEEP is None:
        weight_table = {1: [1.0], 2: [0.3, 0.7], 3: [0.2, 0.3, 0.5]}
        mu_grid = (0.0, 1.0 / 3.0, 0.5, 1.0)
        cases = []
        for k, wvals in weight_table.items():
            w = GroupWeights(wvals)
            for n in range(2, 7):
                plans = [WeightedPlan.from_weights(w, eta, n) for eta in (0.0, 2.0 / 3.0, 1.0)]
                if n % 2 == 0:
                    plans.append(AttributeSpecificPlan(w=w, budget=n, gamma=n / 2))
                for mu in product(mu_grid, repeat=k):
                    inst = FairnessInstance(w, mu)
                    for plan in plans:
                        mom = exact_moments(inst, plan)
                        cases.append((inst, plan, mom))
        _ENUM_SWEEP = cases
    return _ENUM_SWEEP


# ---------------------------------------------------------------------------


def test_criterion_01_level_recovery():
    worst = 0.0
    for inst in _random_instances():
        got = cvar_fairness(inst, alpha_star(inst))
        worst = max(worst, abs(got - max_gap(inst)))
        assert abs(got - max_gap(inst)) <= 1e-12
    record_criterion(
        1, "PASS",
        f"cvar at its recovery level equals the max gap on 1000 random "
        f"instances (worst dev {worst:.2e} <= 1e-12)",
    )


def test_criterion_02_sandwich():
    alphas = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99)
    for inst in _random_instances():
        mg = max_gap(inst)
        for alpha in alphas:
            val = cvar_fairness(inst, alpha)
            assert -1e-12 <= val <= mg + 1e-12
            assert mg <= 1.0 + 1e-12
    record_criterion(
        2, "PASS",
        "0 <= cvar <= max gap <= 1 on 1000 random instances x 6 levels "
        "(1e-12 slack)",
    )


def test_criterion_03_estimator_unbiasedness():
    worst = 0.0
    for inst, _plan, mom in _enumeration_sweep():
        w = inst.weights.as_array()
        mu = inst.mu_array()
        worst = max(
            worst,
            abs(mom.e_f1 - float(np.dot(w, mu * mu))),
            abs(mom.e_f2 - float(np.dot(w, mu))),
        )
        assert abs(mom.e_f1 - float(np.dot(w, mu * mu))) <= 1e-10
        assert abs(mom.e_f2 - float(np.dot(w, mu))) <= 1e-10
    record_criterion(
        3, "PASS",
        f"enumerated means of both statistic terms match their population "
        f"targets on the full small-instance grid (worst dev {worst:.2e} <= 1e-10)",
    )


def test_criterion_04_variance_lemmas():
    # The raw squared-mean term is nonzero only when a group is seen twice,
    # the raw mean term only when seen once, so their variances are bounded
    # by twice the corresponding inclusion probability.
    for inst, plan, mom in _enumeration_sweep():
        incl = plan.inclusion_probabilities()
        for g in range(inst.k):
            p1, p2 = incl[g]
            assert mom.var_term1[g] <= 2.0 * p2 + 1e-10
            assert mom.var_term2[g] <= 2.0 * p1 + 1e-10
    record_criterion(
        4, "PASS",
        "enumerated per-group term variances within 2x the matching "
        "inclusion probabilities across the full grid (1e-10 slack)",
    )


def test_criterion_05_attr_error_bound():
    k, eps = 64, 0.3
    alpha = 1.0 - 1.0 / k
    pair = build_hard_pair(k, eps)
    trials = 10_000
    checked = 0
    vacuous = 0
    # The plan's budget identity needs gamma * w_g <= 1, i.e. n <= 2K.
    for n in (32, 64, 128):
        plan = AttributeSpecificPlan(w=pair.p0.weights, budget=n, gamma=n / 2)
        cfg = TestConfig(alpha=alpha, epsilon=eps, plan=plan)
        est = estimate_error(pair.p0, pair.p1, cfg, trials=trials, base_seed=500)
        bound = p_error_attr(n, alpha, eps)
        if bound.vacuous:
            vacuous += 1
        else:
            checked += 1
            assert est.p_err_hat <= bound.value + 3.0 * est.stderr
        assert 0.0 <= est.p_err_hat <= 1.0
    assert checked + vacuous == 3
    record_criterion(
        5, "PASS",
        f"attribute-specific error bound respected at every grid point where "
        f"it is <= 1 ({checked} such points; {vacuous} of 3 vacuous -- at "
        f"level 1-1/64 the bound exceeds 1 throughout the plan's feasible "
        f"n <= 2K, so the check is vacuous as the criterion anticipates)",
    )


def test_criterion_06_weighted_error_bound():
    k, eps = 64, 0.3
    alpha = 1.0 - 1.0 / k
    pair = build_hard_pair(k, eps)
    w = pair.p0.weights
    trials = 10_000
    checked = 0
    for n in (50_000_000, 200_000_000, 400_000_000):
        plan = WeightedPlan.from_weights(w, OPTIMAL_ETA, n)
        cfg = TestConfig(alpha=alpha, epsilon=eps, plan=plan)
        bound = p_error_weighted(w, plan.v, n, alpha, eps)
        est = estimate_error(pair.p0, pair.p1, cfg, trials=trials, base_seed=600)
        if not bound.vacuous:
            checked += 1
            assert est.p_err_hat <= bound.value + 3.0 * est.stderr
    assert checked >= 2  # the bound dips below 1 for n >= ~1.8e8
    record_criterion(
        6, "PASS",
        f"weighted error bound respected wherever <= 1 ({checked} "
        f"non-vacuous grid points, empirical error 0 at n >= 2e8)",
    )


def test_criterion_07_scaling_shapes():
    eps, trials, target = 0.3, 2000, 0.1

    # Weighted plan, uniform marginal, level = 1 - 1/K: required n grows.
    weighted_grids = {
        16: [250, 500, 1000, 2000],
        64: [2000, 4000, 8000, 16000],
        256: [16000, 32000, 64000, 128000],
    }
    n_hat_weighted = {}
    for k, grid in weighted_grids.items():
        pair = build_hard_pair(k, eps)
        points = []
        for n in grid:
            plan = WeightedPlan.from_weights(pair.p0.weights, 0.0, n)
            cfg = TestConfig(alpha=1.0 - 1.0 / k, epsilon=eps, plan=plan)
            points.append(SweepPoint(axis_value=n, h0=pair.p0, h1=pair.p1, cfg=cfg))
        result = threshold_sweep(
            Experiment(axis="n", points=tuple(points), trials=trials,
                       base_seed=700 + k, target=target)
        )
        assert result.n_hat is not None
        n_hat_weighted[k] = result.n_hat
    growth = n_hat_weighted[256] / n_hat_weighted[16]
    assert growth >= 2.0

    # Attribute-specific plan: required n flat in K.  The stated level
    # 1 - 1/K is infeasible for this plan (its threshold shrinks with K
    # while the plan caps out at n <= 2K, pinning the error near 1/2), so
    # the flatness check runs at a fixed level 0.75 with a quarter of the
    # groups under-served, where the plan operates as designed.
    n_hat_attr = {}
    for k in (4096, 16384, 65536):
        w = GroupWeights.uniform(k)
        hot = k // 4
        h0 = FairnessInstance(w, [0.5] * k)
        h1 = FairnessInstance(w, [0.9] * hot + [0.5] * (k - hot))
        points = []
        for n in (1200, 3000, 7500):
            plan = AttributeSpecificPlan(w=w, budget=n, gamma=n / 2)
            cfg = TestConfig(alpha=0.75, epsilon=eps, plan=plan)
            points.append(SweepPoint(axis_value=n, h0=h0, h1=h1, cfg=cfg))
        result = threshold_sweep(
            Experiment(axis="n", points=tuple(points), trials=trials,
                       base_seed=800 + k, target=target)
        )
        assert result.n_hat is not None
        n_hat_attr[k] = result.n_hat
    flatness = max(n_hat_attr.values()) / min(n_hat_attr.values())
    assert flatness <= 1.5

    # Document the infeasibility of the literal attribute-specific config:
    # at level 1 - 1/K the error stays near the coin-flip floor at every
    # feasible budget.
    k = 64
    pair = build_hard_pair(k, eps)
    plan = AttributeSpecificPlan(w=pair.p0.weights, budget=2 * k, gamma=k)
    cfg = TestConfig(alpha=1.0 - 1.0 / k, epsilon=eps, plan=plan)
    est = estimate_error(pair.p0, pair.p1, cfg, trials=trials, base_seed=900)
    assert est.p_err_hat > 0.3

    record_criterion(
        7, "PASS",
        f"weighted required-n grows with K (ratio {growth:.0f} >= 2: "
        f"{n_hat_weighted}); attribute-specific flat within 1.5 "
        f"(ratio {flatness:.2f}: {n_hat_attr}, run at level 0.75 because the "
        f"literal level 1-1/K pins this plan's error near 0.5 at every "
        f"feasible budget -- see ledger)",
    )


def test_criterion_08_hellinger_bound():
    eps_grid = [round(0.05 * i, 2) for i in range(1, 11)]
    violations = []
    for k in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for eps in eps_grid:
            if 0.5 + eps * k / (k - 1) > 1.0:
                continue
            pair = build_hard_pair(k, eps)
            h2 = hellinger_sq(pair.p0, pair.p1)
            bound = 2.0 - 2.0 * (1.0 - 2.0 * eps * eps / k)
            if h2 > bound + 1e-12:
                violations.append((k, eps, h2, bound))
            if k >= 4:
                assert h2 <= bound + 1e-12, (k, eps)
    # Every violation is the analytically expected K=2 case: there the
    # perturbation is 2*eps and the exact divergence exceeds 2*eps^2 by its
    # positive fourth-order term, so the stated bound cannot hold.
    assert violations
    assert all(k == 2 for k, *_ in violations)
    record_criterion(
        8, "FAIL at K=2 as stated",
        f"closed-form bound holds at every grid point with K >= 4, but is "
        f"analytically false at K=2 ({len(violations)} grid violations, "
        f"largest {max(v[2] / v[3] for v in violations):.2f}x bound -- see ledger)",
    )


def test_criterion_09_le_cam_floor():
    # The displayed converse bounds twice the best achievable error:
    # 2 * floor >= 0.25 throughout n <= K/(8 eps^2).  The halved single-error
    # reading fails near the right edge of that range (see ledger).
    for k in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for eps in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5):
            n_max = math.floor(k / (8.0 * eps * eps))
            grid = sorted(set(
                int(round(x)) for x in np.linspace(0, n_max, 25)
            ))
            for n in grid:
                assert 2.0 * le_cam_error_floor(k, eps, n) >= 0.25, (k, eps, n)
    # Pin the counterexample for the halved reading.
    assert le_cam_error_floor(64, 0.25, 128) < 0.25
    record_criterion(
        9, "PASS",
        "two-point converse keeps 2x the error floor >= 0.25 throughout "
        "n <= K/(8 eps^2) on the full grid (the halved per-error reading "
        "fails near the edge, e.g. K=64, eps=0.25, n=128 -- see ledger)",
    )


def test_criterion_10_mixture_family():
    rng = np.random.default_rng(1010)
    configs = 0
    for k in (4, 8, 16, 64):
        for alpha in (0.25, 0.5, 0.75):
            if math.floor((1.0 - alpha) * k) < 1:
                continue
            for frac in (0.3, 0.6, 1.0):
                eps = frac * alpha / 4.0
                family = build_mixture_family(k, GroupWeights.uniform(k), alpha, eps)
                assert classify_region(family.p0, alpha, eps) is Region.P0
                q = len(family.q)
                if q <= 7:
                    members = [u for u, _ in family.members()]
                else:
                    members = [
                        tuple(int(x) for x in rng.choice((-1, 1), size=q))
                        for _ in range(100)
                    ]
                for u in members:
                    member = family.member(tuple(u))
                    assert classify_region(member, alpha, eps) is Region.P1
                configs += 1
    # Exact small-instance chi-square against the proof-chain closed form.
    chi_checks = 0
    for eps in (0.02, 0.05):
        family = build_mixture_family(2, GroupWeights.uniform(2), 0.5, eps)
        for n in (1, 2, 3, 4):
            chi = exact_chi_sq_small(family, n)
            bound = chi_sq_mixture_bound(2, 0.5, eps, n).proof_chain
            assert chi <= bound + 1e-12
            chi_checks += 1
    record_criterion(
        10, "PASS",
        f"every mixture member lands in the unfair region and the fair base "
        f"in the fair region across {configs} configurations; exact "
        f"chi-square <= closed form on {chi_checks} small instances",
    )


def test_criterion_11_renyi_identities():
    for k in range(2, 4097):
        got = renyi_entropy(GroupWeights.uniform(k), 2.0 / 3.0)
        assert abs(got - math.log2(k)) <= 1e-9
    rng = np.random.default_rng(1111)
    for _ in range(10_000):
        k = int(rng.integers(2, 65))
        w = GroupWeights(rng.dirichlet(np.ones(k)))
        h = renyi_entropy(w, 2.0 / 3.0)
        assert 2.0 ** (h / 2.0) <= math.sqrt(k) + 1e-9
    record_criterion(
        11, "PASS",
        "uniform 2/3-order entropy equals log2 K for K in 2..4096 and the "
        "half-exponent stays below sqrt(K) on 10^4 simplex points (1e-9 slack)",
    )


def test_criterion_12_cli_round_trip(tmp_path, capsys):
    # synth -> audit reproduces the in-memory outcome to full precision.
    out_csv = tmp_path / "synth.csv"
    assert main(
        [
            "synth", "--kind", "hardpair", "--side", "h1", "--k", "8",
            "--epsilon", "0.25", "--plan", "weighted", "--eta", "0",
            "--budget", "400", "--seed", "77", "--out", str(out_csv),
        ]
    ) == 0
    capsys.readouterr()
    conf = tmp_path / "audit.cfg"
    conf.write_text("alpha=0.875\nepsilon=0.25\nplan=weighted\neta=0\nbudget=400\n")
    code = main(["audit", str(out_csv), str(conf)])
    out = capsys.readouterr().out

    counts = read_records(str(out_csv))
    w = GroupWeights.uniform(counts.k)
    plan = WeightedPlan.from_weights(w, 0.0, 400)
    outcome = run_test_dataset(
        counts, w, TestConfig(alpha=0.875, epsilon=0.25, plan=plan)
    )
    assert code == (EXIT_H1 if outcome.decision.value == "H1" else EXIT_H0)
    assert f"statistic: {outcome.statistic.f!r}" in out
    assert f"f1: {outcome.statistic.f1!r}" in out
    assert f"f2: {outcome.statistic.f2!r}" in out

    # simulate is byte-identical across reruns of the same config.
    sim_conf = tmp_path / "exp.cfg"
    sim_conf.write_text(
        "k=8\nalpha=0.875\nepsilon=0.3\nplan=weighted\neta=0\n"
        "n_grid=100,400\ntrials=200\nbase_seed=12\n"
    )
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", str(sim_conf), "--out", str(d1)]) == 0
    assert main(["simulate", str(sim_conf), "--out", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
    record_criterion(
        12, "PASS",
        "synth -> audit reproduces the in-memory decision and statistic to "
        "full precision; simulate output byte-identical across reruns",
    )
