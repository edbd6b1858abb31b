"""Seeded inputs for the benchmark workloads, and the expected answers.

Everything here is independent of the `fairaudit` package: the generators
write plain files (CSV data, a weight sidecar, key=value configs, a JSON
sweep spec) and compute what the program should answer from the counts they
generated, with their own implementation of the statistic F = F1 - F2^2 and
their own vectorized Monte Carlo of the threshold test.

The same seed always writes byte-identical files and the same expectations.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

# --- workload shapes --------------------------------------------------------

# audit_eo_wide: equal opportunity, attribute-specific plan, K=16384.
EO_K = 16_384
EO_BLOCK = 6               # label-0 rows per included group
EO_GAMMA = 12_288          # gamma * w_g = 0.75 under uniform weights
EO_LABEL1_MAX = 4          # label-1 rows per group: uniform on 1..4
EO_MU = 0.5
EO_MU_HOT = 0.9            # a quarter of the groups
EO_ALPHA = 0.75
EO_EPSILON = 0.3

# sim_weighted_sweep: criterion-7 weighted shape (hard pair, eta=0, alpha=1-1/K).
SW_GRIDS = {
    16: (250, 500, 1000, 2000),
    64: (2000, 4000, 8000, 16000),
    256: (16000, 32000, 64000, 128000),
}
SW_TRIALS = 200
SW_EPSILON = 0.3

# sim_attr_wide: criterion-7 attribute shape (K=65536, quarter at mu=0.9).
SA_K = 65_536
SA_GRID = (1200, 3000, 7500)
SA_TRIALS = 16
SA_ALPHA = 0.75
SA_EPSILON = 0.3
SA_MU = 0.5
SA_MU_HOT = 0.9

TARGET = 0.1
# Reference Monte Carlo trials per side, as a multiple of the program's.
REF_TRIALS_FACTOR = 10


def threshold(alpha: float, epsilon: float) -> float:
    return (1.0 - alpha) * epsilon * epsilon / 2.0


def statistic(s, m, w, p1, p2) -> tuple[float, float]:
    """(F1, F2) from per-group counts, summed exactly with math.fsum."""
    f1_terms, f2_terms = [], []
    for sg, mg, wg, a, b in zip(s, m, w, p1, p2):
        sg, mg = int(sg), int(mg)
        if wg <= 0:
            continue
        if mg >= 2:
            f1_terms.append((wg / b) * (sg / mg) * ((sg - 1.0) / (mg - 1.0)))
        if mg >= 1:
            f2_terms.append((wg / a) * (sg / mg))
    return math.fsum(f1_terms), math.fsum(f2_terms)


def _binomial_inclusion(n: int, v: float) -> tuple[float, float]:
    """(P[Bin(n,v) >= 1], P[Bin(n,v) >= 2])."""
    q = math.log1p(-v)
    p1 = -math.expm1(n * q)
    return p1, p1 - n * v * math.exp((n - 1) * q)


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> int:
    """Write string columns as CSV; returns the file size in bytes."""
    line = columns[0]
    for col in columns[1:]:
        line = np.char.add(np.char.add(line, ","), col)
    text = header + "\n" + "\n".join(line.tolist()) + "\n"
    path.write_bytes(text.encode("utf-8"))
    return path.stat().st_size


def _write_config(path: Path, conf: dict) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in conf.items()), encoding="utf-8")


def _names(k: int) -> np.ndarray:
    width = len(str(k - 1))
    return np.array([f"g{g:0{width}d}" for g in range(k)])


# --- audit workloads --------------------------------------------------------


def make_audit_eo(rng: np.random.Generator, workdir: Path) -> dict:
    """Many small groups; label-1 rows are dropped by conditioning."""
    k, block = EO_K, EO_BLOCK
    names = _names(k)
    mu = np.full(k, EO_MU)
    mu[rng.permutation(k)[: k // 4]] = EO_MU_HOT
    included = rng.random(k) < EO_GAMMA / k
    n_label1 = rng.integers(1, EO_LABEL1_MAX + 1, k)
    g0 = np.repeat(np.flatnonzero(included), block)
    g1 = np.repeat(np.arange(k), n_label1)
    group = np.concatenate([g0, g1])
    label = np.concatenate([np.zeros(g0.size, np.int64), np.ones(g1.size, np.int64)])
    pred = (rng.random(group.size) < mu[group]).astype(np.int64)
    order = rng.permutation(group.size)
    group, label, pred = group[order], label[order], pred[order]
    data = workdir / "data.csv"
    size = _write_csv(
        data, "group,label,prediction", [names[group], label.astype(str), pred.astype(str)]
    )
    sidecar = workdir / "weights.csv"
    _write_csv(sidecar, "group,weight", [names[rng.permutation(k)], np.full(k, repr(1.0 / k))])
    conf = workdir / "audit.cfg"
    _write_config(conf, {"alpha": EO_ALPHA, "epsilon": EO_EPSILON, "metric": "eo",
                         "plan": "attr", "budget": EO_GAMMA * block, "gamma": EO_GAMMA,
                         "weights": str(sidecar)})
    kept = label == 0
    m = np.bincount(group[kept], minlength=k)
    s = np.bincount(group[kept], weights=pred[kept], minlength=k).astype(np.int64)
    p = min(EO_GAMMA / k, 1.0)
    f1, f2 = statistic(s, m, [1.0 / k] * k, [p] * k, [p] * k)
    return _audit_expect(["audit", str(data), str(conf)], names, m, f1, f2,
                         threshold(EO_ALPHA, EO_EPSILON), group.size, size)


def _audit_expect(argv, names, m, f1, f2, tau, rows, size) -> dict:
    f = f1 - f2 * f2
    decision = "H1" if f >= tau else "H0"
    return {
        "kind": "audit",
        "argv": argv,
        "decision": decision,
        "exit_code": 3 if decision == "H1" else 0,
        "statistic": f,
        "names": [str(x) for x in names],
        "counts": [int(x) for x in m],
        "rows": int(rows),
        "csv_bytes": int(size),
        "items": int(rows),
        "item_unit": "rows",
    }


# --- simulation workloads ---------------------------------------------------


def _decide(f1: np.ndarray, f2: np.ndarray, tau: float) -> np.ndarray:
    return f1 - f2 * f2 >= tau


def reference_weighted(k: int, n: int, mu: np.ndarray, tau: float, trials: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Per-trial H1 decisions for the weighted plan with uniform marginal."""
    v = np.full(k, 1.0 / k)
    p1, p2 = _binomial_inclusion(n, 1.0 / k)
    m = rng.multinomial(n, v, size=trials)
    s = rng.binomial(m, mu)
    md = np.maximum(m, 1).astype(float)
    md1 = np.maximum(m - 1, 1).astype(float)
    t1 = np.where(m >= 2, (s / md) * ((s - 1.0) / md1), 0.0)
    t2 = np.where(m >= 1, s / md, 0.0)
    return _decide((1.0 / k / p2) * t1.sum(axis=1), (1.0 / k / p1) * t2.sum(axis=1), tau)


def reference_attr(k: int, n: int, hot: int, mu_hot: float, mu: float, tau: float,
                   trials: int, rng: np.random.Generator) -> np.ndarray:
    """Per-trial H1 decisions for the attribute plan with blocks of 2.

    With uniform weights and a block of two, a group's terms depend only on
    its one-count s in {0, 1, 2}: F1 adds w/p when s = 2 and F2 adds
    (w/p) * s/2.  So a trial reduces to multinomial counts of s per mean.
    """
    p = (n / 2) / k
    ones = np.zeros(trials)
    twos = np.zeros(trials)
    for size, q in ((hot, mu_hot), (k - hot, mu)):
        included = rng.binomial(size, p, size=trials)
        split = rng.multinomial(included, [(1 - q) ** 2, 2 * q * (1 - q), q * q])
        ones += split[:, 1] + 2 * split[:, 2]
        twos += split[:, 2]
    scale = (1.0 / k) / p
    return _decide(scale * twos, scale * ones / 2.0, tau)


def _reference_row(h1_on_fair: np.ndarray, h1_on_unfair: np.ndarray) -> dict:
    """Error rates from per-trial H1 decisions on the fair and unfair instance."""
    q0 = float(h1_on_fair.mean())
    q1 = float(1.0 - h1_on_unfair.mean())
    return {"q0": q0, "q1": q1, "p_err": (q0 + q1) / 2.0, "ref_trials": int(h1_on_fair.size)}


def make_sim_weighted(rng: np.random.Generator, workdir: Path, base_seed: int) -> dict:
    eps = SW_EPSILON
    runs, rows = [], {}
    ref_trials = REF_TRIALS_FACTOR * SW_TRIALS
    for k, grid in SW_GRIDS.items():
        alpha = 1.0 - 1.0 / k
        conf = workdir / f"sim_k{k}.cfg"
        _write_config(conf, {"instance": "hardpair", "plan": "weighted", "eta": 0.0,
                             "k": k, "alpha": repr(alpha), "epsilon": eps,
                             "n_grid": ",".join(map(str, grid)), "trials": SW_TRIALS,
                             "base_seed": base_seed + k, "target": TARGET})
        out = workdir / f"out_k{k}"
        runs.append({"argv": ["simulate", str(conf), "--out", str(out)],
                     "csv": str(out / "sweep.csv")})
        mu0 = np.full(k, 0.5)
        mu1 = mu0.copy()
        mu1[0] = 0.5 + eps * k / (k - 1)
        tau = threshold(alpha, eps)
        rows[str(out / "sweep.csv")] = [
            dict(n=n, **_reference_row(
                reference_weighted(k, n, mu0, tau, ref_trials, rng),
                reference_weighted(k, n, mu1, tau, ref_trials, rng)))
            for n in grid
        ]
    trials = sum(2 * SW_TRIALS * len(g) for g in SW_GRIDS.values())
    return {"kind": "sim_cli", "runs": runs, "reference": rows, "trials": SW_TRIALS,
            "target": TARGET, "items": trials, "item_unit": "trials"}


def make_sim_attr(rng: np.random.Generator, workdir: Path, base_seed: int) -> dict:
    k, hot = SA_K, SA_K // 4
    tau = threshold(SA_ALPHA, SA_EPSILON)
    ref_trials = REF_TRIALS_FACTOR * SA_TRIALS
    spec = {"k": k, "hot": hot, "mu": SA_MU, "mu_hot": SA_MU_HOT, "alpha": SA_ALPHA,
            "epsilon": SA_EPSILON, "n_grid": list(SA_GRID), "trials": SA_TRIALS,
            "base_seed": base_seed, "target": TARGET}
    spec_path = workdir / "sweep_spec.json"
    spec_path.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
    out = workdir / "out"
    rows = [
        dict(n=n, **_reference_row(
            reference_attr(k, n, hot, SA_MU, SA_MU, tau, ref_trials, rng),
            reference_attr(k, n, hot, SA_MU_HOT, SA_MU, tau, ref_trials, rng)))
        for n in SA_GRID
    ]
    return {"kind": "sim_api", "spec": str(spec_path), "csv": str(out / "sweep.csv"),
            "manifest": str(out / "manifest.json"), "reference": {str(out / "sweep.csv"): rows},
            "trials": SA_TRIALS, "target": TARGET,
            "items": 2 * SA_TRIALS * len(SA_GRID), "item_unit": "trials"}


WORKLOADS = {
    "audit_eo_wide": lambda rng, workdir, base_seed: make_audit_eo(rng, workdir),
    "sim_weighted_sweep": make_sim_weighted,
    "sim_attr_wide": make_sim_attr,
}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under `workdir`; returns its expectations."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    base_seed = int(rng.integers(0, 2**31))
    expect = WORKLOADS[workload](rng, workdir, base_seed)
    expect["workload"] = workload
    expect["seed"] = seed
    (workdir / "expect.json").write_text(json.dumps(expect) + "\n", encoding="utf-8")
    return expect


def main(argv=None) -> None:
    """Command line: generate one workload's inputs, print its expectations."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, Path(args.workdir))))


if __name__ == "__main__":
    main()
