"""Command-line front end: audits on CSV data, synthetic data generation,
Monte Carlo sweeps, and bound reports.

Input data is UTF-8 CSV with header columns `group,label,prediction` (group
is an arbitrary string; intersectional groups should be pre-joined by the
user, e.g. "female|asian|20-30").  The audit reduces it in one pass to
per-group counts.  Group weights come from a flat key-value config file:
uniform, empirical (sample proportions), or an explicit sidecar CSV
`group,weight`.

Exit codes are the machine contract: 0 = H0 (no violation detected),
3 = H1 (violation detected), >= 64 = error.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .adversarial import build_hard_pair, build_mixture_family
from .bounds import build_report, p_error_attr, p_error_weighted
from .core import GroupCounts, GroupWeights, MetricKind
from .cvar_test import TestConfig, TestOutcome, run_test_dataset
from .errors import ConfigError, FairauditError
from .sampling import AttributeSpecificPlan, WeightedPlan, weighted_marginal
from .simulator import (
    Experiment,
    SweepPoint,
    threshold_sweep,
    write_manifest,
    write_sweep_csv,
)

EXIT_H0 = 0
EXIT_H1 = 3
EXIT_USAGE = 64
EXIT_DATA = 65


# A '#' starts a comment at the start of a line or after whitespace, so
# values such as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")
# Fast path for 0/1 cells; anything else goes through int() (so " 1" and
# "+0" are accepted) and a range check.
_BITS = {"0": 0, "1": 1}


def read_config(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@contextmanager
def _csv_columns(path: str, columns: tuple[str, ...]):
    """Open a UTF-8 CSV; yields its reader, past the header, and the positions
    of the named columns (the last one where a name repeats, as in
    csv.DictReader).  Undecodable or unparsable input becomes a ConfigError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty file")
            pos = {name: i for i, name in enumerate(header)}
            missing = set(columns) - pos.keys()
            if missing:
                raise ConfigError(f"{path}: missing columns {sorted(missing)}")
            yield reader, [pos[name] for name in columns]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc


def _bad_row(path: str, lineno: int, row: list[str], exc: Exception) -> ConfigError:
    reason = f"too few fields: {len(row)}" if isinstance(exc, IndexError) else exc
    return ConfigError(f"{path}:{lineno}: bad row ({reason})")


def _bit(cell: str, column: str) -> int:
    value = int(cell)
    if value not in (0, 1):
        raise ValueError(f"{column} must be 0 or 1, got {value}")
    return value


def read_records(path: str, metric: MetricKind = MetricKind.STATISTICAL_PARITY) -> GroupCounts:
    """Reduce a data CSV to per-group counts under the metric, in one pass.

    Each group gets a dense id as it first appears; the counts come back
    ordered by group name.  Blank lines are skipped.
    """
    ids: dict[str, int] = {}
    group: list[int] = []
    label: list[int] = []
    prediction: list[int] = []
    bits = _BITS.get
    with _csv_columns(path, ("group", "label", "prediction")) as (reader, (gi, li, pi)):
        for row in reader:
            if not row:
                continue
            try:
                g = row[gi]
                y = bits(row[li])
                if y is None:
                    y = _bit(row[li], "label")
                yh = bits(row[pi])
                if yh is None:
                    yh = _bit(row[pi], "prediction")
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, row, exc) from exc
            gid = ids.get(g)
            if gid is None:
                gid = ids[g] = len(ids)
            group.append(gid)
            label.append(y)
            prediction.append(yh)
    if not ids:
        raise ConfigError(f"{path}: no data rows")
    return GroupCounts.from_rows(list(ids), group, label, prediction, metric)


def read_weight_sidecar(path: str, names: Sequence[str]) -> GroupWeights:
    """Read a `group,weight` CSV aligned to the sorted group names."""
    table: dict[str, float] = {}
    with _csv_columns(path, ("group", "weight")) as (reader, (gi, wi)):
        for row in reader:
            if not row:
                continue
            try:
                table[row[gi]] = float(row[wi])
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, row, exc) from exc
    missing = [n for n in names if n not in table]
    if missing:
        raise ConfigError(f"{path}: missing weights for groups {missing}")
    return GroupWeights([table[n] for n in names])


def _resolve_weights(conf: dict[str, str], counts: GroupCounts) -> GroupWeights:
    source = conf.get("weights", "uniform")
    if source == "uniform":
        return GroupWeights.uniform(counts.k)
    if source == "empirical":
        total = counts.m.sum()
        if total == 0:
            raise ConfigError("empirical weights need at least one sample")
        return GroupWeights(counts.m / total)
    return read_weight_sidecar(source, counts.names)


def _make_plan(kind: str, w: GroupWeights, budget: int, eta: float, gamma: float | None):
    """The named sampling plan; the attribute-specific gamma defaults to budget / 2."""
    if kind == "weighted":
        return WeightedPlan.from_weights(w, eta, budget)
    if kind == "attr":
        if gamma is None:
            gamma = budget / 2
        return AttributeSpecificPlan(w=w, budget=budget, gamma=gamma)
    raise ConfigError(f"unknown plan {kind!r}")


def _warn_if_clipped(plan) -> None:
    """One stderr line when an attribute-specific plan caps some gamma * w_g at 1.

    The estimator stays unbiased, but the plan then expects fewer samples
    than its budget (the identity sum_g E[M_g] = n needs gamma * w_g <= 1).
    """
    if not isinstance(plan, AttributeSpecificPlan):
        return
    clipped = int(np.count_nonzero(plan.gamma * plan.w.as_array() > 1.0))
    if clipped:
        expected = plan.block * plan.expected_included()
        print(
            f"warning: attribute-specific plan clips {clipped} group(s) with gamma * w_g > 1; "
            f"expects {expected!r} samples against a budget of {plan.budget}",
            file=sys.stderr,
        )


def _render_outcome(outcome: TestOutcome, names: Sequence[str]) -> str:
    lines = [
        f"decision: {outcome.decision.value}",
        f"statistic: {outcome.statistic.f!r}",
        f"f1: {outcome.statistic.f1!r}",
        f"f2: {outcome.statistic.f2!r}",
        f"threshold: {outcome.threshold!r}",
    ]
    for g, name in enumerate(names):
        m = outcome.counts[g]
        warn = "  (warning: fewer than 2 samples)" if m < 2 else ""
        lines.append(f"count[{name}]: {m}{warn}")
    return "\n".join(lines)


def cmd_audit(args) -> int:
    conf = read_config(args.config)
    counts = read_records(args.input, MetricKind(conf.get("metric", "sp")))
    w = _resolve_weights(conf, counts)
    gamma = conf.get("gamma")
    plan = _make_plan(
        conf.get("plan", "weighted"),
        w,
        int(conf.get("budget", counts.m.sum())),
        float(conf.get("eta", 2.0 / 3.0)),
        None if gamma is None else float(gamma),
    )
    _warn_if_clipped(plan)
    cfg = TestConfig(alpha=float(conf["alpha"]), epsilon=float(conf["epsilon"]), plan=plan)
    outcome = run_test_dataset(counts, w, cfg)
    print(_render_outcome(outcome, counts.names))
    return EXIT_H1 if outcome.decision.value == "H1" else EXIT_H0


def _group_name(g: int, k: int) -> str:
    width = len(str(k - 1))
    return f"g{g:0{width}d}"


def cmd_synth(args) -> int:
    k = args.k
    if args.kind == "hardpair":
        pair = build_hard_pair(k, args.epsilon)
        inst = pair.p1 if args.side == "h1" else pair.p0
    elif args.kind == "mixture":
        family = build_mixture_family(k, GroupWeights.uniform(k), args.alpha, args.epsilon)
        inst = family.member((1,) * len(family.q)) if args.side == "h1" else family.p0
    else:
        raise ConfigError(f"unknown kind {args.kind!r}")
    plan = _make_plan(args.plan, inst.weights, args.budget, args.eta, args.gamma)
    rng = np.random.default_rng(args.seed)
    m = plan.draw_counts(rng)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "label", "prediction"])
        for g in range(k):
            bits = rng.binomial(1, inst.mu[g], size=int(m[g]))
            for bit in bits:
                writer.writerow([_group_name(g, k), 0, int(bit)])
    print(f"wrote {int(m.sum())} rows to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    conf = read_config(args.config)
    trials = int(conf.get("trials", "0"))
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    base_seed = int(conf.get("base_seed", "0"))
    k = int(conf["k"])
    alpha = float(conf["alpha"])
    epsilon = float(conf["epsilon"])
    target = float(conf.get("target", "0.1"))
    if conf.get("instance", "hardpair") != "hardpair":
        raise ConfigError("only instance=hardpair sweeps are supported")
    pair = build_hard_pair(k, epsilon)
    n_grid = [int(x) for x in conf["n_grid"].split(",")]
    plan_kind = conf.get("plan", "weighted")
    eta = float(conf.get("eta", 2.0 / 3.0))
    gamma = float(conf["gamma"]) if "gamma" in conf else None
    points = []
    for n in n_grid:
        plan = _make_plan(plan_kind, pair.p0.weights, n, eta, gamma)
        _warn_if_clipped(plan)
        cfg = TestConfig(alpha=alpha, epsilon=epsilon, plan=plan)
        points.append(SweepPoint(axis_value=n, h0=pair.p0, h1=pair.p1, cfg=cfg))
    exp = Experiment(
        axis="n", points=tuple(points), trials=trials, base_seed=base_seed, target=target
    )
    result = threshold_sweep(exp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, str(out_dir / "sweep.csv"))
    write_manifest(str(out_dir / "manifest.json"), dict(conf), base_seed)
    print(f"wrote {len(result.rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_bounds(args) -> int:
    w = GroupWeights.uniform(args.k)
    report = build_report(w, args.alpha, args.epsilon, args.delta)
    print(f"K: {args.k}")
    print(f"alpha: {args.alpha}  epsilon: {args.epsilon}  delta: {args.delta}")
    print(f"renyi_2/3: {report.renyi_23!r} bits")

    def row(name, size):
        flag = "  [order-only]" if size.order_only else ""
        print(f"{name}: {size.n!r}{flag}")

    row("n_weighted", report.n_weighted)
    row("n_attr", report.n_attr)
    row("n_converse_maxgap", report.n_converse_maxgap)
    row("n_converse_cvar", report.n_converse_cvar)
    if args.n:
        v = weighted_marginal(w, 2.0 / 3.0)
        for n in args.n:
            pw = p_error_weighted(w, v, n, args.alpha, args.epsilon)
            pa = p_error_attr(n, args.alpha, args.epsilon)
            print(
                f"p_err(n={n}): weighted={pw.value!r}{' (vacuous)' if pw.vacuous else ''} "
                f"attr={pa.value!r}{' (vacuous)' if pa.vacuous else ''}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairaudit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run the threshold test on a data CSV")
    p_audit.add_argument("input", help="data CSV (group,label,prediction)")
    p_audit.add_argument("config", help="flat key=value config file")
    p_audit.set_defaults(func=cmd_audit)

    p_synth = sub.add_parser("synth", help="emit a synthetic audit dataset")
    p_synth.add_argument("--kind", choices=["hardpair", "mixture"], default="hardpair")
    p_synth.add_argument("--side", choices=["h0", "h1"], default="h1")
    p_synth.add_argument("--k", type=int, required=True)
    p_synth.add_argument("--epsilon", type=float, required=True)
    p_synth.add_argument("--alpha", type=float, default=0.5)
    p_synth.add_argument("--plan", choices=["weighted", "attr"], default="weighted")
    p_synth.add_argument("--eta", type=float, default=2.0 / 3.0)
    p_synth.add_argument("--gamma", type=float, default=None)
    p_synth.add_argument("--budget", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser("simulate", help="Monte Carlo error sweep")
    p_sim.add_argument("config", help="flat key=value experiment config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="print closed-form bound report")
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--alpha", type=float, default=0.5)
    p_bounds.add_argument("--epsilon", type=float, default=0.1)
    p_bounds.add_argument("--delta", type=float, default=0.01)
    p_bounds.add_argument("--n", type=int, nargs="*", default=[])
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FairauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
