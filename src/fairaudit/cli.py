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
import math
import os
import re
import sys
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import _MAX_COUNT, GroupWeights, MetricKind
from .cvar_test import (Region, TestConfig, TestOutcome, classify_region, run_test_dataset,
                        threshold)
from .errors import ConfigError, FairauditError
from .sampling import (
    OPTIMAL_ETA,
    AttributeSpecificPlan,
    WeightedPlan,
    estimable_block,
    weighted_marginal,
)
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
# The config keys each subcommand reads; any other key is an error.
_AUDIT_KEYS = frozenset("alpha epsilon metric plan budget eta gamma weights".split())
_SIMULATE_KEYS = frozenset(
    "k alpha epsilon n_grid trials base_seed target instance plan eta gamma".split()
)


def read_config(path: str, keys: frozenset[str]) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment.

    A key outside `keys`, or a key given twice, is a ConfigError that names
    its line.  A leading UTF-8 BOM, as some editors write, is skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated (first on line {first[key]})")
        first[key] = lineno
        out[key] = value
    return out


_REQUIRED = object()


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


_EXPECTED = {int: "an integer", float: "a number", _int_list: "comma-separated integers"}


def _one_of(choices: tuple[str, ...]):
    """The (test, rule) pair of a value that must be one of `choices`."""
    return choices.__contains__, "one of " + ", ".join(map(repr, choices))


# (test, rule) pairs and choices that more than one config key or option takes.
_ALPHA = (lambda a: 0 <= a < 1, "in [0, 1)")
_NON_NEGATIVE = (lambda x: x >= 0, ">= 0")
_POSITIVE = (lambda n: n >= 1, ">= 1")
# The rule of an eta at which a weighted plan has a marginal.
_ETA_POWERS = ">= 0, with some w_g^eta > 0"
_PLANS = ("weighted", "attr")


def _setting(conf: dict[str, str], path: str, key: str, parse, default, test, rule: str):
    """conf[key] read by `parse` (str, int, float or _int_list) and checked by
    `test`, or the untested `default` (`_REQUIRED`: none) when it is absent.

    A missing required key, a value `parse` rejects, a float that is NaN or
    infinite, or a value `test` rejects (`KEY must be RULE, got 'TEXT'`) is a
    ConfigError that names the file and the key.  Callers read each key a
    rule depends on first, and the first bad key in that order is reported.
    """
    if key not in conf:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing key {key!r}")
        return default
    text = conf[key]
    try:
        value = parse(text)
    except ValueError:
        raise ConfigError(f"{path}: {key} must be {_EXPECTED[parse]}, got {text!r}") from None
    if parse is float and not math.isfinite(value):
        raise ConfigError(f"{path}: {key} must be a finite number, got {text!r}")
    if not test(value):
        raise ConfigError(f"{path}: {key} must be {rule}, got {text!r}")
    return value


def _make_plan(kind: str, w: GroupWeights, budget: int, eta: float, gamma: float | None,
               eta_error: str):
    """The named sampling plan; without gamma, the attribute-specific plan's default.

    A weighted plan whose (finite, non-negative) eta underflows every w_g^eta
    to 0 is ConfigError(eta_error).
    """
    if kind == "weighted":
        try:
            v = weighted_marginal(w, eta)
        except ValueError:
            raise ConfigError(eta_error) from None
        return WeightedPlan(v=v, budget=budget)
    if gamma is None:
        return AttributeSpecificPlan.default(w, budget)
    return AttributeSpecificPlan(w=w, budget=budget, gamma=gamma)


def _eta_error(conf: dict[str, str], path: str, eta: float) -> str:
    """The error of a config whose eta leaves a weighted plan no marginal."""
    return f"{path}: eta must be {_ETA_POWERS}, got {conf.get('eta', repr(eta))!r}"


def _warn_if_clipped(plan: AttributeSpecificPlan) -> None:
    """One stderr line when an attribute-specific plan caps some gamma * w_g at 1.

    The estimator stays unbiased, but the plan then expects fewer samples
    than its budget (the identity sum_g E[M_g] = n needs gamma * w_g <= 1).
    """
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
    if names:
        # One tail per distinct count, put between the names.
        warn = "  (warning: fewer than 2 samples)"
        values, which = np.unique(outcome.counts, return_inverse=True)
        tails = [f"]: {m}{warn if m < 2 else ''}\ncount[" for m in values.tolist()]
        parts = [""] * (2 * len(names))
        parts[0::2] = names
        parts[1::2] = map(tails.__getitem__, which.tolist())
        parts[-1] = parts[-1].removesuffix("\ncount[")
        lines.append("count[" + "".join(parts))
    return "\n".join(lines)


def cmd_audit(args) -> int:
    from .reader import read_audit

    path = args.config
    conf = read_config(path, _AUDIT_KEYS)
    setting = partial(_setting, conf, path)
    alpha = setting("alpha", float, _REQUIRED, *_ALPHA)
    epsilon = setting("epsilon", float, _REQUIRED,
                      lambda e: e > 0 and 0 < threshold(alpha, e) <= 0.5,
                      "> 0, with a threshold (1 - alpha) epsilon^2 / 2 in (0, 0.5]")
    metric = MetricKind(setting("metric", str, "sp", *_one_of(("sp", "eo"))))
    plan_kind = setting("plan", str, "weighted", *_one_of(_PLANS))
    attr = plan_kind == "attr"
    least = 1 if attr else 2  # the weighted plan observes a group twice from n = 2
    budget = setting("budget", int, None, lambda n: least <= n <= _MAX_COUNT,
                     f"in [{least}, {_MAX_COUNT}]")
    eta = setting("eta", float, OPTIMAL_ETA, *_NON_NEGATIVE)
    block_rule = f"> 0, with budget / gamma a whole number from 2 to {_MAX_COUNT}"
    gamma = setting("gamma", float, None,
                    lambda g: g > 0 and (not attr or budget is None or estimable_block(budget, g)),
                    block_rule if attr else "> 0")
    source = conf.get("weights", "uniform")
    sidecar = None if source in ("uniform", "empirical") else source
    if sidecar is not None:
        if not os.path.exists(sidecar):
            raise ConfigError(f"{path}: weights file not found: {sidecar!r}")
        if os.path.isdir(sidecar):
            raise ConfigError(f"{path}: weights file is a directory: {sidecar!r}")
    counts, w = read_audit(args.input, metric, sidecar)
    if w is None:  # uniform, or empirical: sample shares (the reader keeps a row or more)
        m = counts.m
        w = GroupWeights.uniform(counts.k) if source == "uniform" else GroupWeights(m / m.sum())
    if budget is None:  # the kept rows
        budget = int(counts.m.sum())
        if not attr and budget < 2:
            raise ConfigError(f"{args.input}: the weighted plan needs a budget of at least 2, got "
                              f"{budget} kept row")
        if attr and gamma is not None and not estimable_block(budget, gamma):
            raise ConfigError(f"{path}: gamma must be {block_rule}, for the budget of {budget} "
                              f"kept rows, got {conf['gamma']!r}")
    plan = _make_plan(plan_kind, w, budget, eta, gamma, _eta_error(conf, path, eta))
    if attr:
        _warn_if_clipped(plan)
    cfg = TestConfig(alpha=alpha, epsilon=epsilon, plan=plan)
    outcome = run_test_dataset(counts, w, cfg)
    print(_render_outcome(outcome, counts.names))
    return EXIT_H1 if outcome.decision.value == "H1" else EXIT_H0


def _check_options(args, ranges) -> None:
    """A ConfigError naming the first option that is not finite, or not in its range.

    `ranges` holds (option, test, rule) triples; a float option left at None
    is not checked.
    """
    for name in ("alpha", "epsilon", "delta", "eta", "gamma"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value!r}")
    for name, test, rule in ranges:
        value = getattr(args, name)
        if not test(value):
            raise ConfigError(f"--{name} must be {rule}, got {value!r}")


def _group_name(g: int, k: int) -> str:
    width = len(str(k - 1))
    return f"g{g:0{width}d}"


def cmd_synth(args) -> int:
    import csv

    from .adversarial import build_hard_pair, build_mixture_family

    _check_options(args, [("k", *_POSITIVE), ("budget", *_POSITIVE), ("seed", *_NON_NEGATIVE),
                          ("eta", *_NON_NEGATIVE)])
    k = args.k
    if args.kind == "hardpair":
        pair = build_hard_pair(k, args.epsilon)
        inst = pair.p1 if args.side == "h1" else pair.p0
    else:  # mixture
        family = build_mixture_family(k, GroupWeights.uniform(k), args.alpha, args.epsilon)
        inst = family.member((1,) * len(family.q)) if args.side == "h1" else family.p0
    plan = _make_plan(args.plan, inst.weights, args.budget, args.eta, args.gamma,
                      f"--eta must be {_ETA_POWERS}, got {args.eta!r}")
    rng = np.random.default_rng(args.seed)
    m = plan.draw_counts(rng)
    mu = inst.mu_array().tolist()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        try:
            writer = csv.writer(fh)
            writer.writerow(["group", "label", "prediction"])
            for g in range(k):
                bits = rng.binomial(1, mu[g], size=int(m[g]))
                for bit in bits:
                    writer.writerow([_group_name(g, k), 0, int(bit)])
        except Exception:  # such as a group too large to draw: leave no partial file
            fh.close()
            os.remove(args.out)
            raise
    print(f"wrote {int(m.sum())} rows to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    from .adversarial import build_hard_pair

    path = args.config
    conf = read_config(path, _SIMULATE_KEYS)
    setting = partial(_setting, conf, path)
    trials = setting("trials", int, _REQUIRED, *_POSITIVE)
    base_seed = setting("base_seed", int, 0, *_NON_NEGATIVE)
    k = setting("k", int, _REQUIRED, lambda k: k >= 2, ">= 2")
    alpha = setting("alpha", float, _REQUIRED, *_ALPHA)
    epsilon = setting("epsilon", float, _REQUIRED,
                      lambda e: 0 < e <= 0.5 and threshold(alpha, e) > 0,
                      "in (0, 0.5], with a threshold (1 - alpha) epsilon^2 / 2 > 0")
    target = setting("target", float, 0.1, lambda t: 0 <= t <= 1, "in [0, 1]")
    setting("instance", str, "hardpair", *_one_of(("hardpair",)))
    plan_kind = setting("plan", str, "weighted", *_one_of(_PLANS))
    attr = plan_kind == "attr"
    least = 1 if attr else 2  # the weighted plan observes a group twice from n = 2
    n_grid = setting("n_grid", _int_list, _REQUIRED,
                     lambda ns: least <= min(ns) and max(ns) <= _MAX_COUNT,
                     f"a list of budgets in [{least}, {_MAX_COUNT}]")
    eta = setting("eta", float, OPTIMAL_ETA, *_NON_NEGATIVE)
    gamma = setting("gamma", float, None,
                    lambda g: g > 0 and (not attr or all(estimable_block(n, g) for n in n_grid)),
                    f"> 0, with n / gamma a whole number from 2 to {_MAX_COUNT} for each n of "
                    "n_grid" if attr else "> 0")
    out_dir = Path(args.out)
    made = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not made.is_dir():  # out_dir is made after the trials: fail before them
        raise ConfigError(f"--out must name a directory, and {str(made)!r} is not one")
    pair = build_hard_pair(k, epsilon)
    # The one perturbed group has weight 1/k: for k > 2 its gap reaches the
    # CVaR only when 1 - alpha is about 1/k or less.
    if classify_region(pair.p1, alpha, epsilon) is not Region.P1:
        raise ConfigError(f"{path}: alpha must be in [0, 1), with the hard pair's h1 instance at "
                          f"CVaR fairness >= epsilon, got {conf['alpha']!r}")
    points = []
    eta_error = _eta_error(conf, path, eta)
    for n in n_grid:
        plan = _make_plan(plan_kind, pair.p0.weights, n, eta, gamma, eta_error)
        if attr:
            _warn_if_clipped(plan)
        cfg = TestConfig(alpha=alpha, epsilon=epsilon, plan=plan)
        points.append(SweepPoint(axis_value=n, h0=pair.p0, h1=pair.p1, cfg=cfg))
    exp = Experiment(
        axis="n", points=tuple(points), trials=trials, base_seed=base_seed, target=target
    )
    result = threshold_sweep(exp)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, str(out_dir / "sweep.csv"))
    write_manifest(str(out_dir / "manifest.json"), dict(conf), base_seed)
    print(f"wrote {len(result.rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_bounds(args) -> int:
    from .bounds import build_report, p_error_attr, p_error_weighted

    _check_options(args, [
        ("k", *_POSITIVE),
        ("alpha", *_ALPHA),
        ("epsilon", lambda e: e > 0, "> 0"),
        ("epsilon", lambda e: e <= 1, "<= 1"),  # a gap between means in [0, 1]
        ("delta", lambda d: 0 < d < 1, "in (0, 1)"),
        ("n", lambda ns: min(ns, default=2) >= 2, "at least 2 each"),
        ("n", lambda ns: max(ns, default=2) <= sys.float_info.max, f"<= {sys.float_info.max} each"),
    ])
    w = GroupWeights.uniform(args.k)
    scale = (1.0 - args.alpha) ** 2 * args.epsilon**4 * args.delta  # the sizes divide by it
    report = build_report(w, args.alpha, args.epsilon, args.delta) if scale > 0 else None
    if report is None or not all(map(math.isfinite, (report.n_weighted.n, report.n_attr.n))):
        name = "epsilon" if args.epsilon**4 < args.delta else "delta"  # the smaller factor
        raise ConfigError(f"--{name} must be larger: (1 - alpha)^2 epsilon^4 delta = {scale!r} "
                          f"gives no finite sample size, got {getattr(args, name)!r}")
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
        v = weighted_marginal(w, OPTIMAL_ETA)
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
    p_synth.add_argument("--plan", choices=_PLANS, default="weighted")
    p_synth.add_argument("--eta", type=float, default=OPTIMAL_ETA)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its message; --help exits 0
        return EXIT_USAGE if exc.code else 0
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
    except MemoryError as exc:  # such as an array for a huge --k
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
