"""One workload in a fresh interpreter: set up, run, check, optionally trace.

    python3 bench/worker.py --workload NAME --workdir DIR --mode setup
    python3 bench/worker.py --workload NAME --workdir DIR --mode run --seconds S --trace 0|1

The inputs and expectations in DIR come from bench/inputs.py.  The last line
of standard output is one JSON object with the measurements.  In setup mode
it holds only `setup_s`: the time to import fairaudit and build everything
the timed call needs.  In run mode one untimed warm-up operation fills the
program's caches, then operations repeat until S seconds have passed.  With
--trace 1, untraced and traced operations alternate, and per-layer figures
come from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import check_audit, check_sweep

MIN_OPS = 3
TRACED_MODULES = ("cli", "core", "sampling", "estimator", "cvar_test", "metrics", "simulator")


def _cli_call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def prepare(expect: dict):
    """Import the program and build the timed call; returns (op, check)."""
    import fairaudit.cli as cli

    if expect["kind"] == "audit":
        def op():
            return _cli_call(cli, expect["argv"])

        def check(result):
            return check_audit(*result, expect)

        return op, check

    if expect["kind"] == "sim_cli":
        runs = expect["runs"]

        def op():
            return [_cli_call(cli, run["argv"]) for run in runs]

        def outputs(result):
            problems = [f"simulate exit code {code}: {out.strip()}"
                        for code, out in result if code != 0]
            return problems, [run["csv"] for run in runs]

        return op, _sweep_checker(expect, outputs)

    import fairaudit.simulator as simulator
    from fairaudit import AttributeSpecificPlan, FairnessInstance, GroupWeights, TestConfig

    spec = json.loads(Path(expect["spec"]).read_text(encoding="utf-8"))
    k, hot = spec["k"], spec["hot"]
    w = GroupWeights.uniform(k)
    h0 = FairnessInstance(w, [spec["mu"]] * k)
    h1 = FairnessInstance(w, [spec["mu_hot"]] * hot + [spec["mu"]] * (k - hot))
    points = tuple(
        simulator.SweepPoint(
            axis_value=n, h0=h0, h1=h1,
            cfg=TestConfig(alpha=spec["alpha"], epsilon=spec["epsilon"],
                           plan=AttributeSpecificPlan(w=w, budget=n, gamma=n / 2)))
        for n in spec["n_grid"]
    )
    exp = simulator.Experiment(axis="n", points=points, trials=spec["trials"],
                               base_seed=spec["base_seed"], target=spec["target"])
    Path(expect["csv"]).parent.mkdir(parents=True, exist_ok=True)

    def op():
        result = simulator.threshold_sweep(exp)
        simulator.write_sweep_csv(result, expect["csv"])
        simulator.write_manifest(expect["manifest"], spec, spec["base_seed"])

    return op, _sweep_checker(expect, lambda result: ([], [expect["csv"]]))


def _sweep_checker(expect: dict, outputs):
    """Band-check the first operation's sweep.csv files; later operations must
    reproduce them byte for byte (every operation reruns the same seed), and
    inherit the first operation's verdict."""
    first: dict[str, tuple[bytes, list[str]]] = {}

    def check(result):
        problems, paths = outputs(result)
        for path in paths:
            data = Path(path).read_bytes()
            if not Path(path).with_name("manifest.json").is_file():
                problems.append(f"{path}: no manifest.json beside it")
            if path not in first:
                first[path] = (data, check_sweep(data.decode("utf-8"), expect["reference"][path],
                                                 expect["trials"], expect["target"]))
            elif data != first[path][0]:
                problems.append(f"{path}: same-seed rerun is not byte-identical")
            problems += first[path][1]
        return problems

    return check


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, op, check):
        self.op, self.check = op, check
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, wrap=contextlib.nullcontext) -> float:
        self.attempted += 1
        try:
            with wrap():
                start = time.perf_counter()
                result = self.op()
                elapsed = time.perf_counter() - start
            problems = self.check(result)
        except Exception:  # a traceback is a failed operation, not a crash
            elapsed, problems = None, [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems += problems[:3]
        return elapsed


def tail_quantile(values: list[float]) -> tuple[str, float]:
    """The highest of p50/p90/p99/p99.9 with at least ten values beyond it,
    or the maximum when there are fewer than twenty values."""
    values = sorted(values)
    n = len(values)
    label, q = "max", 1.0
    for p in (0.5, 0.9, 0.99, 0.999):
        if n * (1.0 - p) >= 10:
            label, q = f"p{p * 100:g}", p
    return label, values[min(n - 1, int(q * n))]


def layer_metrics(traced_ops: list[list], counters: dict, expect: dict, cache) -> dict:
    """Per-layer figures from the spans of the traced operations."""
    from tracing import self_times

    per_op: list[dict] = []   # per op: name -> [inclusive ns, self ns]
    calls: dict[str, list] = {}  # name -> [(inclusive ns, self ns)] over all ops
    coverage = []
    for spans in traced_ops:
        selfs = self_times(spans)
        totals: dict[str, list] = {}
        root = next(i for i, s in enumerate(spans) if s[0] == "op")
        op_ns = spans[root][2] - spans[root][1]
        covered = 0
        for (name, start, end, parent, _), self_ns in zip(spans, selfs):
            if name == "op":
                continue
            t = totals.setdefault(name, [0, 0])
            t[0] += end - start
            t[1] += self_ns
            calls.setdefault(name, []).append((end - start, self_ns))
            if parent == root:
                covered += end - start
        totals["op"] = [op_ns, 0]
        per_op.append(totals)
        coverage.append(covered / op_ns)

    def med(name, idx):
        return statistics.median(t.get(name, [0, 0])[idx] for t in per_op) / 1e9

    def share(names, idx=0):
        return statistics.median(
            sum(t.get(n, [0, 0])[idx] for n in names) / t["op"][0] for t in per_op)

    def per_call_us(name, idx=0):
        vals = [c[idx] / 1e3 for c in calls.get(name, [])]
        if not vals:
            return 0.0, ("none", 0.0)
        return statistics.median(vals), tail_quantile(vals)

    # cli.main's own work (argument and config parsing, weights, rendering)
    # is the self time of every cli span except the two file readers.
    cli_names = [n for n in calls if n.startswith("cli.")
                 and n not in ("cli.read_records", "cli.read_weight_sidecar")]
    ops = len(per_op)
    out = {}

    def put(name, value, unit, note=None):
        out[name] = {"value": value, "unit": unit}
        if note:
            out[name]["note"] = note

    read_s = med("cli.read_records", 0)
    put("cli.read_records.s", read_s, "s")
    put("cli.read_records.rows_per_s", expect.get("rows", 0) / read_s if read_s else 0.0, "rows/s")
    put("cli.read_records.mb_per_s",
        expect.get("csv_bytes", 0) / 1e6 / read_s if read_s else 0.0, "MB/s")
    put("cli.read_records.share", share(["cli.read_records"]), "frac")
    put("core.records_to_samples.s", med("core.records_to_samples", 0), "s")
    put("core.records_to_samples.share", share(["core.records_to_samples"]), "frac")
    rows_in = counters["records_in"]
    put("core.records_to_samples.kept_frac", counters["records_kept"] / rows_in if rows_in else 0.0,
        "frac")
    put("cli.read_weight_sidecar.s", med("cli.read_weight_sidecar", 0), "s")
    put("cli.read_weight_sidecar.share", share(["cli.read_weight_sidecar"]), "frac")
    put("cvar_test.run_test_dataset.self_s", med("cvar_test.run_test_dataset", 1), "s")
    put("cvar_test.run_test_dataset.self_share", share(["cvar_test.run_test_dataset"], 1), "frac")
    put("cli.main.self_s", sum(med(n, 1) for n in cli_names), "s")
    put("cli.main.self_share", share(cli_names, 1), "frac")
    seed_p50, _ = per_call_us("simulator.seed")
    put("simulator.seed.us_p50", seed_p50, "us")
    put("simulator.seed.share", share(["simulator.seed"]), "frac")
    put("simulator.estimate_error.self_s", med("simulator.estimate_error", 1), "s")
    put("simulator.estimate_error.self_share", share(["simulator.estimate_error"], 1), "frac")
    rts_p50, _ = per_call_us("cvar_test.run_test_synthetic", 1)
    put("cvar_test.run_test_synthetic.self_us_p50", rts_p50, "us")
    put("cvar_test.run_test_synthetic.self_share", share(["cvar_test.run_test_synthetic"], 1),
        "frac")
    for name in ("estimator.estimate_from_counts", "sampling.draw_counts"):
        p50, (label, tail) = per_call_us(name)
        put(f"{name}.calls", len(calls.get(name, [])) / ops, "count")
        put(f"{name}.us_p50", p50, "us")
        put(f"{name}.us_tail", tail, "us", note=label)
        put(f"{name}.share", share([name]), "frac")
    groups = counters["groups"]
    put("sampling.groups_included_frac", counters["groups_included"] / groups if groups else 0.0,
        "frac")
    info = cache.cache_info()
    lookups = info.hits + info.misses
    put("sampling.inclusion_array.hit_frac", info.hits / lookups if lookups else 0.0, "frac")
    for name in ("metrics.cvar_fairness", "cvar_test.classify_region",
                 "simulator.write_sweep_csv", "simulator.write_manifest"):
        put(f"{name}.s", med(name, 0), "s")
        put(f"{name}.share", share([name]), "frac")
    for module in TRACED_MODULES:
        names = [n for n in calls if n.startswith(module + ".")]
        put(f"self_share.{module}", share(names, 1), "frac")
    put("trace.coverage_frac", statistics.median(coverage), "frac")
    return out


def make_tracer():
    """A tracer over the program's modules, and the counters its observers fill."""
    import numpy as np

    from tracing import Tracer

    modules = {name: sys.modules[f"fairaudit.{name}"] for name in TRACED_MODULES}
    counters = {"records_in": 0, "records_kept": 0, "groups": 0, "groups_included": 0}

    def kept(args, result):
        counters["records_in"] += len(args[0])
        counters["records_kept"] += len(result)

    def included(counts):
        counters["groups"] += len(counts)
        counters["groups_included"] += int(np.count_nonzero(counts))

    tracer = Tracer(
        modules,
        extra=[(np.random, "default_rng", "simulator.seed")],
        observers={
            "core.records_to_samples": kept,
            "sampling.draw_counts": lambda args, m: included(m),
            "cvar_test.run_test_dataset": lambda args, outcome: included(outcome.counts),
        },
    )
    return tracer, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=["setup", "run"], required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    expect = json.loads((Path(args.workdir) / "expect.json").read_text(encoding="utf-8"))

    start = time.perf_counter()
    op, check = prepare(expect)
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    import fairaudit
    from fairaudit.sampling import inclusion_array

    runner = Runner(op, check)
    runner.run()  # warm-up: fills caches, checked like every other operation
    untraced, traced, traced_spans = [], [], []
    tracer, counters = make_tracer() if args.trace else (None, None)

    @contextlib.contextmanager
    def traced_op():
        with tracer.installed():
            tracer.op += 1
            with tracer.span("op"):
                yield

    deadline = time.perf_counter() + args.seconds
    while True:
        elapsed = runner.run()
        if elapsed is not None:
            untraced.append(elapsed)
        if tracer is not None:
            elapsed = runner.run(traced_op)
            spans = tracer.take()
            if elapsed is not None:
                traced.append(elapsed)
                traced_spans.append(spans)
        done = len(traced if tracer is not None else untraced)
        if time.perf_counter() >= deadline and done >= MIN_OPS:
            break

    report = {
        "setup_s": setup_s,
        "op_s": untraced,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "fairaudit": fairaudit.__version__},
    }
    if tracer is not None:
        report["traced_op_s"] = traced
        if traced_spans and untraced:
            layers = layer_metrics(traced_spans, counters, expect, inclusion_array)
            overhead = min(traced) / min(untraced) - 1.0
            layers["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
            report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
