"""Tests of the benchmark itself: seeded inputs, output checks, tracing shim.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

import fairaudit  # noqa: E402
from fairaudit import cli, cvar_test, estimator, sampling  # noqa: E402


def _files(workdir: Path) -> dict[str, bytes]:
    """Every generated file, with the directory name masked out."""
    return {p.name: p.read_bytes().replace(str(workdir).encode(), b"<dir>")
            for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", list(inputs.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    inputs.generate(workload, 7, a)
    inputs.generate(workload, 7, b)
    inputs.generate(workload, 8, c)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def _audit(workload, tmp_path):
    expect = inputs.generate(workload, 3, tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(expect["argv"])
    return expect, code, buf.getvalue()


def test_audit_check_passes_on_program_output(tmp_path):
    expect, code, out = _audit("audit_eo_wide", tmp_path)
    assert checks.check_audit(code, out, expect) == []


def test_audit_check_catches_planted_errors(tmp_path):
    expect, code, out = _audit("audit_eo_wide", tmp_path)
    other = "H1" if expect["decision"] == "H0" else "H0"
    flipped = out.replace(f"decision: {expect['decision']}", f"decision: {other}")
    assert any("decision" in p for p in checks.check_audit(code, flipped, expect))
    assert any("exit code" in p for p in checks.check_audit(3 - code, out, expect))
    stat = f"statistic: {expect['statistic']!r}"
    nudged = out.replace(stat, f"statistic: {expect['statistic'] * (1 + 1e-9)!r}")
    assert nudged != out
    assert any("statistic" in p for p in checks.check_audit(code, nudged, expect))
    first = expect["names"][0]
    recounted = out.replace(f"count[{first}]: {expect['counts'][0]}",
                            f"count[{first}]: {expect['counts'][0] + 1}")
    assert any("counts" in p for p in checks.check_audit(code, recounted, expect))
    traceback_text = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert checks.check_audit(64, traceback_text, expect) != []


REFERENCE = [
    {"n": 100, "q0": 0.30, "q1": 0.30, "p_err": 0.30, "ref_trials": 2000},
    {"n": 200, "q0": 0.05, "q1": 0.05, "p_err": 0.05, "ref_trials": 2000},
]
HEADER = "n,p_err_hat,stderr,frac_h1_given_h0,frac_h0_given_h1,trials,n_hat"


def _sweep(p0, p1, n_hat="200"):
    rows = [f"100,{p0!r},0.0,{p0!r},{p0!r},200,{n_hat}",
            f"200,{p1!r},0.0,{p1!r},{p1!r},200,{n_hat}"]
    return "\n".join([HEADER, *rows]) + "\n"


def test_sweep_check_accepts_estimates_inside_the_band():
    assert checks.check_sweep(_sweep(0.31, 0.045), REFERENCE, 200, 0.1) == []


def test_sweep_check_catches_planted_errors():
    outside = 0.30 + 1.5 * checks.band(REFERENCE[0], 200)
    assert any("outside" in p for p in checks.check_sweep(_sweep(outside, 0.05), REFERENCE, 200, 0.1))
    assert any("n_hat" in p for p in checks.check_sweep(_sweep(0.3, 0.05, "100"), REFERENCE, 200, 0.1))
    assert any("trials" in p for p in checks.check_sweep(_sweep(0.3, 0.05), REFERENCE, 100, 0.1))
    short = "\n".join(_sweep(0.3, 0.05).splitlines()[:2]) + "\n"
    assert any("rows" in p for p in checks.check_sweep(short, REFERENCE, 200, 0.1))


def test_sweep_check_passes_on_program_output(tmp_path):
    expect = inputs.generate("sim_attr_wide", 5, tmp_path)
    op, check = worker.prepare(expect)
    op()
    assert check(None) == []
    Path(expect["csv"]).write_text(Path(expect["csv"]).read_text().replace("1200,", "1201,", 1))
    assert check(None) != []  # a rerun that differs from the first output fails


def test_sweep_reruns_inherit_a_failed_band_check(tmp_path):
    expect = inputs.generate("sim_attr_wide", 5, tmp_path)
    for row in expect["reference"][expect["csv"]]:
        row["p_err"] += 0.5  # plant a reference the program cannot match
    op, check = worker.prepare(expect)
    op()
    assert any("outside" in p for p in check(None))
    op()
    assert any("outside" in p for p in check(None))


def _originals():
    return {
        "estimator": estimator.estimate_from_counts,
        "cvar_test": cvar_test.estimate_from_counts,
        "draw": sampling.WeightedPlan.draw_counts,
        "from_weights": sampling.WeightedPlan.__dict__["from_weights"],
        "incl": sampling.inclusion_array,
        "pkg": fairaudit.estimate_from_counts,
    }


def test_untraced_run_sees_the_original_functions():
    before = _originals()
    tracer, _ = worker.make_tracer()
    with tracer.installed():
        inside = _originals()
        assert all(inside[k] is not before[k] for k in before)
        plan = sampling.WeightedPlan.from_weights(fairaudit.GroupWeights.uniform(4), 0.0, 50)
        cvar_test.run_test_synthetic(
            fairaudit.FairnessInstance(plan.v, [0.5] * 4),
            cvar_test.TestConfig(alpha=0.5, epsilon=0.3, plan=plan),
            np.random.default_rng(0))
    names = {s[0] for s in tracer.take()}
    assert {"sampling.draw_counts", "estimator.estimate_from_counts",
            "cvar_test.run_test_synthetic", "sampling.from_weights"} <= names
    assert all(_originals()[k] is before[k] for k in before)
    cli.main(["bounds", "--k", "4"])  # an untraced call records nothing
    assert tracer.spans == []


def test_self_time_subtracts_direct_children():
    spans = [("a", 0, 100, -1, 1), ("b", 10, 40, 0, 1), ("c", 15, 25, 1, 1), ("d", 50, 70, 0, 1)]
    assert self_times(spans) == [50, 20, 10, 20]


def test_tracer_records_parent_and_op():
    tracer = Tracer({"estimator": estimator})
    tracer.op = 4
    with tracer.installed(), tracer.span("op"):
        estimator.estimate([[1, 0], [1, 1]], fairaudit.GroupWeights.uniform(2),
                           [(1.0, 1.0), (1.0, 1.0)])
    spans = tracer.take()
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("op", -1, 4), ("estimator.estimate", 0, 4), ("estimator.estimate_from_counts", 1, 4)]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    counters = {"records_in": 0, "records_kept": 0, "groups": 0, "groups_included": 0}
    layers = worker.layer_metrics([[("op", 0, 10, -1, 1)]], counters, {}, sampling.inclusion_array)
    layers["trace.overhead_frac"] = {}
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)


def test_runner_counts_a_traceback_as_a_failed_operation():
    def op():
        raise ValueError("boom")

    runner = worker.Runner(op, lambda result: [])
    assert runner.run() is None
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "ValueError: boom" in runner.problems[0]
