"""The fairaudit benchmark: one command, every workload, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from src/.
For each workload the benchmark writes its inputs from the seed into a
temporary directory under .bench_tmp/, times the program's set-up in
several fresh interpreters, then runs the workload in one more fresh,
single-threaded interpreter (FAIRAUDIT_THREADS unset) that repeats the
operation for S seconds and checks every output.  With --trace 1 that
interpreter also traces the program's modules and reports per-layer figures.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics named
in BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
With --workload all, each workload runs untraced and traced, and the
metric names in that line carry the workload name as a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import tail_quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# Whole-run limit: every child is killed before the benchmark exceeds it.
RUN_LIMIT_S = 170.0
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a checked output failing)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FAIRAUDIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in SINGLE_THREAD_ENV:
        env[key] = "1"
    return env


def run_child(script: str, args: list[str], deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; returns its last output line.

    Input generation runs in a child too, so that this process stays small:
    a child's ru_maxrss starts from the size of the process that forked it.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting {script}")
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=child_env(),
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {args[:2]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Generate inputs, time set-up and the workload; returns the raw results."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        common = ["--workload", workload, "--workdir", str(workdir)]
        expect = run_child("inputs.py", [*common, "--seed", str(seed)], deadline)

        def setup_runs(count):
            return [run_child("worker.py", [*common, "--mode", "setup"], deadline)["setup_s"]
                    for _ in range(count)]

        # Set-up is timed on both sides of the run, so that a slow spell of
        # a shared host does not shift every sample at once.
        setups = setup_runs(SETUP_REPEATS // 2 + 1)
        result = run_child("worker.py", [*common, "--mode", "run", "--seconds", str(seconds),
                                         "--trace", str(trace)], deadline)
        setups += setup_runs(SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    result["setup_runs"] = setups
    result["expect"] = expect
    return result


def report(workload: str, seed: int, trace: int, result: dict, spec: dict) -> dict:
    """Print every metric by name and return those BENCHMARK.json lists."""
    expect = result["expect"]
    ops = result["op_s"]
    if not ops:
        raise BenchError("no operation completed: " + "; ".join(result["problems"]))
    best = min(ops)
    values = {
        "wall_s_min": best,
        "items_per_s": expect["items"] / best,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_runs"]),
    }
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    v = result["versions"]
    print(f"== {workload} (seed {seed}, trace {trace})")
    print(f"why: {why}")
    print(f"environment: python {v['python']}, numpy {v['numpy']}, fairaudit {v['fairaudit']}, "
          f"nproc {os.cpu_count()}, commit {git_commit()}, FAIRAUDIT_THREADS unset in the "
          f"worker (in the caller: {os.environ.get('FAIRAUDIT_THREADS', 'unset')})")
    wall = statistics.median(ops)
    per_s = "rows_per_s" if expect["item_unit"] == "rows" else "trials_per_s"
    label, tail = tail_quantile(ops)
    print(f"wall_s = {wall:.6g} s (median of {len(ops)} operations; {label} {tail:.6g} s)")
    print(f"{per_s} = {expect['items'] / wall:.6g} {expect['item_unit']}/s at the median "
          f"({expect['items']} {expect['item_unit']} per operation)")
    print(f"wall_s_min = {best:.6g} s (fastest of the same operations)")
    print(f"items_per_s = {values['items_per_s']:.6g} 1/s ({per_s} at wall_s_min)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MiB (ru_maxrss of the worker)")
    print(f"setup_s = {values['setup_s']:.6g} s (median of {len(result['setup_runs'])} "
          f"fresh interpreters)")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"check failed: {problem.strip()}")
    if not trace:
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    layers = result.get("layers")
    if layers is None:
        raise BenchError("the traced run produced no per-layer figures")
    traced = result["traced_op_s"]
    print(f"traced wall_s = {statistics.median(traced):.6g} s (median of {len(traced)})")
    for name, m in layers.items():
        note = f" ({m['note']})" if "note" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    return {m["name"]: {"value": layers[m["name"]]["value"], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", default="all", choices=["all", *workloads])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairaudit" / "__init__.py").is_file():
        print(f"error: no fairaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, t) for w in workloads for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    deadline = time.monotonic() + RUN_LIMIT_S * len(plan)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in plan:
            result = measure(workload, args.seed, args.seconds, trace, deadline)
            metrics = report(workload, args.seed, trace, result, spec)
            summary["correct"] &= result["failed"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{workload}." if len(plan) > 1 else ""
            summary["metrics"].update({prefix + k: m for k, m in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
