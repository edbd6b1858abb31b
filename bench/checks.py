"""Output checks: each returns a list of problems, empty when the output is right."""

from __future__ import annotations

import math

STAT_REL_TOL = 1e-12
# Band half-width for p_err_hat: BAND_Z standard errors of the difference
# between the program's estimate and the reference estimate, plus one
# program trial's worth of slack for discreteness at rates near 0 or 1.
BAND_Z = 5.0


def check_audit(exit_code, stdout: str, expect: dict) -> list[str]:
    """Exit code, decision, statistic and per-group counts of one audit."""
    problems = []
    if exit_code != expect["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit_code']}")
    fields, counts = {}, {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key.startswith("count[") and key.endswith("]"):
            counts[key[6:-1]] = value.split()[0]
        else:
            fields[key] = value
    if fields.get("decision") != expect["decision"]:
        problems.append(f"decision {fields.get('decision')!r}, expected {expect['decision']}")
    try:
        stat = float(fields["statistic"])
    except (KeyError, ValueError):
        problems.append("no statistic line")
    else:
        want = expect["statistic"]
        if not abs(stat - want) <= STAT_REL_TOL * abs(want):
            problems.append(f"statistic {stat!r}, expected {want!r} (rel tol {STAT_REL_TOL})")
    want_counts = dict(zip(expect["names"], map(str, expect["counts"])))
    if counts != want_counts:
        wrong = sorted(set(counts.items()) ^ set(want_counts.items()))[:3]
        problems.append(f"per-group counts differ, e.g. {wrong}")
    return problems


def band(ref: dict, trials: int) -> float:
    """Half-width of the acceptance band for p_err_hat around ref['p_err']."""
    floor = 1.0 / ref["ref_trials"]
    var = 0.0
    for q in (ref["q0"], ref["q1"]):
        q = min(max(q, floor), 1.0 - floor)
        var += q * (1.0 - q)
    var *= (1.0 / trials + 1.0 / ref["ref_trials"]) / 4.0
    return BAND_Z * math.sqrt(var) + 1.0 / trials


def check_sweep(text: str, reference: list[dict], trials: int, target: float) -> list[str]:
    """Shape of sweep.csv, each p_err_hat inside its band, and n_hat."""
    lines = text.splitlines()
    want_header = "n,p_err_hat,stderr,frac_h1_given_h0,frac_h0_given_h1,trials,n_hat"
    if not lines or lines[0] != want_header:
        return [f"bad header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, expected {len(reference)}"]
    problems = []
    n_hat = None
    for row, ref in zip(rows, reference):
        try:
            n, p_hat, f0, f1 = float(row[0]), float(row[1]), float(row[3]), float(row[4])
            row_trials = int(row[5])
        except (IndexError, ValueError):
            problems.append(f"unparsable row {row!r}")
            continue
        if n != ref["n"] or row_trials != trials:
            problems.append(f"row n={row[0]} trials={row[5]}, expected n={ref['n']} trials={trials}")
        if not math.isclose(p_hat, (f0 + f1) / 2.0, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"n={ref['n']}: p_err_hat {p_hat!r} is not the mean of its sides")
        half = band(ref, trials)
        if abs(p_hat - ref["p_err"]) > half:
            problems.append(
                f"n={ref['n']}: p_err_hat {p_hat!r} outside {ref['p_err']:.4f} +- {half:.4f}"
            )
        if n_hat is None and p_hat <= target:
            n_hat = row[0]
    got_n_hat = {row[6] for row in rows if len(row) > 6}
    if got_n_hat != {n_hat or ""}:
        problems.append(f"n_hat column {sorted(got_n_hat)}, expected {n_hat or ''!r}")
    return problems
