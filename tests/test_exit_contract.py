"""The exit contract of the `fairaudit` command, as one table.

Each row runs in a fresh directory that is also its working directory: it
writes the row's files, runs the command, and checks its exit code and its
exact stderr.  A command that fails (exit >= 64) writes nothing to stdout,
leaves the directory as it found it and, in process, runs no Monte Carlo
trial.

Every row runs in process through `cli.main`.  When the imported `fairaudit`
is an installed copy, not the checkout's `src/`, every row also runs through
the installed `fairaudit` console script, which must then exist.
"""

import subprocess
import sysconfig
from pathlib import Path
from typing import NamedTuple

import pytest

import fairaudit
from fairaudit import adversarial, cli

MAX = 2**63 - 1  # the largest count numpy's samplers take
H0_OR_H1 = frozenset({0, 3})


class Row(NamedTuple):
    id: str
    argv: str  # split on whitespace
    files: dict  # name -> text (written as UTF-8) or bytes
    code: int | frozenset
    err: str | tuple = ""  # the exact stderr, or fragments of argparse's after its usage line
    out: str = ""  # a prefix of stdout, where the command succeeds
    before: tuple = ()  # commands run first, each exiting 0
    no_build: bool = False  # in process, run with adversarial.build_hard_pair = None


def cfg(base: dict, setting: str = "") -> str:
    """Config text: `base` with the key=value lines of `setting` set, in place or appended."""
    conf = {**base, **dict(line.split("=", 1) for line in setting.splitlines())}
    return "".join(f"{k}={v}\n" for k, v in conf.items())


AUDIT = {"alpha": "0.5", "epsilon": "0.3"}
SIM = {"k": "4", "alpha": "0.5", "epsilon": "0.3", "n_grid": "10", "trials": "2"}
SIM8 = {"k": "8", "alpha": "0.875", "epsilon": "0.3", "n_grid": "50,100", "trials": "20"}
HEADER = "group,label,prediction\n"
FAIR = HEADER + "g0,0,0\n" * 4 + "g1,0,0\n" * 4
TWO = HEADER + "g0,0,0\ng0,0,0\ng1,0,1\ng1,0,1\n"  # F = 0.25 >= the threshold 0.2 of H1_CFG
FOUR = HEADER + "g0,0,0\ng1,0,1\ng2,0,0\ng3,0,1\n"
H1_CFG = "alpha=0.2\nepsilon=0.7071067811865476\nplan=weighted\neta=0\n"
ZERO_ETA = "alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\n"
MANY = HEADER + "".join(f"g{g:04d},0,0\n" for g in range(3000))
SYNTH = "synth --k 4 --epsilon 0.1 --budget 10 --out s.csv"
BLOCK = f"> 0, with budget / gamma a whole number from 2 to {MAX}"
BLOCKS = f"> 0, with n / gamma a whole number from 2 to {MAX} for each n of n_grid"
THRESHOLD = "> 0, with a threshold (1 - alpha) epsilon^2 / 2 in (0, 0.5]"
SIM_EPSILON = "in (0, 0.5], with a threshold (1 - alpha) epsilon^2 / 2 > 0"
NO_SIZE = "must be larger: (1 - alpha)^2 epsilon^4 delta ="


def audit_bad(id, setting, rule):
    """An out-of-range key (the last line of `setting`), reported before the
    data CSV (here absent) is read."""
    key, value = setting.splitlines()[-1].split("=")
    return Row(id, "audit absent.csv c.cfg", {"c.cfg": cfg(AUDIT, setting)}, 64,
               f"error: c.cfg: {key} must be {rule}, got {value!r}\n", no_build=True)


def sim_bad(id, setting, rule, base=SIM):
    """An out-of-range key (the last line of `setting`), reported before the
    hard pair is built."""
    key, value = setting.splitlines()[-1].split("=")
    return Row(id, "simulate c.cfg --out o", {"c.cfg": cfg(base, setting)}, 64,
               f"error: c.cfg: {key} must be {rule}, got {value!r}\n", no_build=True)


def sim_fails(id, conf, err):
    return Row(id, "simulate c.cfg --out o", {"c.cfg": conf}, 64, f"error: {err}\n")


ROWS = [
    # audit: decisions.
    Row("audit-h0", "audit data.csv c.cfg", {"data.csv": FAIR, "c.cfg": ZERO_ETA}, 0,
        out="decision: H0\n"),
    Row("audit-h1", "audit data.csv audit.cfg", {"data.csv": TWO, "audit.cfg": H1_CFG}, 3,
        out="decision: H1\n"),
    Row("audit-eo", "audit data.csv c.cfg",
        {"data.csv": HEADER + "g0,0,0\ng0,1,1\ng0,0,0\ng1,0,0\ng1,1,1\ng1,0,0\n",
         "c.cfg": "alpha=0.5\nepsilon=0.3\nmetric=eo\neta=0\n"}, 0),
    Row("audit-synth", "audit synth.csv synth.cfg",
        {"synth.cfg": "alpha=0.5\nepsilon=0.3\nplan=weighted\n"}, H0_OR_H1,
        before=("synth --k 16 --epsilon 0.3 --budget 400 --seed 1 --out synth.csv",)),
    Row("audit-quoted-names", "audit quoted.csv audit.cfg",
        {"quoted.csv": HEADER + '"g,0",0,1\ng1,0,0\n"g,0",0,1\ng1,0,0\n', "audit.cfg": H1_CFG},
        H0_OR_H1),
    Row("audit-data-bom", "audit bom.csv audit.cfg",
        {"bom.csv": "\ufeff" + HEADER + "g0,0,0\ng1,0,1\n", "audit.cfg": H1_CFG}, H0_OR_H1),
    *(Row(f"audit-edge-{name}", "audit d.csv c.cfg",
          {"d.csv": HEADER + "g0,0,1\ng1,0,0\n" * 2, "c.cfg": cfg(AUDIT, setting)}, H0_OR_H1)
      for name, setting in [("alpha-zero", "alpha=0"), ("alpha-high", "alpha=0.99"),
                            ("epsilon-one", "epsilon=1"), ("eta-zero", "eta=0"),
                            ("budget", "budget=4"),
                            ("attr-block", "plan=attr\nbudget=4\ngamma=2")]),
    Row("audit-budget-least", "audit d.csv c.cfg",
        {"d.csv": HEADER + "g0,0,1\ng1,0,0\n", "c.cfg": cfg(AUDIT, "budget=2")}, H0_OR_H1),
    # audit: the weight sidecar.
    Row("audit-sidecar", "audit data.csv c.cfg",
        {"data.csv": FAIR, "w.csv": "group,weight\ng0,0.3\ng1,0.7\n",
         "c.cfg": ZERO_ETA + "weights=w.csv\n"}, 0),
    Row("audit-sidecar-hash-path", "audit data.csv c.cfg",
        {"data.csv": FAIR, "run#3/w.csv": "group,weight\ng0,0.3\ng1,0.7\n",
         "c.cfg": ZERO_ETA + "weights=run#3/w.csv  # sidecar\n"}, 0),
    Row("audit-sidecar-long-cells", "audit four.csv long.cfg",
        {"four.csv": FOUR, "long.csv": "group,weight\n" + "".join(
            f"g{g},0.250000000000000000000000000000000\n" for g in range(4)),
         "long.cfg": "alpha=0.5\nepsilon=0.3\nweights=long.csv\n"}, H0_OR_H1),
    Row("audit-sidecar-extra-group", "audit four.csv five.cfg",
        {"four.csv": FOUR, "five.csv": "group,weight\n" + "".join(f"g{g},0.2\n" for g in range(5)),
         "five.cfg": "alpha=0.5\nepsilon=0.3\nweights=five.csv\n"}, H0_OR_H1),
    *(Row(f"audit-sidecar-{name}", "audit data.csv c.cfg",
          {"data.csv": FAIR, "w.csv": f"group,weight\ng0,{cell}\ng1,{rest}\n",
           "c.cfg": ZERO_ETA + "weights=w.csv\n"}, 65, f"error: w.csv: weights must be {rule}\n")
      for name, cell, rest, rule in [("nan", "nan", "0.5", "finite"),
                                     ("inf", "inf", "0.5", "finite"),
                                     ("negative", "-0.5", "1.5", "non-negative")]),
    # Rows of a group the sidecar weights 0, which no plan draws.
    *(Row(f"audit-sidecar-zero-weight-{plan}", "audit data.csv c.cfg",
          {"data.csv": TWO + "z,0,0\nz,0,1\n", "w.csv": "group,weight\ng0,0.5\ng1,0.5\nz,0\n",
           "c.cfg": cfg(AUDIT, "eta=0\nweights=w.csv" + setting)}, 65,
          "error: groups 'z' have samples but zero inclusion probability under the plan\n")
      for plan, setting in [("weighted", ""), ("attr", "\nplan=attr\nbudget=4\ngamma=2")]),
    Row("audit-sidecar-sum", "audit data.csv c.cfg",
        {"data.csv": FAIR, "w.csv": "group,weight\ng0,0.5\ng1,0.25\n",
         "c.cfg": "alpha=0.5\nepsilon=0.3\nweights=w.csv\n"}, 65,
        "error: w.csv: weights sum to 0.75, not 1\n"),
    *(Row(f"audit-sidecar-missing-{name}", "audit data.csv c.cfg",
          {"data.csv": MANY, "w.csv": sidecar, "c.cfg": "alpha=0.5\nepsilon=0.3\nweights=w.csv\n"},
          64, "error: w.csv: missing weights for groups 'g0001', 'g0002', 'g0003', 'g0004', "
              "'g0005' ... (2999 groups in all)\n")
      for name, sidecar in [("plain", "group,weight\ng0000,1.0\n"),
                            ("quoted", 'group,weight\n"g0000",1.0\n')]),
    # audit: the data CSV.
    Row("audit-data-missing-column", "audit d.csv c.cfg",
        {"d.csv": "group,label\ng0,0\n", "c.cfg": cfg(AUDIT)}, 64,
        "error: d.csv: missing columns ['prediction']\n"),
    Row("audit-data-header-only", "audit hdr.csv c.cfg", {"hdr.csv": HEADER, "c.cfg": cfg(AUDIT)},
        64, "error: hdr.csv: no data rows\n"),
    Row("audit-data-open-empty-cell", "audit d.csv c.cfg",
        {"d.csv": HEADER + "a,0,1\nb,1,", "c.cfg": cfg(AUDIT)}, 64,
        "error: d.csv:3: bad row (invalid literal for int() with base 10: '')\n"),
    Row("audit-one-kept-row", "audit d.csv c.cfg",
        {"d.csv": HEADER + "g0,0,1\n", "c.cfg": cfg(AUDIT)}, 64,
        "error: d.csv: the weighted plan needs a budget of at least 2, got 1 kept row\n"),
    Row("audit-attr-mismatch", "audit data.csv c.cfg",
        {"data.csv": HEADER + "".join(f"g{g:04d},0,0\n" * (3 if g % 2 else 2) for g in range(3000)),
         "c.cfg": "alpha=0.5\nepsilon=0.3\nplan=attr\nbudget=3000\ngamma=1500\n"}, 65,
        "error: attribute-specific counts must be 0 or 2; groups 'g0001', 'g0003', 'g0005', "
        "'g0007', 'g0009' ... (1500 groups in all) violate this\n"),
    # audit: the config file.
    Row("audit-config-not-utf8", "audit data.csv c.cfg",
        {"data.csv": FAIR, "c.cfg": b"alpha=0.5\nepsilon=0.3\n# caf\xe9\n"}, 64,
        "error: c.cfg: not valid UTF-8 (invalid continuation byte)\n"),
    Row("audit-key-unknown", "audit data.csv c.cfg",
        {"data.csv": HEADER + "g0,0,0\ng0,1,1\ng1,0,1\ng1,1,1\n",
         "c.cfg": "alpha=0.5\nepsilon=0.3\n# eo\nmetirc=eo\neta=0\n"}, 64,
        "error: c.cfg:4: unknown key 'metirc'\n"),
    *(Row(f"audit-key-missing-{key}", "audit data.csv c.cfg",
          {"data.csv": HEADER + "g0,0,0\ng1,0,1\n", "c.cfg": f"{other}\n"}, 64,
          f"error: c.cfg: missing key {key!r}\n")
      for key, other in [("alpha", "epsilon=0.3"), ("epsilon", "alpha=0.5")]),
    Row("audit-key-repeated", "audit absent.csv c.cfg",
        {"c.cfg": "alpha=0.5\nepsilon=0.3\nalpha=0.01\n"}, 64,
        "error: c.cfg:3: key 'alpha' repeated (first on line 1)\n"),
    *(audit_bad(f"audit-parse-{key}", f"{key}={value}", want)
      for key, value, want in [("alpha", "half", "a number"), ("epsilon", "0.3.1", "a number"),
                               ("budget", "1e3", "an integer"), ("eta", "2/3", "a number"),
                               ("gamma", "", "a number")]),
    *(audit_bad(f"audit-{key}-{value}", f"{key}={value}", "a finite number")
      for key in ("alpha", "epsilon", "eta", "gamma")
      for value in ("nan", "inf", "-inf", "NaN", "-Infinity")),
    *(audit_bad(f"audit-{key}-{value}", f"{key}={value}", want)
      for key, value, want in [("metric", "xx", "one of 'sp', 'eo'"),
                               ("metric", "EO", "one of 'sp', 'eo'"),
                               ("plan", "foo", "one of 'weighted', 'attr'")]),
    *(Row(f"audit-weights-{name}", "audit absent.csv c.cfg",
          {"c.cfg": cfg(AUDIT, f"weights={value}")}, 64,
          f"error: c.cfg: weights file {why}: {value!r}\n")
      for name, value, why in [("absent", "uniformm", "not found"), ("empty", "", "not found"),
                               ("dir", ".", "is a directory")]),
    Row("audit-eta-nan-sidecar", "audit data.csv c.cfg",
        {"data.csv": HEADER + "a,0,1\na,0,0\nb,0,1\nb,0,1\nc,0,0\nc,0,0\n",
         "w.csv": "group,weight\na,0.5\nb,0.3\nc,0.2\n",
         "c.cfg": "alpha=0.5\nepsilon=0.3\nweights=w.csv\neta=nan\n"}, 64,
        "error: c.cfg: eta must be a finite number, got 'nan'\n"),
    Row("audit-eta-underflow", "audit data.csv c.cfg",
        {"data.csv": HEADER + "a,0,1\nb,0,0\n", "w.csv": "group,weight\na,0.5\nb,0.5\n",
         "c.cfg": "alpha=0.5\nepsilon=0.3\nweights=w.csv\neta=2000\n"}, 64,
        "error: c.cfg: eta must be >= 0, with some w_g^eta > 0, got '2000'\n"),
    # audit: keys out of their ranges.
    audit_bad("audit-alpha-high", "alpha=2", "in [0, 1)"),
    audit_bad("audit-alpha-negative", "alpha=-0.5", "in [0, 1)"),
    audit_bad("audit-epsilon-zero", "epsilon=0", THRESHOLD),
    audit_bad("audit-epsilon-negative", "epsilon=-0.3", THRESHOLD),  # a threshold in range
    audit_bad("audit-epsilon-high", "epsilon=5", THRESHOLD),
    audit_bad("audit-epsilon-underflow", "epsilon=1e-200", THRESHOLD),  # the threshold is 0
    audit_bad("audit-eta-negative", "eta=-1", ">= 0"),
    audit_bad("audit-attr-eta-negative", "plan=attr\neta=-1", ">= 0"),  # eta unused
    audit_bad("audit-gamma-negative", "gamma=-1", "> 0"),  # gamma unused
    audit_bad("audit-budget-negative", "budget=-1", f"in [2, {MAX}]"),
    audit_bad("audit-budget-one", "budget=1", f"in [2, {MAX}]"),
    audit_bad("audit-budget-overflow", f"budget={10**20}", f"in [2, {MAX}]"),
    audit_bad("audit-attr-budget-zero", "plan=attr\nbudget=0", f"in [1, {MAX}]"),
    audit_bad("audit-attr-gamma-zero", "plan=attr\ngamma=0", BLOCK),
    audit_bad("audit-attr-block-fraction", "plan=attr\nbudget=10\ngamma=3", BLOCK),
    audit_bad("audit-attr-block-half", "plan=attr\nbudget=10\ngamma=20", BLOCK),
    audit_bad("audit-attr-block-one", "plan=attr\nbudget=10\ngamma=10", BLOCK),
    audit_bad("audit-attr-block-overflow", "plan=attr\nbudget=10\ngamma=1e-320", BLOCK),
    # Two bad keys: the first in the read order is reported.
    audit_bad("audit-order-alpha-gamma", "gamma=x\nalpha=2", "in [0, 1)"),
    audit_bad("audit-order-metric-budget", "budget=1e3\nmetric=xx", "one of 'sp', 'eo'"),
    Row("audit-alpha-high-with-data", "audit data.csv alpha.cfg",
        {"data.csv": TWO, "alpha.cfg": "alpha=2\nepsilon=0.3\n"}, 64,
        "error: alpha.cfg: alpha must be in [0, 1), got '2'\n"),
    Row("audit-gamma-negative-with-data", "audit four.csv gamma.cfg",
        {"four.csv": FOUR, "gamma.cfg": "alpha=0.5\nepsilon=0.3\nplan=weighted\ngamma=-1\n"}, 64,
        "error: gamma.cfg: gamma must be > 0, got '-1'\n"),
    # Without a budget, the attribute-specific plan's budget is the kept rows.
    Row("audit-attr-block-kept-rows", "audit four.csv block.cfg",
        {"four.csv": FOUR, "block.cfg": "alpha=0.5\nepsilon=0.3\nplan=attr\ngamma=4\n"}, 64,
        f"error: block.cfg: gamma must be {BLOCK}, for the budget of 4 kept rows, got '4'\n"),
    *(Row(f"audit-attr-kept-rows-gamma-{gamma}", "audit d.csv c.cfg",
          {"d.csv": HEADER + "g0,0,1\ng1,0,0\n" * 2 + "g2,0,1\n",
           "c.cfg": f"alpha=0.5\nepsilon=0.3\nplan=attr\ngamma={gamma}\n"}, 64,
          f"error: c.cfg: gamma must be {BLOCK}, for the budget of 5 kept rows, got {gamma!r}\n")
      for gamma in ("3", "10", "1e-320", "5")),  # 5: a block of 1

    # simulate.
    *(Row(f"sim-alpha-{name}", "simulate c.cfg --out o",
          {"c.cfg": f"{setting}\nn_grid=10\ntrials=2\n"}, 0)
      for name, setting in [("k2", "k=2\nalpha=0.1\nepsilon=0.2"),
                            ("k3-ulp", "k=3\nalpha=0.6666666666666666\nepsilon=0.3")]),
    *(Row(f"sim-target-{target}", "simulate c.cfg --out o",
          {"c.cfg": cfg(SIM8, f"target={target}")}, 0) for target in ("0", "1")),
    sim_fails("sim-alpha-unreachable", "k=8\nalpha=0.75\nepsilon=0.3\nn_grid=10\ntrials=2\n",
              "c.cfg: alpha must be in [0, 1), with the hard pair's h1 instance at CVaR "
              "fairness >= epsilon, got '0.75'"),
    *(Row(f"sim-out-{name}", f"simulate c.cfg --out {out}",
          {"c.cfg": cfg(SIM, "alpha=0.75\nn_grid=8\ntrials=10"), "afile": ""}, 64,
          "error: --out must name a directory, and 'afile' is not one\n", no_build=True)
      for name, out in [("file", "afile"), ("under-file", "afile/o")]),
    sim_fails("sim-epsilon-past-mean", cfg(SIM8, "k=2\nepsilon=0.4"),
              "perturbed mean 1.3 > 1 for K=2, epsilon=0.4"),
    sim_fails("sim-eta-underflow", cfg(SIM, "alpha=0.75\neta=2000"),
              "c.cfg: eta must be >= 0, with some w_g^eta > 0, got '2000'"),
    sim_fails("sim-config-not-utf8", b"k=4\nalpha=0.75\nepsilon=0.3\n# caf\xe9\n",
              "c.cfg: not valid UTF-8 (invalid continuation byte)"),
    sim_fails("sim-gamma-fractional-block",
              "k=8\nalpha=0.875\nepsilon=0.3\nplan=attr\nn_grid=8,16\ntrials=200\nbase_seed=4\n"
              "gamma=3\n", f"c.cfg: gamma must be {BLOCKS}, got '3'"),
    sim_fails("sim-trials-zero", "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\ntrials=0\n",
              "c.cfg: trials must be >= 1, got '0'"),
    sim_fails("sim-key-repeated", "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\ntrials=100\n\n"
              "n_grid=100\n", "c.cfg:7: key 'n_grid' repeated (first on line 4)"),
    sim_fails("sim-key-unknown", "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\ntrails=100\n"
              "base_seed=4\n", "c.cfg:5: unknown key 'trails'"),
    *(sim_fails(f"sim-key-missing-{key}", cfg({k: v for k, v in SIM8.items() if k != key}),
                f"c.cfg: missing key {key!r}") for key in ("k", "alpha", "epsilon", "n_grid")),
    *(sim_bad(f"sim-parse-{name}", f"{key}={value}", want, SIM8)
      for name, key, value, want in [
          ("k", "k", "8.0", "an integer"), ("trials", "trials", "1e3", "an integer"),
          ("base_seed", "base_seed", "0x10", "an integer"),
          ("n_grid-float", "n_grid", "50,1e3", "comma-separated integers"),
          ("n_grid-empty", "n_grid", "50,,100", "comma-separated integers"),
          ("alpha", "alpha", "7/8", "a number"), ("epsilon", "epsilon", "", "a number"),
          ("target", "target", "10%", "a number"), ("eta", "eta", "two thirds", "a number"),
          ("gamma", "gamma", "n/2", "a number")]),
    *(sim_bad(f"sim-{key}-{value}", f"{key}={value}", "a finite number", SIM8)
      for key in ("alpha", "epsilon", "eta", "gamma", "target")
      for value in ("nan", "inf", "-inf")),
    sim_bad("sim-instance-mixture", "instance=mixture", "one of 'hardpair'", SIM8),
    sim_bad("sim-plan-foo", "plan=foo", "one of 'weighted', 'attr'", SIM8),
    sim_bad("sim-base_seed-negative", "base_seed=-1", ">= 0", SIM8),
    sim_bad("sim-base_seed-negative-k4", "base_seed=-1", ">= 0"),
    sim_bad("sim-target-high", "target=2", "in [0, 1]", SIM8),
    sim_bad("sim-target-negative", "target=-1", "in [0, 1]", SIM8),
    sim_bad("sim-target-above-1", "target=1.0000001", "in [0, 1]", SIM8),
    sim_bad("sim-k-zero", "k=0", ">= 2"),
    sim_bad("sim-k-one", "k=1", ">= 2"),
    sim_bad("sim-alpha-high", "alpha=2", "in [0, 1)"),
    sim_bad("sim-epsilon-zero", "epsilon=0", SIM_EPSILON),
    sim_bad("sim-epsilon-high", "epsilon=0.6", SIM_EPSILON),
    sim_bad("sim-epsilon-underflow", "epsilon=1e-200", SIM_EPSILON),  # the threshold is 0
    sim_bad("sim-epsilon-underflow-alpha75", "alpha=0.75\nepsilon=1e-200", SIM_EPSILON),
    sim_bad("sim-n_grid-negative", "n_grid=-5", f"a list of budgets in [2, {MAX}]"),
    sim_bad("sim-n_grid-one-negative", "n_grid=10,-5", f"a list of budgets in [2, {MAX}]"),
    sim_bad("sim-n_grid-zero", "n_grid=0", f"a list of budgets in [2, {MAX}]"),
    sim_bad("sim-n_grid-one", "alpha=0.75\nn_grid=1", f"a list of budgets in [2, {MAX}]"),
    sim_bad("sim-n_grid-ten-one", "n_grid=10,1", f"a list of budgets in [2, {MAX}]"),
    sim_bad("sim-n_grid-overflow", f"n_grid=10,{10**20}", f"a list of budgets in [2, {MAX}]"),
    sim_bad("sim-attr-n_grid-zero", "plan=attr\nn_grid=0", f"a list of budgets in [1, {MAX}]"),
    sim_bad("sim-attr-n_grid-overflow", f"plan=attr\ngamma=1\nn_grid={10**20}",
            f"a list of budgets in [1, {MAX}]"),
    sim_bad("sim-eta-negative", "eta=-1", ">= 0"),
    sim_bad("sim-attr-eta-negative", "plan=attr\neta=-1", ">= 0"),
    sim_bad("sim-gamma-negative", "gamma=-1", "> 0"),
    sim_bad("sim-attr-gamma-zero", "plan=attr\ngamma=0", BLOCKS),
    sim_bad("sim-attr-block-fraction", "plan=attr\nn_grid=10,20\ngamma=4", BLOCKS),
    sim_bad("sim-attr-block-one", "plan=attr\nn_grid=10\ngamma=10", BLOCKS),
    sim_bad("sim-attr-block-overflow", "plan=attr\ngamma=1e-320", BLOCKS),
    sim_bad("sim-order-trials-k", "k=x\ntrials=0", ">= 1"),
    sim_bad("sim-order-alpha-plan", "plan=foo\nalpha=2", "in [0, 1)"),

    # synth.
    Row("synth-hardpair", "synth --k 16 --epsilon 0.3 --budget 400 --seed 1 --out synth.csv",
        {}, 0, out="wrote 400 rows to synth.csv\n"),
    *(Row(f"synth-{name}", argv, {}, 64, f"error: {err}\n") for name, argv, err in [
        ("k-zero", "synth --k 0 --epsilon 0.1 --budget 10 --kind mixture --out s.csv",
         "--k must be >= 1, got 0"),
        ("gamma-nan", f"{SYNTH} --plan attr --gamma nan", "--gamma must be finite, got nan"),
        ("eta-inf", f"{SYNTH} --eta inf", "--eta must be finite, got inf"),
        ("eta-negative", f"{SYNTH} --eta -1", "--eta must be >= 0, got -1.0"),
        ("eta-underflow", f"{SYNTH} --eta 2000",
         "--eta must be >= 0, with some w_g^eta > 0, got 2000.0"),
        ("alpha-nan", f"{SYNTH} --alpha nan --kind mixture", "--alpha must be finite, got nan"),
        ("epsilon-inf", "synth --k 4 --epsilon=-inf --budget 10 --out s.csv",
         "--epsilon must be finite, got -inf"),
        ("seed-negative", "synth --k 4 --epsilon 0.1 --budget 10 --seed -1 --out bad.csv",
         "--seed must be >= 0, got -1"),
        ("mixture-epsilon", "synth --kind mixture --k 8 --epsilon 100 --budget 10 --out bad.csv",
         "epsilon must be in (0, 0.25] for K=8, alpha=0.5"),
        # Inside epsilon's range, but each perturbed mean would move by 0.6.
        ("mixture-perturbation",
         "synth --kind mixture --k 64 --epsilon 0.3 --budget 10 --out bad.csv",
         "perturbation 0.6 exceeds 1/2 for group 0; reduce epsilon"),
        ("budget-zero", "synth --k 4 --epsilon 0.1 --budget 0 --out bad.csv",
         "--budget must be >= 1, got 0"),
        ("attr-budget-zero", "synth --k 4 --epsilon 0.1 --budget 0 --plan attr --out s.csv",
         "--budget must be >= 1, got 0"),
        ("budget-negative", "synth --k 4 --epsilon 0.1 --budget -3 --out s.csv",
         "--budget must be >= 1, got -3"),
        # n/gamma overflows to inf: the plan's own error, not an OverflowError.
        ("gamma-overflow", f"{SYNTH} --plan attr --gamma 1e-320",
         "n/gamma must be a positive integer, got inf"),
        ("gamma-overflow-eps3",
         "synth --k 4 --epsilon 0.3 --budget 10 --plan attr --gamma 1e-320 --out bad.csv",
         "n/gamma must be a positive integer, got inf"),
        # Budgets and blocks past int64, which numpy's samplers cannot take.
        ("budget-overflow", f"synth --k 4 --epsilon 0.1 --budget {10**20} --out bad.csv",
         f"budget must be at most {MAX}, got {10**20}"),
        ("block-overflow",
         f"synth --k 4 --epsilon 0.1 --budget {10**18} --plan attr --gamma 0.01 --out s.csv",
         f"n/gamma must be at most {MAX}, got 1e+20"),
        # A budget past float range, rejected before n/gamma or the default's n/2.
        *((f"attr-budget-overflow{name}", f"synth --kind hardpair --side h0 --k 4 --epsilon 0.3 "
           f"--plan attr --budget {10**400}{gamma} --out x.csv",
           f"budget must be at most {MAX}, got {10**400}") for name, gamma in [
              ("", ""), ("-gamma", " --gamma 2")]),
    ]),

    # bounds.
    Row("bounds-n", "bounds --k 16 --n 100", {}, 0, out="K: 16\n"),
    *(Row(f"bounds-edge-{name}", f"bounds --k 16 {argv}", {}, 0, out="K: 16\n")
      for name, argv in [("epsilon", "--epsilon 1"), ("delta", "--delta 1e-300"),
                         ("n", f"--n 2 {2**1023}")]),
    *(Row(f"bounds-{name}", f"bounds {argv}", {}, 64, f"error: {err}\n") for name, argv, err in [
        ("k-zero", "--k 0", "--k must be >= 1, got 0"),
        ("alpha-one", "--k 16 --alpha 1", "--alpha must be in [0, 1), got 1.0"),
        ("alpha-negative", "--k 16 --alpha -0.5", "--alpha must be in [0, 1), got -0.5"),
        ("alpha-nan", "--k 16 --alpha nan", "--alpha must be finite, got nan"),
        ("epsilon-zero", "--k 16 --epsilon 0", "--epsilon must be > 0, got 0.0"),
        ("epsilon-inf", "--k 16 --epsilon inf", "--epsilon must be finite, got inf"),
        ("epsilon-huge", "--k 16 --epsilon 1e200", "--epsilon must be <= 1, got 1e+200"),
        ("epsilon-high", "--k 16 --epsilon 1.5", "--epsilon must be <= 1, got 1.5"),
        ("delta-zero", "--k 16 --delta 0", "--delta must be in (0, 1), got 0.0"),
        ("delta-high", "--k 16 --delta 2", "--delta must be in (0, 1), got 2.0"),
        ("delta-inf", "--k 16 --delta=-inf", "--delta must be finite, got -inf"),
        ("n-zero", "--k 16 --n 0", "--n must be at least 2 each, got [0]"),
        ("n-one", "--k 16 --n 100 1", "--n must be at least 2 each, got [100, 1]"),
        ("n-huge", f"--k 2 --n 2 {10**309}",
         f"--n must be <= 1.7976931348623157e+308 each, got [2, {10**309}]"),
        # epsilon^4 underflows, a sample size overflows, epsilon^4 overflows.
        ("epsilon-underflow", "--k 2 --epsilon 1e-200",
         f"--epsilon {NO_SIZE} 0.0 gives no finite sample size, got 1e-200"),
        ("delta-underflow", "--k 16 --delta 1e-320",
         f"--delta {NO_SIZE} 0.0 gives no finite sample size, got 1e-320"),
        ("delta-tiny", "--k 16 --delta 1e-310",
         f"--delta {NO_SIZE} 2.5e-315 gives no finite sample size, got 1e-310"),
        ("epsilon-tiny", "--k 16 --epsilon 1e-78 --delta 0.5",
         f"--epsilon {NO_SIZE} 1.25000000003e-313 gives no finite sample size, got 1e-78"),
    ]),

    # argparse's own usage errors, and --help.
    *(Row(f"usage-{name}", argv, {}, 64, (want,)) for name, argv, want in [
        ("no-command", "", "the following arguments are required: command"),
        ("audit-args", "audit", "the following arguments are required: input, config"),
        ("bounds-k", "bounds --k x", "argument --k: invalid int value: 'x'"),
        ("command", "frob", "argument command: invalid choice: 'frob'"),
        ("option", "bounds --k 4 --bogus", "unrecognized arguments: --bogus"),
        ("synth-plan", f"{SYNTH} --plan foo", "argument --plan: invalid choice: 'foo'"),
    ]),
    Row("help", "--help", {}, 0, out="usage: fairaudit"),
]

_SRC = Path(__file__).resolve().parents[1] / "src"
INSTALLED = _SRC not in Path(fairaudit.__file__).resolve().parents
SCRIPT = Path(sysconfig.get_path("scripts")) / "fairaudit"


def test_row_ids_are_unique():
    assert len({row.id for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("runner", ["main", "script"] if INSTALLED else ["main"])
@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_exit_contract(row, runner, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in row.files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    codes = row.code if isinstance(row.code, frozenset) else {row.code}
    fails = min(codes) >= 64

    if runner == "script":
        assert SCRIPT.is_file(), f"the installed package has no console script {SCRIPT}"

        def run(argv):
            done = subprocess.run([SCRIPT, *argv.split()], capture_output=True, text=True,
                                  timeout=300)
            return done.returncode, done.stdout, done.stderr
    else:
        if fails:
            monkeypatch.setattr(cli, "threshold_sweep", None)
        if row.no_build:
            monkeypatch.setattr(adversarial, "build_hard_pair", None)

        def run(argv):
            code = cli.main(argv.split())
            return (code, *capsys.readouterr())

    for argv in row.before:
        assert run(argv)[0] == 0, argv
    paths = sorted(tmp_path.rglob("*"))
    code, out, err = run(row.argv)
    assert code in codes
    if isinstance(row.err, tuple):
        assert err.startswith("usage: fairaudit") and all(part in err for part in row.err)
    else:
        assert err == row.err
    if fails:
        assert out == "" and sorted(tmp_path.rglob("*")) == paths
    else:
        assert out.startswith(row.out)


# Cases that need a patch the console script cannot take.

def test_memory_error_exit_usage(tmp_path, monkeypatch, capsys):
    # Raised where the instance is built, before the output is opened.
    def no_memory(*args):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(adversarial, "build_hard_pair", no_memory)
    assert cli.main(SYNTH.split()) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: Unable to allocate 72.8 TiB for an array\n")
    assert not (tmp_path / "s.csv").exists()


def test_memory_error_while_writing_leaves_no_file(tmp_path, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_group_name", no_memory)
    assert cli.main(SYNTH.split()) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not (tmp_path / "s.csv").exists()
