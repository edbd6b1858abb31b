"""The columnar audit path against the per-row oracle, and malformed-input fuzzing.

`_oracle_counts` is the row path the reader replaced: `csv.DictReader`,
per-row `int()` and 0/1 checks, and per-group counts in dicts.  Random CSVs
(shuffled and extra columns, a repeated column, blank lines, quoted fields,
lenient integer cells, both metrics) must reduce to exactly the oracle's
counts, and `fairaudit audit` must print exactly what the oracle's counts
give.  Every malformed input must end in an `error:` line and an exit code
>= 64, never a traceback.
"""

import csv

import numpy as np
import pytest

from fairaudit.cli import _render_outcome, main, read_records
from fairaudit.core import GroupCounts, GroupWeights, MetricKind
from fairaudit.cvar_test import TestConfig, run_test_dataset
from fairaudit.errors import EmptyAfterConditioning
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan

SP = MetricKind.STATISTICAL_PARITY
EO = MetricKind.EQUAL_OPPORTUNITY

# Group names that exercise quoting and non-ASCII text.
NAME_POOL = ["a", "b b", "c,d", 'e"f', "g\nh", "ü", "x|y|z", " lead", "trail ", "#7"]
# Cells int() reads as 0 or 1, beyond the literal "0" and "1".
ZERO_CELLS = ["0", "0", "0", "+0", " 0", "00"]
ONE_CELLS = ["1", "1", "1", " 1", "+1", "1 "]


def _oracle_counts(path, kind):
    """(names, s, m) by the per-row path: DictReader, int(), dict counts."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            y, yh = int(row["label"]), int(row["prediction"])
            if y not in (0, 1) or yh not in (0, 1):
                raise ValueError(f"bad row {row}")
            rows.append((row["group"], y, yh))
    names = sorted({g for g, _, _ in rows})
    m = dict.fromkeys(names, 0)
    s = dict.fromkeys(names, 0)
    for g, y, yh in rows:
        if kind is EO and y != 0:
            continue
        m[g] += 1
        s[g] += yh
    return names, [s[n] for n in names], [m[n] for n in names]


def _write_random_csv(path, rng, block=None):
    """A random data CSV; with `block`, every group has 0 or `block` label-0 rows."""
    k = int(rng.integers(1, len(NAME_POOL) + 1))
    names = [str(x) for x in rng.choice(NAME_POOL, size=k, replace=False)]
    rows = []
    for name in names:
        n0 = block * int(rng.integers(0, 2)) if block else int(rng.integers(0, 6))
        n1 = int(rng.integers(0, 4))
        rows += [(name, 0) for _ in range(n0)] + [(name, 1) for _ in range(n1)]
    rng.shuffle(rows)
    columns = ["group", "label", "prediction", "payload", "score"]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    # A decoy copy of a data column before the real one; the last one counts.
    decoy = str(rng.choice(["group", "label", "prediction"]))
    header = [decoy] + columns
    lines = []
    for name, label in rows:
        pred = int(rng.integers(0, 2))
        cell = {
            "group": name,
            "label": str(rng.choice(ONE_CELLS if label else ZERO_CELLS)),
            "prediction": str(rng.choice(ONE_CELLS if pred else ZERO_CELLS)),
            "payload": str(rng.choice(["", "free text", "a,b", 'say "hi"', "two\nlines"])),
            "score": repr(float(rng.random())),
        }
        lines.append(["junk"] + [cell[c] for c in columns])
    quoting = csv.QUOTE_ALL if rng.random() < 0.5 else csv.QUOTE_MINIMAL
    terminator = str(rng.choice(["\r\n", "\n"]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator=terminator)
        writer.writerow(header)
        for line in lines:
            if rng.random() < 0.2:
                fh.write(terminator)  # blank line
            writer.writerow(line)


class TestReducerMatchesOracle:
    @pytest.mark.parametrize("kind", [SP, EO])
    def test_counts_equal_oracle(self, tmp_path, kind):
        rng = np.random.default_rng(41 if kind is SP else 42)
        for i in range(150):
            path = tmp_path / f"d{i}.csv"
            _write_random_csv(path, rng)
            names, s, m = _oracle_counts(path, kind)
            if not names:
                continue  # no rows at all: covered by the fuzz table
            if sum(m) == 0 and kind is EO:
                with pytest.raises(EmptyAfterConditioning):
                    read_records(str(path), kind)
                continue
            counts = read_records(str(path), kind)
            assert counts.names == tuple(names)
            assert counts.s.tolist() == s
            assert counts.m.tolist() == m

    def test_audit_output_equals_oracle_render(self, tmp_path, capsys):
        checked = 0
        rng = np.random.default_rng(43)
        for i in range(80):
            kind = SP if i % 2 else EO
            attr = i % 6 == 0  # always with EO, which drops the label-1 rows
            path = tmp_path / f"d{i}.csv"
            _write_random_csv(path, rng, block=2 if attr else None)
            names, s, m = _oracle_counts(path, kind)
            if not names or sum(m) == 0:
                continue
            weights = "empirical" if rng.random() < 0.5 else "uniform"
            conf = [f"alpha={rng.choice([0.0, 0.5, 0.875])}", "epsilon=0.3",
                    f"metric={kind.value}", f"weights={weights}"]
            if attr:
                conf += ["plan=attr", "budget=4", "gamma=2"]
            else:
                conf += ["plan=weighted", f"eta={rng.choice([0.0, 2.0 / 3.0, 1.0])}"]
            cfg_path = tmp_path / f"c{i}.cfg"
            cfg_path.write_text("\n".join(conf) + "\n", encoding="utf-8")

            code = main(["audit", str(path), str(cfg_path)])
            out = capsys.readouterr().out

            expected = GroupCounts(names, s, m)
            if weights == "uniform":
                w = GroupWeights.uniform(len(names))
            else:
                w = GroupWeights(np.asarray(m) / sum(m))
            if attr:
                plan = AttributeSpecificPlan(w=w, budget=4, gamma=2.0)
            else:
                eta = float(conf[-1].split("=")[1])
                plan = WeightedPlan.from_weights(w, eta, sum(m))
            alpha = float(conf[0].split("=")[1])
            outcome = run_test_dataset(
                expected, w, TestConfig(alpha=alpha, epsilon=0.3, plan=plan)
            )
            assert out == _render_outcome(outcome, names) + "\n"
            assert code == (3 if outcome.decision.value == "H1" else 0)
            checked += 1
        assert checked >= 40


HEADER = "group,label,prediction\n"
BASE_CFG = "alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\n"

# (case id, data CSV bytes, config text, sidecar text or None)
FUZZ_CASES = [
    ("empty_file", b"", BASE_CFG, None),
    ("header_only", HEADER.encode(), BASE_CFG, None),
    ("missing_column", b"group,label\ng0,0\n", BASE_CFG, None),
    ("short_row", (HEADER + "g0,0,1\ng1,0\n").encode(), BASE_CFG, None),
    ("label_2", (HEADER + "g0,2,1\n").encode(), BASE_CFG, None),
    ("prediction_x", (HEADER + "g0,0,x\n").encode(), BASE_CFG, None),
    ("empty_cell", (HEADER + "g0,,1\n").encode(), BASE_CFG, None),
    ("invalid_utf8", HEADER.encode() + b"g\xff,0,1\n", BASE_CFG, None),
    ("oversized_field", (HEADER + "g" * 200_000 + ",0,1\n").encode(), BASE_CFG, None),
    ("eo_all_label_1", (HEADER + "g0,1,1\ng1,1,0\n").encode(), BASE_CFG + "metric=eo\n", None),
    ("unknown_metric", (HEADER + "g0,0,1\n").encode(), BASE_CFG + "metric=xx\n", None),
    ("unknown_plan", (HEADER + "g0,0,1\n").encode(), "alpha=0.5\nepsilon=0.3\nplan=zz\n", None),
    ("missing_alpha", (HEADER + "g0,0,1\n").encode(), "epsilon=0.3\n", None),
    ("partial_attr_block", (HEADER + "g0,0,1\ng0,0,0\ng1,0,1\n").encode(),
     "alpha=0.5\nepsilon=0.3\nplan=attr\nbudget=4\ngamma=2\n", None),
    ("weighted_budget_mismatch", (HEADER + "g0,0,1\ng1,0,0\n").encode(),
     BASE_CFG + "budget=3\n", None),
    ("sidecar_missing_group", (HEADER + "g0,0,1\ng1,0,0\n").encode(), BASE_CFG,
     "group,weight\ng0,1.0\n"),
    ("sidecar_weight_abc", (HEADER + "g0,0,1\ng1,0,0\n").encode(), BASE_CFG,
     "group,weight\ng0,abc\ng1,0.5\n"),
    ("sidecar_weight_nan", (HEADER + "g0,0,1\ng1,0,0\n").encode(), BASE_CFG,
     "group,weight\ng0,nan\ng1,0.5\n"),
    ("sidecar_weight_inf", (HEADER + "g0,0,1\ng1,0,0\n").encode(), BASE_CFG,
     "group,weight\ng0,inf\ng1,0.5\n"),
    ("sidecar_no_weight_column", (HEADER + "g0,0,1\n").encode(), BASE_CFG, "group,w\ng0,1\n"),
    ("sidecar_short_row", (HEADER + "g0,0,1\n").encode(), BASE_CFG, "group,weight\ng0\n"),
]


@pytest.mark.parametrize(
    "data, conf, sidecar", [c[1:] for c in FUZZ_CASES], ids=[c[0] for c in FUZZ_CASES]
)
def test_malformed_input_fails_cleanly(tmp_path, capsys, data, conf, sidecar):
    data_path = tmp_path / "data.csv"
    data_path.write_bytes(data)
    if sidecar is not None:
        side_path = tmp_path / "w.csv"
        side_path.write_text(sidecar, encoding="utf-8")
        conf += f"weights={side_path}\n"
    conf_path = tmp_path / "c.cfg"
    conf_path.write_text(conf, encoding="utf-8")
    code = main(["audit", str(data_path), str(conf_path)])
    err = capsys.readouterr().err
    assert code >= 64
    assert err.startswith("error: ")
