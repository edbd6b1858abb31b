"""Tests for the command-line front end."""

import csv
import json
import os
import subprocess
import sys
import threading

import pytest

from fairaudit import cli, reader
from fairaudit.cli import (
    EXIT_H0,
    EXIT_H1,
    _AUDIT_KEYS,
    _render_outcome,
    main,
    read_config,
)
from fairaudit.core import GroupWeights, MetricKind
from fairaudit.cvar_test import TestConfig, run_test_dataset
from fairaudit.errors import ConfigError, WeightError
from fairaudit.estimator import estimate_from_counts
from fairaudit.reader import read_audit
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan, inclusion_array

SP = MetricKind.STATISTICAL_PARITY


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadConfig:
    def test_parses_flat_keys(self, tmp_path):
        path = _write(
            tmp_path / "c.cfg",
            "alpha = 0.5\nepsilon=0.3  # inline comment\n\n# full comment\nplan=weighted\n",
        )
        conf = read_config(path, _AUDIT_KEYS)
        assert conf == {"alpha": "0.5", "epsilon": "0.3", "plan": "weighted"}

    def test_hash_inside_value_is_not_a_comment(self, tmp_path):
        path = _write(
            tmp_path / "c.cfg",
            "weights=/data/run#3/w.csv\nalpha=0.5 #note\n#x=1\n  # indented comment\n",
        )
        assert read_config(path, _AUDIT_KEYS) == {"weights": "/data/run#3/w.csv", "alpha": "0.5"}

    def test_rejects_unknown_key(self, tmp_path):
        path = _write(tmp_path / "c.cfg", "alpha=0.5\n alhpa = 0.5\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2: unknown key 'alhpa'$"):
            read_config(path, _AUDIT_KEYS)

    def test_rejects_bad_line(self, tmp_path):
        path = _write(tmp_path / "c.cfg", "alpha 0.5\n")
        with pytest.raises(ConfigError) as err:
            read_config(path, _AUDIT_KEYS)
        assert ":1:" in str(err.value)

    def test_rejects_repeated_key(self, tmp_path):
        path = _write(tmp_path / "c.cfg", "alpha=0.5\n# note\nepsilon=0.3\n alpha = 0.01 \n")
        with pytest.raises(ConfigError, match=r"c\.cfg:4: key 'alpha' repeated \(first on line 1\)$"):
            read_config(path, _AUDIT_KEYS)


class TestReadRecords:
    def test_dense_ids_sorted_by_name(self, tmp_path):
        path = _write(
            tmp_path / "d.csv",
            "group,label,prediction\nzeta,0,1\nalpha,0,0\nzeta,1,0\n",
        )
        counts = read_audit(path, SP)[0]
        assert counts.names == ("alpha", "zeta")
        assert counts.m.tolist() == [1, 2]
        assert counts.s.tolist() == [0, 1]

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label\ng0,0\n")
        with pytest.raises(ConfigError) as err:
            read_audit(path, SP)[0]
        assert "prediction" in str(err.value)

    def test_bad_cell_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\ng0,0,x\n")
        with pytest.raises(ConfigError) as err:
            read_audit(path, SP)[0]
        assert ":2:" in str(err.value)


    def test_header_only_has_no_data_rows(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\n")
        with pytest.raises(ConfigError, match="no data rows"):
            read_audit(path, SP)[0]

    def test_bad_label_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\ng0,2,1\n")
        with pytest.raises(ConfigError) as err:
            read_audit(path, SP)[0]
        assert str(err.value) == f"{path}:2: bad row (label must be 0 or 1, got 2)"

    def test_bad_prediction_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\ng0,0,1\n\ng1,1,-1\n")
        with pytest.raises(ConfigError) as err:
            read_audit(path, SP)[0]
        assert str(err.value) == f"{path}:4: bad row (prediction must be 0 or 1, got -1)"

    @pytest.mark.parametrize("column", ["label", "prediction"])
    @pytest.mark.parametrize("cell", [
        "2", "255", "-1", str(2**63), str(-2**63 - 1), str(10**30),  # whole, out of range
        "1.5", "1.0", "nan", "inf", "1e20", "1j", "x", "",  # not base-10 integers
    ])
    def test_bad_cell_value_reports_line(self, tmp_path, column, cell):
        # Both readers reject the cell on its own line, with the same message.
        row = {"group": "g1", "label": "0", "prediction": "1", column: cell}
        path = _write(
            tmp_path / "d.csv",
            "group,label,prediction\ng0,0,1\n" + ",".join(row.values()) + "\ng2,1,0\n",
        )
        try:
            reason = f"{column} must be 0 or 1, got {int(cell)}"
        except ValueError:
            reason = f"invalid literal for int() with base 10: {cell!r}"
        for read in (lambda p: read_audit(p, SP)[0], reader._records_csv):
            with pytest.raises(ConfigError) as err:
                read(path)
            assert str(err.value) == f"{path}:3: bad row ({reason})"

    def test_short_row_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "label,prediction,group\n0,1,a\n0,1\n")
        with pytest.raises(ConfigError, match=":3: bad row"):
            read_audit(path, SP)[0]

    def test_lenient_cells_blank_lines_and_repeated_columns(self, tmp_path):
        # int() accepts " 1" and "+0"; blank lines are skipped; a repeated
        # column name means its last position.
        path = _write(
            tmp_path / "d.csv",
            "group,label,prediction,label\n\na,x, 1,+0\n\nb,y,+0,1\n",
        )
        counts = read_audit(path, MetricKind.EQUAL_OPPORTUNITY)[0]
        assert counts.names == ("a", "b")
        assert counts.m.tolist() == [1, 0]
        assert counts.s.tolist() == [1, 0]


class TestReadWeightSidecar:
    @staticmethod
    def _read(tmp_path, sidecar, groups=("a", "b")):
        """read_audit's (counts, weights) for data with one row per group."""
        rows = "".join(f"{g},0,1\n" for g in groups)
        data = _write(tmp_path / "d.csv", "group,label,prediction\n" + rows)
        return read_audit(data, MetricKind.STATISTICAL_PARITY, _write(tmp_path / "w.csv", sidecar))

    def test_aligned_to_names(self, tmp_path):
        counts, w = self._read(tmp_path, "group,weight\nb,0.75\na,0.25\n")
        assert counts.names == ("a", "b")
        assert w.w == (0.25, 0.75)

    def test_missing_group(self, tmp_path):
        for sidecar in ("a,1.0\n", "a,0.5\nc,0.5\n"):  # fewer groups, and as many
            with pytest.raises(ConfigError, match=r"w\.csv: missing weights for groups 'b'$"):
                self._read(tmp_path, "group,weight\n" + sidecar)

    def test_bad_weight_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":3: bad row"):
            self._read(tmp_path, "weight,group\n0.5,a\nabc,b\n")

    def test_nan_weight_rejected(self, tmp_path):
        with pytest.raises(WeightError, match=r"w\.csv: weights must be finite$"):
            self._read(tmp_path, "group,weight\na,nan\nb,0.5\n")

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "csv_reader"])
    def test_sidecar_groups_are_the_universe(self, tmp_path, quote):
        # Groups the data lacks count zero samples, in the sidecar's order.
        sidecar = f"group,weight\nd,0.25\n{quote}b{quote},0.25\nc,0.25\na,0.25\n"
        counts, w = self._read(tmp_path, sidecar, groups=("c", "a"))
        assert counts.names == ("a", "b", "c", "d")
        assert counts.m.tolist() == [1, 0, 1, 0] and counts.s.tolist() == [1, 0, 1, 0]
        assert w.w == (0.25,) * 4

    def test_weight_sum_error_names_the_sidecar(self, tmp_path):
        with pytest.raises(WeightError, match=r"w\.csv: weights sum to 0\.75, not 1$"):
            self._read(tmp_path, "group,weight\na,0.5\nb,0.25\n")


class TestAudit:
    def _fair_csv(self, tmp_path, rows_per_group=4):
        lines = ["group,label,prediction"]
        for g in ("g0", "g1"):
            lines.extend(f"{g},0,0" for _ in range(rows_per_group))
        return _write(tmp_path / "data.csv", "\n".join(lines) + "\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_sidecar_through_a_pipe(self, tmp_path, capsys):
        # A weights path that exists and is no directory is read, even a pipe.
        data = self._fair_csv(tmp_path)
        text = "group,weight\ng0,0.3\ng1,0.7\n"
        outputs = []
        for name in ("w.csv", "pipe"):
            sidecar = tmp_path / name
            if name == "pipe":
                os.mkfifo(sidecar)
                writer = threading.Thread(target=sidecar.write_text, args=(text,), daemon=True)
                writer.start()
            else:
                sidecar.write_text(text)
            conf = _write(
                tmp_path / "c.cfg",
                f"alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\nweights={sidecar}\n",
            )
            outputs.append((main(["audit", data, conf]), capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_H0

    @pytest.mark.parametrize("metric", ["sp", "eo"])
    @pytest.mark.parametrize("bom_in", ["data", "sidecar", "config"])
    def test_utf8_bom_is_skipped(self, tmp_path, capsys, metric, bom_in):
        # As spreadsheet programs write them: the audit reads past the BOM.
        def audit(bom):
            run = tmp_path / ("bom" if bom else "plain")
            run.mkdir()
            texts = {
                "data": "group,label,prediction\ng0,0,0\ng0,0,1\ng0,1,1\ng1,0,1\ng1,0,1\n"
                        "g1,1,0\n",
                "sidecar": "group,weight\ng0,0.3\ng1,0.7\n",
                "config": f"alpha=0.5\nepsilon=0.3\nmetric={metric}\nweights={run / 'sidecar'}\n",
            }
            for name, text in texts.items():
                _write(run / name, ("\ufeff" if bom and name == bom_in else "") + text)
            code = main(["audit", str(run / "data"), str(run / "config")])
            return code, capsys.readouterr()

        plain, bom = audit(False), audit(True)
        assert bom == plain and plain[0] in (EXIT_H0, EXIT_H1) and plain[1].err == ""

    def test_clipped_attr_plan_warns(self, tmp_path, capsys):
        # gamma * w = (4.5, 0.5): group a is clipped at 1, so the plan expects
        # 1.5 groups of n/gamma = 2 samples, 3.0 samples against n = 10.
        rows = ["group,label,prediction", "a,0,1", "a,0,0", "b,0,0", "b,0,0"]
        data = _write(tmp_path / "data.csv", "\n".join(rows) + "\n")
        weights = _write(tmp_path / "w.csv", "group,weight\na,0.9\nb,0.1\n")
        conf = _write(
            tmp_path / "c.cfg",
            f"alpha=0.5\nepsilon=0.3\nplan=attr\nbudget=10\ngamma=5\nweights={weights}\n",
        )
        code = main(["audit", data, conf])
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "warning: attribute-specific plan clips 1 group(s) with gamma * w_g > 1; "
            "expects 3.0 samples against a budget of 10"
        ]
        w = GroupWeights([0.9, 0.1])
        plan = AttributeSpecificPlan(w=w, budget=10, gamma=5.0)
        outcome = run_test_dataset(
            read_audit(data, SP)[0], w, TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
        )
        assert out == _render_outcome(outcome, ("a", "b")) + "\n"
        assert code == (EXIT_H1 if outcome.decision.value == "H1" else EXIT_H0)

    def test_stdout_golden(self, tmp_path, capsys):
        # The literal output, so that a change in the rendering shows.
        data = _write(
            tmp_path / "data.csv",
            "group,label,prediction\nb,0,1\na,0,1\na,1,0\nc d,0,0\na,0,0\nb,0,1\n",
        )
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\n")
        assert main(["audit", data, conf]) == EXIT_H1
        assert capsys.readouterr().out == (
            "decision: H1\n"
            "statistic: 0.2763606483980859\n"
            "f1: 0.5137420718816067\n"
            "f2: 0.48721804511278194\n"
            "threshold: 0.0225\n"
            "count[a]: 3\n"
            "count[b]: 2\n"
            "count[c d]: 1  (warning: fewer than 2 samples)\n"
        )

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "csv_reader"])
    def test_sidecar_lists_groups_the_data_lacks(self, tmp_path, capsys, quote):
        # The sidecar's groups are the universe: d has no row, so no sample.
        data = _write(tmp_path / "data.csv", "group,label,prediction\n"
                      + "a,0,1\nb,0,0\nc,0,1\n" * 2)
        sidecar = _write(tmp_path / "w.csv", "group,weight\n"
                         + "".join(f"{quote}{g}{quote},0.25\n" for g in "abcd"))
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\neta=0\nweights={sidecar}\n")
        assert main(["audit", data, conf]) in (EXIT_H0, EXIT_H1)
        out, err = capsys.readouterr()
        assert err == ""
        assert out.endswith("count[a]: 2\ncount[b]: 2\ncount[c]: 2\n"
                            "count[d]: 0  (warning: fewer than 2 samples)\n")

    @pytest.mark.parametrize("plan", ["plan=weighted\neta=0\n", "plan=attr\nbudget=8\ngamma=4\n"],
                             ids=["weighted", "attr"])
    def test_audit_pins_no_inclusion_array(self, tmp_path, capsys, plan):
        # An audit looks its plan's inclusion probabilities up once, outside
        # inclusion_array's process-lifetime cache.
        lines = ["group,label,prediction"]
        for g in ("g0", "g1", "g2", "g3"):
            lines.extend(f"{g},0,{int(g == 'g3')}" for _ in range(2))
        data = _write(tmp_path / "data.csv", "\n".join(lines) + "\n")
        budget = "" if "budget" in plan else "budget=8\n"
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\n{plan}{budget}")
        inclusion_array.cache_clear()
        assert main(["audit", data, conf]) in (EXIT_H0, EXIT_H1)
        assert "decision:" in capsys.readouterr().out
        assert inclusion_array.cache_info().currsize == 0


class TestSynthRoundTrip:
    def test_audit_matches_in_memory_run(self, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        code = main(
            [
                "synth", "--kind", "hardpair", "--side", "h1", "--k", "4",
                "--epsilon", "0.2", "--plan", "weighted", "--eta", "0.6666666666666666",
                "--budget", "200", "--seed", "11", "--out", str(out_csv),
            ]
        )
        assert code == 0
        capsys.readouterr()

        conf = _write(
            tmp_path / "c.cfg",
            "alpha=0.75\nepsilon=0.2\nplan=weighted\neta=0.6666666666666666\nbudget=200\n",
        )
        code = main(["audit", str(out_csv), conf])
        out = capsys.readouterr().out

        # Reproduce the outcome from the written file, in memory.
        counts = read_audit(str(out_csv), SP)[0]
        w = GroupWeights.uniform(counts.k)
        plan = WeightedPlan.from_weights(w, 2.0 / 3.0, 200)
        cfg = TestConfig(alpha=0.75, epsilon=0.2, plan=plan)
        outcome = run_test_dataset(counts, w, cfg)

        expected_code = EXIT_H1 if outcome.decision.value == "H1" else EXIT_H0
        assert code == expected_code
        assert f"statistic: {outcome.statistic.f!r}" in out
        assert f"f1: {outcome.statistic.f1!r}" in out
        assert f"f2: {outcome.statistic.f2!r}" in out

    def test_synth_attr_plan_blocks(self, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        main(
            [
                "synth", "--kind", "hardpair", "--side", "h0", "--k", "4",
                "--epsilon", "0.2", "--plan", "attr", "--budget", "8",
                "--seed", "3", "--out", str(out_csv),
            ]
        )
        capsys.readouterr()
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        counts = {}
        for row in rows:
            counts[row["group"]] = counts.get(row["group"], 0) + 1
        assert all(c == 2 for c in counts.values())  # block size n/gamma = 2

    def test_synth_silent_when_attr_plan_clips(self, tmp_path, capsys):
        # gamma * w_g = 5 / 4 > 1 for every group: audit and simulate warn, synth does not.
        out_csv = tmp_path / "synth.csv"
        code = main(
            [
                "synth", "--kind", "hardpair", "--side", "h0", "--k", "4",
                "--epsilon", "0.2", "--plan", "attr", "--budget", "10", "--gamma", "5",
                "--seed", "3", "--out", str(out_csv),
            ]
        )
        assert code == 0
        assert capsys.readouterr() == (f"wrote 8 rows to {out_csv}\n", "")

    def test_synth_mixture_member(self, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        code = main(
            [
                "synth", "--kind", "mixture", "--side", "h1", "--k", "8",
                "--alpha", "0.5", "--epsilon", "0.1", "--plan", "weighted",
                "--eta", "0", "--budget", "50", "--seed", "2", "--out", str(out_csv),
            ]
        )
        assert code == 0
        counts = read_audit(str(out_csv), SP)[0]
        assert int(counts.m.sum()) == 50
        assert counts.k <= 8

    @pytest.mark.parametrize("plan, synth_plan", [
        ("plan=weighted\neta=0\nbudget=256\n", ["--plan", "weighted", "--eta", "0",
                                               "--budget", "256"]),
        ("plan=attr\nbudget=128\ngamma=64\n", ["--plan", "attr", "--budget", "128",
                                              "--gamma", "64"]),
    ], ids=["weighted", "attr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sidecar_universe_at_k_much_larger_than_n(self, tmp_path, capsys, plan, synth_plan,
                                                      seed):
        # K = 256 groups, of which the sample reaches only some: the audit of
        # the all-K sidecar is the statistic of the all-K counts, to the bit.
        k = 256
        out_csv = tmp_path / "synth.csv"
        assert main(["synth", "--kind", "mixture", "--side", "h1", "--k", str(k), "--alpha",
                     "0.75", "--epsilon", "0.3", "--seed", str(seed), "--out", str(out_csv),
                     *synth_plan]) == 0
        names = [cli._group_name(g, k) for g in range(k)]
        sidecar = _write(tmp_path / "w.csv",
                         "group,weight\n" + "".join(f"{n},{1 / k!r}\n" for n in names))
        conf = _write(tmp_path / "c.cfg", f"alpha=0.75\nepsilon=0.3\n{plan}weights={sidecar}\n")
        capsys.readouterr()
        code = main(["audit", str(out_csv), conf])
        out, err = capsys.readouterr()

        seen = read_audit(str(out_csv), SP)[0]
        assert seen.k < k
        s, m = [0] * k, [0] * k
        for name, sg, mg in zip(seen.names, seen.s.tolist(), seen.m.tolist()):
            s[names.index(name)], m[names.index(name)] = sg, mg
        w = GroupWeights.uniform(k)
        if "attr" in plan:
            cfg_plan = AttributeSpecificPlan(w=w, budget=128, gamma=64.0)
        else:
            cfg_plan = WeightedPlan.from_weights(w, 0.0, 256)
        stat = estimate_from_counts(s, m, w, cfg_plan.inclusion_pair())
        tau = TestConfig(alpha=0.75, epsilon=0.3, plan=cfg_plan).threshold
        assert err == ""
        assert code == (EXIT_H1 if stat.f >= tau else EXIT_H0)
        assert out.startswith(f"decision: {'H1' if code == EXIT_H1 else 'H0'}\n"
                              f"statistic: {stat.f!r}\nf1: {stat.f1!r}\nf2: {stat.f2!r}\n")
        assert out.count("\ncount[") == k
        assert out.count(": 0  (warning: fewer than 2 samples)") == m.count(0)


class TestSimulate:
    def _config(self, tmp_path):
        return _write(
            tmp_path / "exp.cfg",
            "k=8\nalpha=0.875\nepsilon=0.3\nplan=weighted\neta=0\n"
            "n_grid=50,150\ntrials=100\nbase_seed=4\n",
        )

    def test_writes_rows_and_manifest(self, tmp_path, capsys):
        conf = self._config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", conf, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 grid points
        assert (out / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        conf = self._config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", conf, "--out", str(out1)])
        main(["simulate", conf, "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (
            out2 / "manifest.json"
        ).read_bytes()

    def _attr_config(self, tmp_path, extra=""):
        return _write(
            tmp_path / "attr.cfg",
            "k=8\nalpha=0.875\nepsilon=0.3\nplan=attr\nn_grid=8,16\n"
            "trials=200\nbase_seed=4\n" + extra,
        )

    def test_gamma_key_sets_attr_plan(self, tmp_path, capsys):
        out1, out2 = tmp_path / "default", tmp_path / "gamma2"
        assert main(["simulate", self._attr_config(tmp_path), "--out", str(out1)]) == 0
        conf = self._attr_config(tmp_path, "gamma=2\n")
        assert main(["simulate", conf, "--out", str(out2)]) == 0
        assert "warning" not in capsys.readouterr().err
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()
        assert json.loads((out2 / "manifest.json").read_text())["config"]["gamma"] == "2"

    def test_clipped_gamma_warns(self, tmp_path, capsys):
        # gamma = 16 against w_g = 1/8: all 8 groups clipped, 8 groups of
        # n/gamma = 2 samples expected at n = 32 and 4 at n = 64.
        conf = _write(
            tmp_path / "c.cfg",
            "k=8\nalpha=0.875\nepsilon=0.3\nplan=attr\nn_grid=32,64\n"
            "gamma=16\ntrials=20\nbase_seed=4\n",
        )
        assert main(["simulate", conf, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: attribute-specific plan clips 8 group(s) with gamma * w_g > 1; "
            f"expects {expected} samples against a budget of {n}"
            for n, expected in ((32, 16.0), (64, 32.0))
        ]


class TestBounds:
    def test_report_contents(self, capsys):
        code = main(["bounds", "--k", "16", "--alpha", "0.5", "--epsilon", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        renyi_line = next(
            line for line in out.splitlines() if line.startswith("renyi_2/3")
        )
        assert abs(float(renyi_line.split()[1]) - 4.0) <= 1e-9
        assert "[order-only]" in out
        assert "delta: 0.01" in out

    def test_p_error_rows(self, capsys):
        main(
            ["bounds", "--k", "4", "--alpha", "0.0", "--epsilon", "0.5",
             "--n", "100", "1000000"]
        )
        out = capsys.readouterr().out
        assert "p_err(n=100):" in out
        assert "vacuous" in out

    def test_attr_row_independent_of_k(self, capsys):
        outputs = []
        for k in ("4", "64"):
            main(["bounds", "--k", k])
            text = capsys.readouterr().out
            outputs.append(
                next(line for line in text.splitlines() if line.startswith("n_attr"))
            )
        assert outputs[0] == outputs[1]




# Runs each argv of sys.argv[1] through cli.main in one fresh interpreter, and
# prints which fairaudit modules are loaded after the import and after each run.
_MODULES_LOADED = """
import contextlib, io, json, sys
import fairaudit.cli as cli

def loaded():
    return [f"fairaudit.{m}" in sys.modules for m in ("adversarial", "bounds", "reader", "simulator")]

seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([cli.main(argv), *loaded()])
print(json.dumps(seen))
"""


def test_cli_import_loads_only_shared_modules(tmp_path):
    # A subcommand imports what only it needs (adversarial, bounds, reader)
    # when it runs.  The simulator stays a module-level import: the
    # benchmark's tracer (bench/worker.py) looks up each module it traces in
    # sys.modules.
    sim = _write(tmp_path / "sim.cfg", "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\ntrials=5\n")
    data = _write(tmp_path / "d.csv", "group,label,prediction\na,0,1\na,0,0\nb,0,0\nb,0,1\n")
    audit = _write(tmp_path / "audit.cfg", "alpha=0.5\nepsilon=0.3\n")
    runs = [["bounds", "--k", "16", "--alpha", "0.5", "--epsilon", "0.1"],
            ["simulate", sim, "--out", str(tmp_path / "run")],
            ["audit", data, audit]]
    out = subprocess.run([sys.executable, "-c", _MODULES_LOADED, json.dumps(runs)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    # Loaded: adversarial, bounds, reader, simulator; each run leads with its exit code.
    assert json.loads(out.stdout) == [
        [False, False, False, True],
        [0, False, True, False, True],
        [0, True, True, False, True],
        [EXIT_H0, True, True, True, True],
    ]
