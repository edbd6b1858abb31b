"""Tests for the command-line front end."""

import csv
import json
import os
import subprocess
import sys
import threading

import pytest

from fairaudit import adversarial, cli, reader
from fairaudit.cli import (
    EXIT_DATA,
    EXIT_H0,
    EXIT_H1,
    EXIT_USAGE,
    _AUDIT_KEYS,
    _render_outcome,
    main,
    read_config,
)
from fairaudit.core import GroupWeights, MetricKind
from fairaudit.cvar_test import TestConfig, run_test_dataset
from fairaudit.errors import ConfigError, WeightError
from fairaudit.estimator import estimate_from_counts
from fairaudit.reader import read_audit, read_records
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan, inclusion_array


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
        counts = read_records(path)
        assert counts.names == ("alpha", "zeta")
        assert counts.m.tolist() == [1, 2]
        assert counts.s.tolist() == [0, 1]

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label\ng0,0\n")
        with pytest.raises(ConfigError) as err:
            read_records(path)
        assert "prediction" in str(err.value)

    def test_bad_cell_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\ng0,0,x\n")
        with pytest.raises(ConfigError) as err:
            read_records(path)
        assert ":2:" in str(err.value)


    def test_header_only_has_no_data_rows(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\n")
        with pytest.raises(ConfigError, match="no data rows"):
            read_records(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\ng0,2,1\n")
        with pytest.raises(ConfigError) as err:
            read_records(path)
        assert str(err.value) == f"{path}:2: bad row (label must be 0 or 1, got 2)"

    def test_bad_prediction_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "group,label,prediction\ng0,0,1\n\ng1,1,-1\n")
        with pytest.raises(ConfigError) as err:
            read_records(path)
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
        for read in (read_records, reader._records_csv):
            with pytest.raises(ConfigError) as err:
                read(path)
            assert str(err.value) == f"{path}:3: bad row ({reason})"

    def test_short_row_reports_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", "label,prediction,group\n0,1,a\n0,1\n")
        with pytest.raises(ConfigError, match=":3: bad row"):
            read_records(path)

    def test_lenient_cells_blank_lines_and_repeated_columns(self, tmp_path):
        # int() accepts " 1" and "+0"; blank lines are skipped; a repeated
        # column name means its last position.
        path = _write(
            tmp_path / "d.csv",
            "group,label,prediction,label\n\na,x, 1,+0\n\nb,y,+0,1\n",
        )
        counts = read_records(path, MetricKind.EQUAL_OPPORTUNITY)
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
        with pytest.raises(WeightError, match="^weights must be finite$"):
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

    def test_identical_groups_exit_h0(self, tmp_path, capsys):
        data = self._fair_csv(tmp_path)
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\n")
        code = main(["audit", data, conf])
        assert code == EXIT_H0
        out = capsys.readouterr().out
        assert "decision: H0" in out

    def test_disparate_groups_exit_h1(self, tmp_path, capsys):
        # Deterministic two-group data: F = 0.25 >= threshold 0.2.
        rows = ["group,label,prediction", "g0,0,0", "g0,0,0", "g1,0,1", "g1,0,1"]
        data = _write(tmp_path / "data.csv", "\n".join(rows) + "\n")
        conf = _write(
            tmp_path / "c.cfg",
            "alpha=0.2\nepsilon=0.7071067811865476\nplan=weighted\neta=0\n",
        )
        code = main(["audit", data, conf])
        assert code == EXIT_H1
        assert "decision: H1" in capsys.readouterr().out

    def test_missing_column_exit_usage(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", "group,label\ng0,0\n")
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\n")
        code = main(["audit", data, conf])
        assert code >= 64
        assert "prediction" in capsys.readouterr().err

    def test_sidecar_weights(self, tmp_path):
        data = self._fair_csv(tmp_path)
        sidecar = _write(tmp_path / "w.csv", "group,weight\ng0,0.3\ng1,0.7\n")
        conf = _write(
            tmp_path / "c.cfg",
            f"alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\nweights={sidecar}\n",
        )
        assert main(["audit", data, conf]) == EXIT_H0

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

    def test_header_only_exit_usage(self, tmp_path, capsys):
        data = _write(tmp_path / "hdr.csv", "group,label,prediction\n")
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\n")
        assert main(["audit", data, conf]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {data}: no data rows\n"

    def test_sidecar_path_with_hash(self, tmp_path):
        data = self._fair_csv(tmp_path)
        run_dir = tmp_path / "run#3"
        run_dir.mkdir()
        sidecar = _write(run_dir / "w.csv", "group,weight\ng0,0.3\ng1,0.7\n")
        conf = _write(
            tmp_path / "c.cfg",
            f"alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\nweights={sidecar}  # sidecar\n",
        )
        assert main(["audit", data, conf]) == EXIT_H0

    def test_nan_sidecar_weight_exit_data(self, tmp_path, capsys):
        data = self._fair_csv(tmp_path)
        sidecar = _write(tmp_path / "w.csv", "group,weight\ng0,nan\ng1,0.5\n")
        conf = _write(
            tmp_path / "c.cfg",
            f"alpha=0.5\nepsilon=0.3\nplan=weighted\neta=0\nweights={sidecar}\n",
        )
        assert main(["audit", data, conf]) == EXIT_DATA
        assert "weights must be finite" in capsys.readouterr().err

    def test_equal_opportunity_conditioning(self, tmp_path, capsys):
        # Only the four label-0 rows survive EO conditioning; budget defaults
        # to the post-conditioning sample count, so the audit still runs.
        rows = [
            "group,label,prediction",
            "g0,0,0", "g0,1,1", "g0,0,0",
            "g1,0,0", "g1,1,1", "g1,0,0",
        ]
        data = _write(tmp_path / "data.csv", "\n".join(rows) + "\n")
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\nmetric=eo\neta=0\n")
        assert main(["audit", data, conf]) == EXIT_H0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # A misspelt metric=eo would otherwise audit statistical parity.
        rows = ["group,label,prediction", "g0,0,0", "g0,1,1", "g1,0,1", "g1,1,1"]
        data = _write(tmp_path / "data.csv", "\n".join(rows) + "\n")
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\n# eo\nmetirc=eo\neta=0\n")
        assert main(["audit", data, conf]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {conf}:4: unknown key 'metirc'\n"

    @pytest.mark.parametrize("key", ["alpha", "epsilon"])
    def test_missing_key_rejected(self, tmp_path, capsys, key):
        data = _write(tmp_path / "data.csv", "group,label,prediction\ng0,0,0\ng1,0,1\n")
        text = "".join(f"{k}={v}\n" for k, v in (("alpha", 0.5), ("epsilon", 0.3)) if k != key)
        conf = _write(tmp_path / "c.cfg", text)
        assert main(["audit", data, conf]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {conf}: missing key {key!r}\n"

    @pytest.mark.parametrize("key, value, expected", [
        ("alpha", "half", "a number"),
        ("epsilon", "0.3.1", "a number"),
        ("budget", "1e3", "an integer"),
        ("eta", "2/3", "a number"),
        ("gamma", "", "a number"),
    ])
    def test_bad_number_rejected(self, tmp_path, capsys, key, value, expected):
        # Checked before the data CSV is read, which here does not exist.
        settings = {"alpha": "0.5", "epsilon": "0.3", key: value}
        conf = _write(tmp_path / "c.cfg", "".join(f"{k}={v}\n" for k, v in settings.items()))
        assert main(["audit", str(tmp_path / "absent.csv"), conf]) == EXIT_USAGE
        want = f"error: {conf}: {key} must be {expected}, got {value!r}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("key", ["alpha", "epsilon", "eta", "gamma"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, key, value):
        # Checked before the data CSV is read, which here does not exist.
        settings = {"alpha": "0.5", "epsilon": "0.3", key: value}
        conf = _write(tmp_path / "c.cfg", "".join(f"{k}={v}\n" for k, v in settings.items()))
        assert main(["audit", str(tmp_path / "absent.csv"), conf]) == EXIT_USAGE
        want = f"error: {conf}: {key} must be a finite number, got {value!r}\n"
        assert capsys.readouterr() == ("", want)

    def test_nan_eta_gives_no_decision(self, tmp_path, capsys):
        # eta=nan once audited as eta=0, and exited 0.
        data = _write(tmp_path / "data.csv", "group,label,prediction\n"
                      "a,0,1\na,0,0\nb,0,1\nb,0,1\nc,0,0\nc,0,0\n")
        weights = _write(tmp_path / "w.csv", "group,weight\na,0.5\nb,0.3\nc,0.2\n")
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\nweights={weights}\neta=nan\n")
        assert main(["audit", data, conf]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: eta must be a finite number, got 'nan'\n")

    def test_underflowing_eta_rejected(self, tmp_path, capsys):
        data = _write(tmp_path / "data.csv", "group,label,prediction\na,0,1\nb,0,0\n")
        weights = _write(tmp_path / "w.csv", "group,weight\na,0.5\nb,0.5\n")
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\nweights={weights}\neta=2000\n")
        assert main(["audit", data, conf]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: eta=2000.0 underflows every weight's power to 0\n")

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # The last alpha once won without a word.
        conf = _write(tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\nalpha=0.01\n")
        assert main(["audit", str(tmp_path / "absent.csv"), conf]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: {conf}:3: key 'alpha' repeated (first on line 1)\n")

    @pytest.mark.parametrize("key, value, want", [
        ("metric", "xx", "metric must be one of 'sp', 'eo', got 'xx'"),
        ("metric", "EO", "metric must be one of 'sp', 'eo', got 'EO'"),
        ("plan", "foo", "plan must be one of 'weighted', 'attr', got 'foo'"),
        ("weights", "uniformm", "weights file not found: 'uniformm'"),
        ("weights", "", "weights file not found: ''"),
        ("weights", ".", "weights file is a directory: '.'"),
    ])
    def test_bad_choice_rejected(self, tmp_path, capsys, key, value, want):
        # Checked before the data CSV is read, which here does not exist.
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\n{key}={value}\n")
        assert main(["audit", str(tmp_path / "absent.csv"), conf]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: {want}\n")

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
            read_records(data), w, TestConfig(alpha=0.5, epsilon=0.3, plan=plan)
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

    def test_weight_sum_error_names_the_sidecar(self, tmp_path, capsys):
        data = self._fair_csv(tmp_path)
        sidecar = _write(tmp_path / "w.csv", "group,weight\ng0,0.5\ng1,0.25\n")
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\nweights={sidecar}\n")
        assert main(["audit", data, conf]) == EXIT_DATA
        assert capsys.readouterr() == ("", f"error: {sidecar}: weights sum to 0.75, not 1\n")

    def test_sidecar_missing_groups_named_a_few(self, tmp_path, capsys):
        lines = ["group,label,prediction"] + [f"g{g:04d},0,0" for g in range(3000)]
        data = _write(tmp_path / "data.csv", "\n".join(lines) + "\n")
        for name, sidecar in [("plain", "group,weight\ng0000,1.0\n"),
                              ("quoted", 'group,weight\n"g0000",1.0\n')]:
            side = _write(tmp_path / f"{name}.csv", sidecar)
            conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\nweights={side}\n")
            assert main(["audit", data, conf]) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                f"error: {side}: missing weights for groups 'g0001', 'g0002', 'g0003', "
                "'g0004', 'g0005' ... (2999 groups in all)\n"
            )

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

    def test_attr_plan_mismatch_names_a_few_groups(self, tmp_path, capsys):
        # 3000 groups against blocks of n/gamma = 2: every odd group has 3 rows.
        lines = ["group,label,prediction"]
        for g in range(3000):
            lines.extend([f"g{g:04d},0,0"] * (3 if g % 2 else 2))
        data = _write(tmp_path / "data.csv", "\n".join(lines) + "\n")
        conf = _write(
            tmp_path / "c.cfg", "alpha=0.5\nepsilon=0.3\nplan=attr\nbudget=3000\ngamma=1500\n"
        )
        assert main(["audit", data, conf]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err) < 200  # one short line, not one entry per offending group
        assert err == (
            "error: attribute-specific counts must be 0 or 2; groups 'g0001', 'g0003', "
            "'g0005', 'g0007', 'g0009' ... (1500 groups in all) violate this\n"
        )


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
        counts = read_records(str(out_csv))
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
        counts = read_records(str(out_csv))
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

        seen = read_records(str(out_csv))
        assert seen.k < k
        s, m = [0] * k, [0] * k
        for name, sg, mg in zip(seen.names, seen.s.tolist(), seen.m.tolist()):
            s[names.index(name)], m[names.index(name)] = sg, mg
        w = GroupWeights.uniform(k)
        if "attr" in plan:
            cfg_plan = AttributeSpecificPlan(w=w, budget=128, gamma=64.0)
        else:
            cfg_plan = WeightedPlan.from_weights(w, 0.0, 256)
        stat = estimate_from_counts(s, m, w, cfg_plan.inclusion_probabilities())
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

    def test_gamma_with_fractional_block_rejected(self, tmp_path, capsys):
        conf = self._attr_config(tmp_path, "gamma=3\n")  # 8 / 3 samples per group
        assert main(["simulate", conf, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {conf}: gamma must be > 0, with n / gamma a whole number from 2 to "
            f"{2**63 - 1} for each n of n_grid, got '3'\n")

    def test_zero_trials_rejected(self, tmp_path, capsys):
        conf = _write(
            tmp_path / "exp.cfg",
            "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\ntrials=0\n",
        )
        assert main(["simulate", conf, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {conf}: trials must be >= 1, got '0'\n"

    _SETTINGS = {"k": "8", "alpha": "0.875", "epsilon": "0.3", "n_grid": "50,100",
                 "trials": "20"}

    def test_epsilon_too_large_for_k_exit_usage(self, tmp_path, capsys):
        # The hard pair's perturbed mean 1/2 + epsilon K / (K - 1) passes 1.
        conf = _write(tmp_path / "exp.cfg", "".join(
            f"{k}={v}\n" for k, v in {**self._SETTINGS, "k": "2", "epsilon": "0.4"}.items()))
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: perturbed mean 1.3 > 1 for K=2, epsilon=0.4\n")
        assert not out.exists()

    def test_alpha_the_hard_pair_cannot_reach(self, tmp_path, capsys, monkeypatch):
        # The perturbed group has weight 1/k, so for k > 2 its gap epsilon is
        # the CVaR only when 1 - alpha is about 1/k or less: k = 8 rejects
        # alpha = 0.75, before any trial runs.  With k = 2 both groups have
        # gap epsilon, so any alpha is taken, and k = 3 takes the alpha one
        # ulp below 1 - 1/3.
        conf = _write(tmp_path / "exp.cfg", "k=8\nalpha=0.75\nepsilon=0.3\nn_grid=10\ntrials=2\n")
        out = tmp_path / "o"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "threshold_sweep", None)
            assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: alpha must be in [0, 1), with the "
                                           "hard pair's h1 instance at CVaR fairness >= epsilon, "
                                           "got '0.75'\n")
        assert not out.exists()
        for config in ("k=2\nalpha=0.1\nepsilon=0.2", "k=3\nalpha=0.6666666666666666\nepsilon=0.3"):
            conf = _write(tmp_path / "exp.cfg", config + "\nn_grid=10\ntrials=2\n")
            assert main(["simulate", conf, "--out", str(out)]) == 0, config
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["k", "alpha", "epsilon", "n_grid"])
    def test_missing_key_rejected(self, tmp_path, capsys, key):
        text = "".join(f"{k}={v}\n" for k, v in self._SETTINGS.items() if k != key)
        conf = _write(tmp_path / "exp.cfg", text)
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {conf}: missing key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, want", [
        ("instance", "mixture", "instance must be one of 'hardpair', got 'mixture'"),
        ("plan", "foo", "plan must be one of 'weighted', 'attr', got 'foo'"),
    ])
    def test_bad_choice_rejected(self, tmp_path, capsys, key, value, want):
        conf = _write(tmp_path / "exp.cfg",
                      "".join(f"{k}={v}\n" for k, v in {**self._SETTINGS, key: value}.items()))
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: {want}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, expected", [
        ("k", "8.0", "an integer"),
        ("trials", "1e3", "an integer"),
        ("base_seed", "0x10", "an integer"),
        ("n_grid", "50,1e3", "comma-separated integers"),
        ("n_grid", "50,,100", "comma-separated integers"),
        ("alpha", "7/8", "a number"),
        ("epsilon", "", "a number"),
        ("target", "10%", "a number"),
        ("eta", "two thirds", "a number"),
        ("gamma", "n/2", "a number"),
    ])
    def test_bad_number_rejected(self, tmp_path, capsys, key, value, expected):
        conf = _write(tmp_path / "exp.cfg",
                      "".join(f"{k}={v}\n" for k, v in {**self._SETTINGS, key: value}.items()))
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        want = f"error: {conf}: {key} must be {expected}, got {value!r}\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["alpha", "epsilon", "eta", "gamma", "target"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, key, value):
        conf = _write(tmp_path / "exp.cfg",
                      "".join(f"{k}={v}\n" for k, v in {**self._SETTINGS, key: value}.items()))
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        want = f"error: {conf}: {key} must be a finite number, got {value!r}\n"
        assert capsys.readouterr() == ("", want)
        assert not out.exists()

    @pytest.mark.parametrize("key, value, rule", [
        ("base_seed", "-1", ">= 0"),
        ("target", "2", "in [0, 1]"),
        ("target", "-1", "in [0, 1]"),
        ("target", "1.0000001", "in [0, 1]"),
    ])
    def test_out_of_range_rejected(self, tmp_path, capsys, monkeypatch, key, value, rule):
        # Checked before the hard pair is built.
        monkeypatch.setattr(adversarial, "build_hard_pair", None)
        conf = _write(tmp_path / "exp.cfg",
                      "".join(f"{k}={v}\n" for k, v in {**self._SETTINGS, key: value}.items()))
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: {key} must be {rule}, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["0", "1"])
    def test_target_at_the_ends_of_its_range(self, tmp_path, capsys, target):
        conf = _write(tmp_path / "exp.cfg", "".join(
            f"{k}={v}\n" for k, v in {**self._SETTINGS, "target": target}.items()))
        assert main(["simulate", conf, "--out", str(tmp_path / "o")]) == 0

    def test_repeated_key_rejected(self, tmp_path, capsys):
        conf = _write(tmp_path / "exp.cfg", "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\n"
                      "trials=100\n\nn_grid=100\n")
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {conf}:7: key 'n_grid' repeated (first on line 4)\n")
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = _write(tmp_path / "exp.cfg", "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\n"
                      "trails=100\nbase_seed=4\n")
        out = tmp_path / "o"
        assert main(["simulate", conf, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {conf}:5: unknown key 'trails'\n"
        assert not out.exists()


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


_SYNTH = ["synth", "--k", "4", "--epsilon", "0.1", "--budget", "10"]


class TestExitContract:
    @pytest.mark.parametrize("argv, want", [
        (["bounds", "--k", "0"], "--k must be >= 1, got 0"),
        (["bounds", "--k", "16", "--alpha", "1"], "--alpha must be in [0, 1), got 1.0"),
        (["bounds", "--k", "16", "--alpha", "-0.5"], "--alpha must be in [0, 1), got -0.5"),
        (["bounds", "--k", "16", "--alpha", "nan"], "--alpha must be finite, got nan"),
        (["bounds", "--k", "16", "--epsilon", "0"], "--epsilon must be > 0, got 0.0"),
        (["bounds", "--k", "16", "--epsilon", "inf"], "--epsilon must be finite, got inf"),
        (["bounds", "--k", "16", "--delta", "0"], "--delta must be in (0, 1), got 0.0"),
        (["bounds", "--k", "16", "--delta", "2"], "--delta must be in (0, 1), got 2.0"),
        (["bounds", "--k", "16", "--delta=-inf"], "--delta must be finite, got -inf"),
        (["bounds", "--k", "16", "--n", "0"], "--n must be at least 2 each, got [0]"),
        (["bounds", "--k", "16", "--n", "100", "1"], "--n must be at least 2 each, got [100, 1]"),
        (_SYNTH[:2] + ["0"] + _SYNTH[3:] + ["--kind", "mixture"], "--k must be >= 1, got 0"),
        (_SYNTH + ["--plan", "attr", "--gamma", "nan"], "--gamma must be finite, got nan"),
        (_SYNTH + ["--eta", "inf"], "--eta must be finite, got inf"),
        (_SYNTH + ["--alpha", "nan", "--kind", "mixture"], "--alpha must be finite, got nan"),
        (_SYNTH[:3] + ["--epsilon=-inf"] + _SYNTH[5:], "--epsilon must be finite, got -inf"),
        (_SYNTH + ["--seed", "-1"], "--seed must be >= 0, got -1"),
        # An epsilon the mixture construction cannot take at this K is a bad option value.
        (["synth", "--kind", "mixture", "--k", "8", "--epsilon", "100", "--budget", "10"],
         "epsilon must be in (0, 0.25] for K=8, alpha=0.5"),
        (_SYNTH[:6] + ["0"], "--budget must be >= 1, got 0"),
        (_SYNTH[:6] + ["0", "--plan", "attr"], "--budget must be >= 1, got 0"),
        (_SYNTH[:6] + ["-3"], "--budget must be >= 1, got -3"),
        # n/gamma overflows to inf: the plan's own error, not an OverflowError.
        (_SYNTH + ["--plan", "attr", "--gamma", "1e-320"],
         "n/gamma must be a positive integer, got inf"),
        # Budgets and blocks past int64, which numpy's samplers cannot take.
        (_SYNTH[:6] + [str(10**20)],
         f"budget must be at most {2**63 - 1}, got {10**20}"),
        (_SYNTH[:6] + [str(10**20), "--plan", "attr", "--gamma", "1"],
         f"n/gamma must be at most {2**63 - 1}, got 1e+20"),
        # bounds: epsilon^4 underflows, a sample size overflows, epsilon^4 overflows.
        (["bounds", "--k", "2", "--epsilon", "1e-200"],
         "--epsilon must be larger: (1 - alpha)^2 epsilon^4 delta = 0.0 gives no finite "
         "sample size, got 1e-200"),
        (["bounds", "--k", "16", "--delta", "1e-320"],
         "--delta must be larger: (1 - alpha)^2 epsilon^4 delta = 0.0 gives no finite "
         "sample size, got 1e-320"),
        (["bounds", "--k", "16", "--delta", "1e-310"],
         "--delta must be larger: (1 - alpha)^2 epsilon^4 delta = 2.5e-315 gives no finite "
         "sample size, got 1e-310"),
        (["bounds", "--k", "16", "--epsilon", "1e-78", "--delta", "0.5"],
         "--epsilon must be larger: (1 - alpha)^2 epsilon^4 delta = 1.25000000003e-313 gives "
         "no finite sample size, got 1e-78"),
        (["bounds", "--k", "16", "--epsilon", "1e200"], "--epsilon must be <= 1, got 1e+200"),
        (["bounds", "--k", "16", "--epsilon", "1.5"], "--epsilon must be <= 1, got 1.5"),
        (["bounds", "--k", "2", "--n", "2", str(10**309)],
         f"--n must be <= 1.7976931348623157e+308 each, got [2, {10**309}]"),
    ])
    def test_bad_option_exit_usage(self, tmp_path, capsys, argv, want):
        out = tmp_path / "synth.csv"
        argv = argv + ["--out", str(out)] if argv[0] == "synth" else argv
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {want}\n")
        assert not out.exists()

    def test_bounds_at_the_edges_of_its_ranges(self, capsys):
        # epsilon = 1 is the largest gap; the smallest deltas that still give
        # finite sizes, and the largest float --n, print the report.
        for argv in (["--epsilon", "1"], ["--delta", "1e-300"], ["--n", "2", str(2**1023)]):
            assert main(["bounds", "--k", "16", *argv]) == 0
            assert capsys.readouterr().out.startswith("K: 16\n")

    @pytest.mark.parametrize("command, config, want", [
        ("audit", "alpha=0.5\nepsilon=0.3\nplan=attr\nbudget=10\ngamma=1e-320\n",
         f"gamma must be > 0, with budget / gamma a whole number from 2 to {2**63 - 1}"),
        ("simulate", "k=4\nalpha=0.5\nepsilon=0.3\nplan=attr\nn_grid=10\ntrials=2\n"
                     "gamma=1e-320\n",
         f"gamma must be > 0, with n / gamma a whole number from 2 to {2**63 - 1} for each n "
         "of n_grid"),
    ])
    def test_overflowing_gamma_in_config(self, tmp_path, capsys, command, config, want):
        conf = _write(tmp_path / "c.cfg", config)
        out = tmp_path / "out"
        if command == "audit":
            argv = ["audit", _write(tmp_path / "d.csv", "group,label,prediction\ng0,0,1\n"), conf]
        else:
            argv = ["simulate", conf, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: {want}, got '1e-320'\n")
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["3", "10", "1e-320", "5"])  # 5: a block of 1
    def test_gamma_against_the_kept_rows(self, tmp_path, capsys, gamma):
        # Without a budget, the attribute-specific plan's budget is the number
        # of kept rows (here 5), known only once the data is read.
        data = _write(tmp_path / "d.csv", "group,label,prediction\n" + "g0,0,1\ng1,0,0\n" * 2
                      + "g2,0,1\n")
        conf = _write(tmp_path / "c.cfg", f"alpha=0.5\nepsilon=0.3\nplan=attr\ngamma={gamma}\n")
        assert main(["audit", data, conf]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: gamma must be > 0, with budget / gamma "
                                           f"a whole number from 2 to {2**63 - 1}, for the budget "
                                           f"of 5 kept rows, got {gamma!r}\n")

    @pytest.mark.parametrize("command, config, want", [
        ("audit", f"alpha=0.5\nepsilon=0.3\nbudget={10**20}\n",
         f"budget must be in [0, {2**63 - 1}], got '{10**20}'"),
        ("simulate", f"k=4\nalpha=0.5\nepsilon=0.3\nn_grid=10,{10**20}\ntrials=2\n",
         f"n_grid must be a list of budgets in [2, {2**63 - 1}], got '10,{10**20}'"),
        ("simulate", f"k=4\nalpha=0.5\nepsilon=0.3\nplan=attr\nn_grid={10**20}\ntrials=2\n"
                     "gamma=1\n", f"n_grid must be a list of budgets in [1, {2**63 - 1}], "
                                   f"got '{10**20}'"),
    ])
    def test_overflowing_budget_in_config(self, tmp_path, capsys, command, config, want):
        conf = _write(tmp_path / "c.cfg", config)
        out = tmp_path / "out"
        if command == "audit":
            argv = ["audit", _write(tmp_path / "d.csv", "group,label,prediction\ng0,0,1\n"), conf]
        else:
            argv = ["simulate", conf, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: {want}\n")
        assert not out.exists()

    _BASE = {"audit": {"alpha": "0.5", "epsilon": "0.3"},
             "simulate": {"k": "4", "alpha": "0.5", "epsilon": "0.3", "n_grid": "10",
                          "trials": "2"}}
    _BLOCK = f"> 0, with budget / gamma a whole number from 2 to {2**63 - 1}"
    _BLOCKS = f"> 0, with n / gamma a whole number from 2 to {2**63 - 1} for each n of n_grid"
    _THRESHOLD = "> 0, with a threshold (1 - alpha) epsilon^2 / 2 in (0, 0.5]"
    _SIM_EPSILON = "in (0, 0.5], with a threshold (1 - alpha) epsilon^2 / 2 > 0"

    @pytest.mark.parametrize("command, setting, rule", [
        ("audit", "alpha=2", "in [0, 1)"),
        ("audit", "alpha=-0.5", "in [0, 1)"),
        ("audit", "epsilon=0", _THRESHOLD),
        ("audit", "epsilon=-0.3", _THRESHOLD),  # a threshold in range, from a negative epsilon
        ("audit", "epsilon=5", _THRESHOLD),
        ("audit", "epsilon=1e-200", _THRESHOLD),  # the threshold underflows to 0
        ("audit", "eta=-1", ">= 0"),
        ("audit", "plan=attr\neta=-1", ">= 0"),  # an eta the plan does not use
        ("audit", "gamma=-1", "> 0"),  # a gamma the weighted plan does not use
        ("audit", "budget=-1", f"in [0, {2**63 - 1}]"),
        ("audit", "plan=attr\nbudget=0", f"in [1, {2**63 - 1}]"),
        ("audit", "plan=attr\ngamma=0", _BLOCK),
        ("audit", "plan=attr\nbudget=10\ngamma=3", _BLOCK),
        ("audit", "plan=attr\nbudget=10\ngamma=20", _BLOCK),  # a block of 0.5
        ("audit", "plan=attr\nbudget=10\ngamma=10", _BLOCK),  # a block of 1
        ("simulate", "k=0", ">= 2"),
        ("simulate", "k=1", ">= 2"),
        ("simulate", "alpha=2", "in [0, 1)"),
        ("simulate", "epsilon=0", _SIM_EPSILON),
        ("simulate", "epsilon=0.6", _SIM_EPSILON),
        ("simulate", "epsilon=1e-200", _SIM_EPSILON),  # the threshold underflows to 0
        ("simulate", "n_grid=-5", f"a list of budgets in [2, {2**63 - 1}]"),
        ("simulate", "n_grid=10,-5", f"a list of budgets in [2, {2**63 - 1}]"),
        ("simulate", "n_grid=0", f"a list of budgets in [2, {2**63 - 1}]"),
        ("simulate", "n_grid=10,1", f"a list of budgets in [2, {2**63 - 1}]"),
        ("simulate", "plan=attr\nn_grid=0", f"a list of budgets in [1, {2**63 - 1}]"),
        ("simulate", "eta=-1", ">= 0"),
        ("simulate", "plan=attr\neta=-1", ">= 0"),
        ("simulate", "gamma=-1", "> 0"),
        ("simulate", "plan=attr\ngamma=0", _BLOCKS),
        ("simulate", "plan=attr\nn_grid=10,20\ngamma=4", _BLOCKS),  # 10 / 4 is not whole
        ("simulate", "plan=attr\nn_grid=10\ngamma=10", _BLOCKS),  # a block of 1
        # Two bad keys: the first in the read order is reported, whether the
        # other fails to parse or is out of its range.
        ("audit", "gamma=x\nalpha=2", "in [0, 1)"),
        ("audit", "budget=1e3\nmetric=xx", "one of 'sp', 'eo'"),
        ("simulate", "k=x\ntrials=0", ">= 1"),
        ("simulate", "plan=foo\nalpha=2", "in [0, 1)"),
    ])
    def test_out_of_range_config_value(self, tmp_path, capsys, monkeypatch, command, setting,
                                       rule):
        """A key out of its range: an error that names the file and the key (the
        last line of `setting`), raised before the data CSV (here absent) is
        read or the instance built.  TestSimulate covers `trials`, `base_seed`
        and `target`."""
        settings = dict(self._BASE[command])
        settings.update(line.split("=") for line in setting.splitlines())
        key, value = setting.splitlines()[-1].split("=")
        conf = _write(tmp_path / "c.cfg", "".join(f"{k}={v}\n" for k, v in settings.items()))
        out = tmp_path / "out"
        monkeypatch.setattr(adversarial, "build_hard_pair", None)
        if command == "audit":
            argv = ["audit", str(tmp_path / "absent.csv"), conf]
        else:
            argv = ["simulate", conf, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {conf}: {key} must be {rule}, got {value!r}\n")
        assert not out.exists()

    def test_config_values_at_their_bounds(self, tmp_path, capsys):
        """The edges of each range still run."""
        for setting in ("alpha=0", "alpha=0.99", "epsilon=1", "eta=0", "budget=4",
                        "plan=attr\nbudget=4\ngamma=2"):
            settings = {**self._BASE["audit"], **dict(x.split("=") for x in setting.splitlines())}
            conf = _write(tmp_path / "c.cfg", "".join(f"{k}={v}\n" for k, v in settings.items()))
            data = _write(tmp_path / "d.csv", "group,label,prediction\n" + "g0,0,1\ng1,0,0\n" * 2)
            assert main(["audit", data, conf]) in (EXIT_H0, EXIT_H1), setting
        capsys.readouterr()

    def test_memory_error_exit_usage(self, tmp_path, capsys, monkeypatch):
        # Raised where the instance is built, before the output is opened.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        out = tmp_path / "synth.csv"
        monkeypatch.setattr(adversarial, "build_hard_pair", no_memory)
        assert main(_SYNTH + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: Unable to allocate 72.8 TiB for an array\n")
        assert not out.exists()

    def test_memory_error_while_writing_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        out = tmp_path / "synth.csv"
        monkeypatch.setattr(cli, "_group_name", no_memory)
        assert main(_SYNTH + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, want", [
        ([], "the following arguments are required: command"),
        (["audit"], "the following arguments are required: input, config"),
        (["bounds", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (["frob"], "argument command: invalid choice: 'frob'"),
        (["bounds", "--k", "4", "--bogus"], "unrecognized arguments: --bogus"),
        (_SYNTH + ["--plan", "foo", "--out", "x.csv"], "argument --plan: invalid choice: 'foo'"),
    ])
    def test_usage_error_exit_usage(self, capsys, argv, want):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: fairaudit") and want in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: fairaudit")


def test_cli_import_loads_only_shared_modules():
    # A subcommand imports what only it needs (adversarial, bounds) when it
    # runs.  The simulator stays a module-level import: the benchmark's tracer
    # (bench/worker.py) looks up each module it traces in sys.modules.
    code = (
        "import sys, fairaudit.cli; "
        "print(*(f'fairaudit.{m}' in sys.modules for m in ('adversarial', 'bounds', 'simulator')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["False", "False", "True"]
