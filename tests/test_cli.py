"""Tests for the command-line front end."""

import csv
import json
import os
import subprocess
import sys
import threading

import pytest

from fairaudit.cli import (
    EXIT_DATA,
    EXIT_H0,
    EXIT_H1,
    EXIT_USAGE,
    _AUDIT_KEYS,
    _render_outcome,
    main,
    read_config,
    read_records,
    read_weight_sidecar,
)
from fairaudit.core import GroupWeights, MetricKind
from fairaudit.cvar_test import TestConfig, run_test_dataset
from fairaudit.errors import ConfigError, WeightError
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
    def test_aligned_to_names(self, tmp_path):
        path = _write(tmp_path / "w.csv", "group,weight\nb,0.75\na,0.25\n")
        w = read_weight_sidecar(path, ["a", "b"])
        assert w.w == (0.25, 0.75)

    def test_missing_group(self, tmp_path):
        path = _write(tmp_path / "w.csv", "group,weight\na,1.0\n")
        with pytest.raises(ConfigError):
            read_weight_sidecar(path, ["a", "b"])

    def test_bad_weight_reports_line(self, tmp_path):
        path = _write(tmp_path / "w.csv", "weight,group\n0.5,a\nabc,b\n")
        with pytest.raises(ConfigError, match=":3: bad row"):
            read_weight_sidecar(path, ["a", "b"])

    def test_nan_weight_rejected(self, tmp_path):
        path = _write(tmp_path / "w.csv", "group,weight\na,nan\nb,0.5\n")
        with pytest.raises(WeightError, match="finite"):
            read_weight_sidecar(path, ["a", "b"])


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
        assert capsys.readouterr().err.startswith("error: n/gamma must be a positive integer")

    def test_zero_trials_rejected(self, tmp_path, capsys):
        conf = _write(
            tmp_path / "exp.cfg",
            "k=8\nalpha=0.875\nepsilon=0.3\nn_grid=50\ntrials=0\n",
        )
        assert main(["simulate", conf, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"

    _SETTINGS = {"k": "8", "alpha": "0.875", "epsilon": "0.3", "n_grid": "50,100",
                 "trials": "20"}

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
