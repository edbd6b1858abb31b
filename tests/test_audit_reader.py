"""The audit readers against the per-row oracle, and malformed-input fuzzing.

`_oracle_counts` is the row path the reader replaced: `csv.DictReader`,
per-row `int()` and 0/1 checks, and per-group counts in dicts.  Random CSVs
(shuffled and extra columns, a repeated column, blank lines, quoted fields,
lenient integer cells, both metrics; half of them plain, so that the
vectorised reader takes them) must reduce to exactly the oracle's counts,
and `fairaudit audit` must print exactly what the oracle's counts give.
The vectorised reader must agree with the csv.reader path on edge cases and
on the benchmark's own input, on each side of the 7/8-byte name length
that divides its one-sort and hashed paths.  Every malformed input must end in an
`error:` line and an exit code >= 64, never a traceback.
"""

import codecs
import csv
import importlib.util
import io
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fairaudit import reader
from fairaudit.cli import _render_outcome, main
from fairaudit.reader import read_audit
from fairaudit.core import GroupCounts, GroupWeights, MetricKind
from fairaudit.cvar_test import Decision, TestConfig, TestOutcome, run_test_dataset
from fairaudit.errors import ConfigError, EmptyAfterConditioning, FairauditError
from fairaudit.estimator import EstimatorValue
from fairaudit.sampling import AttributeSpecificPlan, WeightedPlan

SP = MetricKind.STATISTICAL_PARITY
EO = MetricKind.EQUAL_OPPORTUNITY

# Group names that exercise quoting, non-ASCII text, prefixes and length.
NAME_POOL = ["a", "b b", "c,d", 'e"f', "g\nh", "ü", "x|y|z", " lead", "trail ", "#7",
             "", "a ", "ab", "z", "nine byte", "ßüß", "female|asian|20-30",
             "female|asian|20-30|", "x" * 32, "y" * 33]
# Names a plain file can hold: no comma, quote or newline; at most 32 bytes.
PLAIN_NAMES = [n for n in NAME_POOL if len(n.encode()) <= 32 and not set(n) & set(',"\n')]
PAYLOADS = ["", "free text", "a,b", 'say "hi"', "two\nlines"]
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


def _write_random_csv(path, rng, block=None, plain=False):
    """A random data CSV; with `block`, every group has 0 or `block` label-0 rows.

    A plain file has no repeated column, blank line or quoted field, only
    literal 0/1 cells and names of at most 32 bytes, and may lack the final
    newline: the vectorised reader takes it.
    """
    pool = PLAIN_NAMES if plain else NAME_POOL
    k = int(rng.integers(1, len(pool) + 1))
    names = [str(x) for x in rng.choice(pool, size=k, replace=False)]
    rows = []
    for name in names:
        n0 = block * int(rng.integers(0, 2)) if block else int(rng.integers(0, 6))
        n1 = int(rng.integers(0, 4))
        rows += [(name, 0) for _ in range(n0)] + [(name, 1) for _ in range(n1)]
    rng.shuffle(rows)
    columns = ["group", "label", "prediction", "payload", "score"]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    # A decoy copy of a data column before the real one; the last one counts.
    header = columns if plain else [str(rng.choice(["group", "label", "prediction"]))] + columns
    zeros, ones = (["0"], ["1"]) if plain else (ZERO_CELLS, ONE_CELLS)
    lines = []
    for name, label in rows:
        pred = int(rng.integers(0, 2))
        cell = {
            "group": name,
            "label": str(rng.choice(ones if label else zeros)),
            "prediction": str(rng.choice(ones if pred else zeros)),
            "payload": str(rng.choice(PAYLOADS[:2] if plain else PAYLOADS)),
            "score": repr(float(rng.random())),
        }
        lines.append(([] if plain else ["junk"]) + [cell[c] for c in columns])
    quoting = csv.QUOTE_ALL if not plain and rng.random() < 0.5 else csv.QUOTE_MINIMAL
    terminator = str(rng.choice(["\r\n", "\n"]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, quoting=quoting, lineterminator=terminator)
    writer.writerow(header)
    for line in lines:
        if not plain and rng.random() < 0.2:
            out.write(terminator)  # blank line
        writer.writerow(line)
    text = out.getvalue()
    if plain and rng.random() < 0.3:
        text = text.removesuffix(terminator)
    path.write_bytes(text.encode("utf-8"))


class TestReducerMatchesOracle:
    @pytest.mark.parametrize("kind", [SP, EO])
    def test_counts_equal_oracle(self, tmp_path, kind):
        rng = np.random.default_rng(41 if kind is SP else 42)
        plain_checked = 0
        for i in range(150):
            path = tmp_path / f"d{i}.csv"
            plain = i % 2 == 0
            _write_random_csv(path, rng, plain=plain)
            names, s, m = _oracle_counts(path, kind)
            if not names:
                continue  # no rows at all: covered by the fuzz table
            readers = [lambda: read_audit(str(path), kind)[0]]
            if plain:  # the vectorised reader must take it, not fall back
                readers.append(lambda: _plain_counts(path, kind))
            for reader in readers:
                if sum(m) == 0 and kind is EO:
                    with pytest.raises(EmptyAfterConditioning):
                        reader()
                    continue
                counts = reader()
                assert counts.names == tuple(names)
                assert counts.s.tolist() == s
                assert counts.m.tolist() == m
            plain_checked += plain
        assert plain_checked >= 60

    def test_audit_output_equals_oracle_render(self, tmp_path, capsys):
        checked = 0
        rng = np.random.default_rng(43)
        for i in range(80):
            kind = SP if i % 2 else EO
            attr = i % 6 == 0  # always with EO, which drops the label-1 rows
            path = tmp_path / f"d{i}.csv"
            _write_random_csv(path, rng, block=2 if attr else None, plain=i % 4 < 2)
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
            out, err = capsys.readouterr()

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
            try:
                outcome = run_test_dataset(
                    expected, w, TestConfig(alpha=alpha, epsilon=0.3, plan=plan)
                )
            except FairauditError as exc:  # such as a group no plan draws twice
                assert (code, out, err) == (65, "", f"error: {exc}\n")
                continue
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
    ("sidecar_missing_many_groups",
     (HEADER + "".join(f"g{g:04d},0,1\n" for g in range(3000))).encode(), BASE_CFG,
     "group,weight\ng0000,1.0\n"),
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
    assert len(err) < 400  # one line, however many groups are at fault


def _not_plain(*args):
    raise reader._NotPlain


def _plain_counts(path, kind):
    """The counts of the vectorised data reader; _NotPlain if it does not take the file."""
    keys, cells = reader._records_plain(str(path))
    return GroupCounts.from_cells(reader._key_names(keys), cells, kind)


def _csv_counts(path, kind):
    """The counts of the csv.reader data path."""
    return GroupCounts.from_cells(*reader._records_csv(str(path)), kind)


def _audit(argv, capsys):
    code = main(argv)
    return (code, *capsys.readouterr())


def _outcome(read):
    """Counts as lists, or the error's type and message."""
    try:
        counts = read()
    except FairauditError as exc:
        return type(exc), str(exc)
    return counts.names, counts.s.tolist(), counts.m.tolist()


def _is_plain(read):
    try:
        read()
    except reader._NotPlain:
        return False
    except FairauditError:
        pass  # taken by the vectorised reader, and rejected on its merits
    return True


ROWS = "a,0,1\nb,1,0\nb,0,1\na,0,0\n"
LONG = "x" * 200_000

# (case id, data CSV bytes, whether the vectorised reader takes it)
EDGE_CASES = [
    ("nul_byte", (HEADER + "a\0b,0,1\n" + ROWS).encode(), False),
    ("bom", codecs.BOM_UTF8 + (HEADER + ROWS).encode(), False),
    ("lone_cr_line_ends", (HEADER + ROWS).replace("\n", "\r").encode(), False),
    ("lone_cr_one_line", (HEADER + "a,0,1\rb,0,0\n" + ROWS).encode(), False),
    ("lone_cr_in_a_cell", ("group,label,prediction,note\n" + "a,0,1,x\ry\n"
                           + ROWS.replace("\n", ",\n")).encode(), False),
    ("crlf", (HEADER + ROWS).replace("\n", "\r\n").encode(), True),
    ("crlf_and_lf", (HEADER + "a,1,1\r\n" + ROWS).encode(), True),
    ("no_final_newline", (HEADER + ROWS).removesuffix("\n").encode(), True),
    # An empty last cell at the end of the file: its start is the file's size.
    ("no_final_newline_empty_last_cell", (HEADER + ROWS + "b,1,").encode(), False),
    ("crlf_no_final_newline", (HEADER + ROWS).replace("\n", "\r\n")[:-2].encode(), True),
    ("empty_group_name", (HEADER + ",0,1\n,1,0\n" + ROWS).encode(), True),
    ("prefix_names", (HEADER + "ab,0,1\na ,0,0\na,0,1\nab,0,0\na ,0,1\n").encode(), True),
    ("umlaut_after_z", (HEADER + "z,0,1\nü,0,0\nüz,0,1\nzz,0,0\n").encode(), True),
    ("eight_byte_names", (HEADER + "abcdefgh,0,1\nßüßü,0,0\n" + ROWS).encode(), True),
    ("nine_byte_name", (HEADER + "abcdefghi,0,1\n" + ROWS).encode(), True),
    # Names of 2, 3 and 4 words, prefixes of each other at word boundaries.
    ("joined_names", (HEADER + "female|asian|20-30,0,1\nfemale|asian|20-3,0,0\n"
                      + "female|a,0,1\nfemale|asian|20-30,0,0\n" + "ü" * 16 + ",0,1\n"
                      + "female|asian|20-30|rural|low,0,1\n" + ROWS).encode(), True),
    ("words_differ_past_the_first", (HEADER + "abcdefghX,0,1\nabcdefghY,0,0\nabcdefgh,0,1\n"
                                     + "abcdefghX,0,1\nabcdefghXabcdefgh,0,1\n").encode(), True),
    ("thirty_two_byte_name", (HEADER + "x" * 32 + ",0,1\n" + ROWS).encode(), True),
    ("thirty_three_byte_name", (HEADER + "x" * 33 + ",0,1\n" + ROWS).encode(), False),
    ("thirty_three_byte_name_last", (HEADER + ROWS + "x" * 33 + ",0,1\n").encode(), False),
    ("header_longer_than_the_head", ("group,label,prediction," + "h" * 300_000 + "\n"
                                     + ROWS.replace("\n", ",\n")).encode(), False),
    ("thirty_two_byte_name_crlf_last_column", ("label,prediction,group\r\n0,1," + "x" * 32
                                               + "\r\n1,0,a\r\n").encode(), True),
    ("long_line_ignored_column", ("group,label,prediction,note\n" + f"a,0,1,{LONG}\n"
                                  + ROWS.replace("\n", ",\n")).encode(), False),
    ("long_line_under_the_limit", ("group,label,prediction,note\n" + f"a,0,1,{LONG[:100_000]}\n"
                                   + ROWS.replace("\n", ",\n")).encode(), True),
    ("extra_trailing_cell", (HEADER + "a,0,1,extra\n" + ROWS).encode(), False),
    # Two short lines whose commas add up to one full line.
    ("row_split_over_two_lines", ("group,label,prediction,note\n" + "a,0\n1,x\n"
                                  + ROWS.replace("\n", ",\n")).encode(), False),
    ("trailing_empty_column", ("group,label,prediction,\n" + ROWS.replace("\n", ",\n")).encode(),
     True),
    ("space_one", (HEADER + "a, 1,0\n" + ROWS).encode(), False),
    ("plus_zero", (HEADER + "a,+0,1\n" + ROWS).encode(), False),
    ("two_digit_cell", (HEADER + "a,0,01\n" + ROWS).encode(), False),
    ("cell_2", (HEADER + "a,2,1\n" + ROWS).encode(), False),
    ("blank_line", (HEADER + "a,0,1\n\n" + ROWS).encode(), False),
    ("blank_header", ("\n" + HEADER + ROWS).encode(), False),
    ("repeated_column", ("group,label,prediction,label\n" + ROWS.replace("\n", ",1\n")).encode(),
     False),
    ("missing_column", ("group,label\n" + "a,0\n").encode(), False),
    ("quoted_name", (HEADER + '"a",0,1\n' + ROWS).encode(), False),
    ("short_row", (HEADER + "a,0\n" + ROWS).encode(), False),
    ("header_only", HEADER.encode(), False),
    ("header_only_no_newline", HEADER.strip().encode(), False),
    ("invalid_utf8", (HEADER + ROWS).encode() + b"\xff,0,1\n", False),
    ("all_label_1", (HEADER + "a,1,1\nb,1,0\n").encode(), True),
    ("columns_reordered", ("prediction,group,label\n" + "1,a,0\n0,b,0\n1,b,1\n").encode(), True),
]


@pytest.mark.parametrize("kind", [SP, EO])
@pytest.mark.parametrize(
    "data, plain", [c[1:] for c in EDGE_CASES], ids=[c[0] for c in EDGE_CASES]
)
def test_edge_cases_match_the_csv_reader(tmp_path, capsys, monkeypatch, data, plain, kind):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert _is_plain(lambda: _plain_counts(path, kind)) == plain
    assert _outcome(lambda: read_audit(str(path), kind)[0]) == _outcome(
        lambda: _csv_counts(path, kind)
    )
    conf = tmp_path / "c.cfg"
    conf.write_text(f"alpha=0.5\nepsilon=0.3\neta=0\nmetric={kind.value}\n", encoding="utf-8")
    argv = ["audit", str(path), str(conf)]
    got = _audit(argv, capsys)
    monkeypatch.setattr(reader, "_plain_blocks", _not_plain)
    assert got == _audit(argv, capsys)


def test_line_over_the_field_limit_matches_the_csv_reader(tmp_path, monkeypatch):
    """A line longer than csv.field_size_limit() is not plain, and the
    csv.reader path reports its over-long field."""
    monkeypatch.chdir(tmp_path)
    path = Path("d.csv")
    path.write_bytes(("group,label,prediction,note\na,0,1," + "x" * 53 + "\n").encode())
    limit = csv.field_size_limit(40)
    try:
        assert not _is_plain(lambda: _plain_counts(path, SP))
        got = _outcome(lambda: read_audit(str(path), SP)[0])
        assert got == _outcome(lambda: _csv_counts(path, SP))
    finally:
        csv.field_size_limit(limit)
    assert got == (ConfigError, "d.csv:2: field larger than field limit (40)")


def test_long_first_name_rejected_from_the_head(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER + "x" * 33 + ",0,1\n" + ROWS * 100_000).encode())
    sizes = []

    class Reads(io.BufferedReader):
        def readinto(self, buffer):
            sizes.append(len(buffer))
            return super().readinto(buffer)

    with monkeypatch.context() as patch:
        patch.setattr(reader, "open", lambda *args: Reads(io.FileIO(*args)), raising=False)
        with pytest.raises(reader._NotPlain):
            reader._records_plain(str(path))
    assert sizes == [reader._SCAN_BYTES]  # the first block only
    assert read_audit(str(path), SP)[0].names == ("a", "b", "x" * 33)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_streams_through_csv_reader(tmp_path):
    data = (HEADER + ROWS * 20_000).encode()  # more than a pipe buffers
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    counts = read_audit(str(pipe), SP)[0]
    writer.join(timeout=10)
    assert not writer.is_alive()
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert _outcome(lambda: counts) == _outcome(lambda: read_audit(str(path), SP)[0])


@pytest.mark.parametrize("kind", [SP, EO])
def test_hash_collision_falls_back(tmp_path, monkeypatch, kind):
    """With a multiplier of 0 the hash of a two-word key is its last word."""
    monkeypatch.setattr(reader, "_MIX", np.uint64(0))
    path = tmp_path / "data.csv"
    # Hash order is the reverse of name order: the ids must be re-ranked.
    path.write_bytes((HEADER + "abcdefgh2,0,1\nzzzzzzzz1,0,0\nabcdefgh2,0,0\n").encode())
    counts = _plain_counts(path, kind)
    assert _outcome(lambda: counts) == _outcome(lambda: _csv_counts(path, kind))
    # Two names, one hash: csv.reader takes the file.
    path.write_bytes((HEADER + "abcdefgh1,0,1\nzzzzzzzz1,0,0\nabcdefgh1,0,0\n").encode())
    with pytest.raises(reader._NotPlain):
        reader._records_plain(str(path))
    assert _outcome(lambda: read_audit(str(path), kind)[0]) == _outcome(
        lambda: _csv_counts(path, kind)
    )


def _render_oracle(outcome, names):
    """The per-group f-string rendering that `_render_outcome` replaced; a
    name at which str.splitlines() breaks prints as its repr."""
    lines = [
        f"decision: {outcome.decision.value}",
        f"statistic: {outcome.statistic.f!r}",
        f"f1: {outcome.statistic.f1!r}",
        f"f2: {outcome.statistic.f2!r}",
        f"threshold: {outcome.threshold!r}",
    ]
    warn = "  (warning: fewer than 2 samples)"
    lines += [
        f"count[{name if len((name + '.').splitlines()) == 1 else repr(name)}]: "
        f"{m}{warn if m < 2 else ''}"
        for name, m in zip(names, outcome.counts.tolist())
    ]
    return "\n".join(lines)


class TestRenderOutcome:
    COUNTS = [0, 1, 2, 9, 10, 10**6]

    @staticmethod
    def _outcome(counts):
        return TestOutcome(decision=Decision.H1, statistic=EstimatorValue(f1=0.5, f2=0.125),
                           threshold=1 / 3, counts=np.asarray(counts, dtype=np.int64))

    @pytest.mark.parametrize("counts", [
        COUNTS, COUNTS[::-1], [0], [10**6], [1, 1, 1], [2, 0, 2, 0, 10**6, 9, 10, 1, 1, 0],
    ])
    def test_matches_the_per_group_render(self, counts):
        pool = ["a", "b b", " lead", "trail ", "ü", "ßüß", "日本", "x|y|z", "", "#7"]
        names = sorted(pool[i % len(pool)] + str(i) for i in range(len(counts)))
        outcome = self._outcome(counts)
        assert _render_outcome(outcome, names) == _render_oracle(outcome, names)

    def test_random_counts(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            k = int(rng.integers(1, 300))
            counts = rng.choice(self.COUNTS, k) if rng.random() < 0.5 else rng.integers(0, 5, k)
            names = [f"g {i:03d} ü" for i in range(k)]
            outcome = self._outcome(counts)
            assert _render_outcome(outcome, names) == _render_oracle(outcome, names)

    def test_names_from_the_csv_reader(self, tmp_path):
        # Names a plain file cannot hold: commas, quotes, newlines, long names.
        rows = [(name, i % 2) for i, name in enumerate(NAME_POOL) for _ in range(i % 4)]
        out = io.StringIO(newline="")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["group", "label", "prediction"])
        writer.writerows([name, 0, pred] for name, pred in rows)
        path = tmp_path / "d.csv"
        path.write_text(out.getvalue(), encoding="utf-8")
        counts = read_audit(str(path), SP)[0]
        assert _is_plain(lambda: _plain_counts(path, SP)) is False
        assert set(counts.m.tolist()) == {1, 2, 3}
        outcome = self._outcome(np.concatenate([counts.m, [0]]))
        names = counts.names + ("~",)
        assert _render_outcome(outcome, names) == _render_oracle(outcome, names)

    @pytest.mark.parametrize("pad", ["", "ü", "日"], ids=["ascii", "latin-1", "wide"])
    def test_names_with_line_breaks_and_other_controls(self, pad):
        # Each character at which str.splitlines() breaks, and controls at
        # which it does not (tab, NUL, \x1f, \x7f, \x84): alone among plain
        # names, then all together.
        breaks = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        controls = "\t\x00\x1f\x7f\x84"
        named = [f"{pad}a{c}b" for c in breaks + controls]
        for names in [[pad, name, "z"] for name in named] + [named + ["\r\n", pad, "z"]]:
            outcome = self._outcome(range(len(names)))
            out = _render_outcome(outcome, names)
            assert out == _render_oracle(outcome, names)
            assert len(out.splitlines()) == 5 + len(names)
            for m, name in enumerate(names):
                shown = repr(name) if any(c in name for c in breaks) else name
                assert f"\ncount[{shown}]: {m}" in out

    def test_no_groups(self):
        outcome = self._outcome([])
        assert _render_outcome(outcome, ()) == _render_oracle(outcome, ())


def _spy_adds(monkeypatch):
    """Counts the blocks the sorted and the hashed data paths take."""
    calls = {"_SortedKeys": 0, "_HashedCells": 0}
    for name in calls:
        cls = getattr(reader, name)

        def spy(self, *args, _original=cls.add, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, "add", spy)
    return calls


def _spy_weight_parses(monkeypatch):
    """The bytes of each cell reader's float() parses, and the number of
    weight cells in each block _plain_blocks yields."""
    parsed, sizes = [], []
    blocks = reader._plain_blocks

    def spy(path, columns):
        for text, cells in blocks(path, columns):
            sizes.append(cells[1][0].size)
            yield text, cells

    monkeypatch.setattr(reader, "_plain_blocks", spy)
    monkeypatch.setattr(reader, "float", lambda b: parsed.append(bytes(b)) or float(b),
                        raising=False)
    return parsed, sizes


def _one_parse_per_run_per_block(cells, sizes):
    """The weight cells (bytes) the sidecar reader parses: in file order, each
    that starts a run of byte-identical cells of at most 32 bytes, or starts
    a block; so at most runs + blocks of them."""
    assert sum(sizes) == len(cells)
    firsts = set(np.cumsum([0, *sizes[:-1]]).tolist())
    return [c for i, c in enumerate(cells) if i in firsts or c != cells[i - 1] or len(c) > 32]


def _csv_cells(data, columns):
    """The oracle for _plain_blocks: each named column's cells by csv.reader."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    at = [rows[0].index(name) for name in columns]
    return [[row[c] for row in rows[1:]] for c in at]


def _plain_blocks(tmp_path, data, columns):
    """_plain_blocks of a file holding `data`, each block's buffer copied
    before the next overwrites it."""
    path = tmp_path / "cells.csv"
    path.write_bytes(data)
    return [(text.copy(), cells) for text, cells in reader._plain_blocks(str(path), columns)]


def _cells_of(tmp_path, data, columns):
    """_plain_blocks' cells as strings, over all blocks."""
    got = [[] for _ in columns]
    for text, cells in _plain_blocks(tmp_path, data, columns):
        raw = text.tobytes()
        for column, (start, end) in zip(got, cells):
            column += [raw[a:b].decode("utf-8") for a, b in zip(start.tolist(), end.tolist())]
    return got


class TestPlainCellsOverBlocks:
    """Files over several _SCAN_BYTES blocks, at the real block size and at a
    tiny one that puts block edges inside every few rows, against csv.reader."""

    @staticmethod
    def _rows(rng, n, columns):
        names = ["a", "bb", "ü", "ßüß", "female|asian|20-30", "", "x" * 32]
        cells = {
            "group": rng.choice(names, n).tolist(),
            "label": rng.choice(["0", "1"], n).tolist(),
            "prediction": rng.choice(["0", "1"], n).tolist(),
            "note": rng.choice(["", "n", "nnnnnnnn"], n).tolist(),
        }
        return list(zip(*(cells[c] for c in columns)))

    @staticmethod
    def _file(columns, rows, eol="\n", open_end=False):
        text = eol.join(",".join(r) for r in [columns, *rows]) + eol
        return (text.removesuffix(eol) if open_end else text).encode("utf-8")

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("open_end", [False, True])
    def test_cells_match_the_csv_reader(self, tmp_path, monkeypatch, block, eol, open_end):
        if block:
            monkeypatch.setattr(reader, "_SCAN_BYTES", block)
        rng = np.random.default_rng(46)
        columns = ["group", "label", "prediction"]
        long = self._file(columns, self._rows(rng, 300 if block else 50_000, columns), eol,
                          open_end)
        assert len(long) > 2 * reader._SCAN_BYTES
        columns = ["note", "prediction", "group", "label"]
        short = self._file(columns, self._rows(rng, 200, columns), eol, open_end)
        for data in (long, short):
            assert (_cells_of(tmp_path, data, reader._RECORD_COLUMNS)
                    == _csv_cells(data, reader._RECORD_COLUMNS))

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("stray", [",", "\n", "\r\n", ",\n"])
    def test_a_stray_delimiter_is_not_plain(self, tmp_path, monkeypatch, block, stray):
        if block:
            monkeypatch.setattr(reader, "_SCAN_BYTES", block)
        size = reader._SCAN_BYTES
        rng = np.random.default_rng(47)
        columns = ["group", "label", "prediction"]
        data = self._file(columns, self._rows(rng, size // 4, columns))
        assert len(data) > 2 * size
        _plain_blocks(tmp_path, data, reader._RECORD_COLUMNS)
        # At the start of a line (a group cell) that ends at or after a block
        # edge, and at the start of a line in the middle of the file.
        for at in (size - 1, size, 2 * size + 1, len(data) // 2):
            cut = data.index(b"\n", at - len(stray)) + 1
            bad = data[:cut] + stray.encode() + data[cut:]
            with pytest.raises(reader._NotPlain):
                _plain_blocks(tmp_path, bad, reader._RECORD_COLUMNS)


class TestBlockEdges:
    """read_audit at tiny block sizes, which put block edges at every byte of
    a line, and at a tiny pending capacity, so that keys are folded many
    times: the block reader takes every file and agrees with csv.reader."""

    BLOCKS = [1, 2, 5, 9, 16, 23, 40]

    @staticmethod
    def _read(data, sidecar):
        """read_audit's names, counts and weights, or its error."""
        try:
            counts, w = read_audit(str(data), SP, sidecar and str(sidecar))
        except FairauditError as exc:
            return type(exc), str(exc)
        return counts.names, counts.s.tolist(), counts.m.tolist(), w and w.w

    def _check(self, tmp_path, monkeypatch, data, sidecar=None, blocks=BLOCKS):
        data_path, side_path = tmp_path / "data.csv", None
        data_path.write_bytes(data.encode("utf-8"))
        if sidecar is not None:
            side_path = tmp_path / "w.csv"
            side_path.write_bytes(sidecar.encode("utf-8"))
        with monkeypatch.context() as patch:
            patch.setattr(reader, "_plain_blocks", _not_plain)
            want = self._read(data_path, side_path)
        assert len(want) == 4  # no error
        for block in blocks:
            for pending in (3, 1 << 17):
                with monkeypatch.context() as patch:
                    patch.setattr(reader, "_SCAN_BYTES", block)
                    patch.setattr(reader, "_PENDING", pending)
                    assert _is_plain(lambda: reader._records_plain(str(data_path)))
                    if side_path:
                        assert _is_plain(lambda: reader._sidecar_plain(str(side_path)))
                    assert self._read(data_path, side_path) == want
        return want

    @pytest.mark.parametrize("eol", ["\r\n", "\n"])
    def test_crlf_and_multibyte_names(self, tmp_path, monkeypatch, eol):
        rng = np.random.default_rng(60)
        names = ["ü", "日本", "a€", "𝄞b", "z", "ßüßü"]  # of 2 to 8 bytes
        rows = [f"{rng.choice(names)},{rng.integers(2)},{rng.integers(2)}" for _ in range(80)]
        self._check(tmp_path, monkeypatch, eol.join([HEADER.strip(), *rows]) + eol)

    def test_first_long_name_after_the_first_block(self, tmp_path, monkeypatch):
        """Counts of short names, sorted and folded, then carried over to
        the hashed path when a name of 8 bytes or more first appears."""
        rng = np.random.default_rng(61)
        short = [f"{rng.choice(['a', 'bb', 'ccc', 'ü'])},{rng.integers(2)},{rng.integers(2)}\n"
                 for _ in range(20_000)]
        late = ["female|asian|20-30,0,1\n", "abcdefgh,1,1\n", "bb,0,0\n", "abcdefg,1,0\n"]
        data = HEADER + "".join(short) + "".join(late * 3)
        assert len(data) > 2 * reader._SCAN_BYTES
        with monkeypatch.context() as patch:
            calls = _spy_adds(patch)
            path = tmp_path / "d.csv"
            path.write_text(data, encoding="utf-8")
            reader._records_plain(str(path))
        assert calls["_SortedKeys"] > 1 and calls["_HashedCells"] == 1
        got = self._check(tmp_path, monkeypatch, HEADER + "".join(short[:300]) + "".join(late * 3))
        assert "female|asian|20-30" in got[0]
        self._check(tmp_path, monkeypatch, data, blocks=[reader._SCAN_BYTES])  # the real block size

    def test_sidecar_runs_and_a_repeated_group_across_edges(self, tmp_path, monkeypatch):
        """One float() per run of equal weight cells in each block, however
        the blocks cut it; a repeated group keeps the weight of its last row."""
        names = [f"g{g:02d}" for g in range(32)]
        rows = [("g05", "0.5")] + [(n, "0.03125") for n in names[:20]] + [("g07", "1")] + \
            [(n, "0.03125") for n in names[20:]] + [("g07", "0.03125")]
        sidecar = "group,weight\n" + "".join(f"{n},{w}\n" for n, w in rows)
        data = HEADER + "".join(f"{n},0,{g % 2}\n" for g, n in enumerate(names))
        assert self._check(tmp_path, monkeypatch, data, sidecar)[3] == (0.03125,) * 32
        for block in self.BLOCKS:
            with monkeypatch.context() as patch:
                patch.setattr(reader, "_SCAN_BYTES", block)
                parsed, sizes = _spy_weight_parses(patch)
                reader._sidecar_plain(str(tmp_path / "w.csv"))
            assert parsed == _one_parse_per_run_per_block([w.encode() for _, w in rows], sizes)

    @pytest.mark.parametrize("eol", ["\r\n", "\n"])
    def test_open_last_line(self, tmp_path, monkeypatch, eol):
        data = eol.join([HEADER.strip(), "a,0,1", "abcdefghij,1,0", "a,0,0", "b,1,1"])
        sidecar = eol.join(["weight,group", "0.25,a", "0.25,b", "0.5,abcdefghij"])
        assert self._check(tmp_path, monkeypatch, data, sidecar)[2] == [2, 1, 1]


class TestConstantMemory:
    """The plain path's memory does not grow with the rows of a file."""

    @staticmethod
    def _write(path, rows, names, seed=0):
        """A plain data CSV of `rows` random rows over the equally long
        `names`, built as one fixed-width byte array."""
        rng = np.random.default_rng(seed)
        width = len(names[0])
        packed = np.frombuffer("".join(names).encode(), np.uint8).reshape(len(names), width)
        line = np.empty((rows, width + 5), np.uint8)
        line[:, :width] = packed[rng.integers(0, len(names), rows)]
        line[:, width] = line[:, width + 2] = ord(",")
        line[:, width + 1] = rng.integers(ord("0"), ord("2"), rows)
        line[:, width + 3] = rng.integers(ord("0"), ord("2"), rows)
        line[:, width + 4] = ord("\n")
        path.write_bytes(HEADER.encode() + line.tobytes())

    @pytest.mark.parametrize("width", [3, 16], ids=["sorted", "hashed"])
    def test_peak_does_not_grow_with_the_rows(self, tmp_path, monkeypatch, width):
        monkeypatch.setattr(reader, "_SCAN_BYTES", 4096)
        monkeypatch.setattr(reader, "_PENDING", 2048)
        names = [f"g{g:0{width - 1}d}" for g in range(64)]
        peaks = []
        for rows in (5_000, 40_000):
            path = tmp_path / f"d{rows}.csv"
            self._write(path, rows, names)
            assert _is_plain(lambda: reader._records_plain(str(path)))
            tracemalloc.start()
            try:
                counts, _ = read_audit(str(path), SP)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert counts.m.sum() == rows
        assert peaks[1] - peaks[0] <= 16 * 1024, peaks

    @pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
    def test_a_million_rows_in_a_fresh_interpreter(self, tmp_path):
        """`fairaudit audit` of 1,000,000 rows (8 MB) peaks at most 4 MiB
        above one of 1,000 rows, each in a fresh interpreter."""
        names = [f"g{g:02d}" for g in range(64)]
        conf = tmp_path / "c.cfg"
        conf.write_text("alpha=0.5\nepsilon=0.3\nweights=empirical\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(reader.__file__).parents[1]),
                                             *filter(None, [env.get("PYTHONPATH")])])
        # A child's ru_maxrss starts from the size of the process that forked
        # it, so a small interpreter without numpy starts the audit.
        wrapper = ("import resource, subprocess, sys; "
                   "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
                   "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        kib = 1024 if sys.platform == "darwin" else 1  # the unit of ru_maxrss
        peak = {}
        for rows in (1_000, 1_000_000):
            path = tmp_path / f"d{rows}.csv"
            self._write(path, rows, names)
            out = subprocess.run([sys.executable, "-c", wrapper, sys.executable, "-m",
                                  "fairaudit.cli", "audit", str(path), str(conf)],
                                 env=env, capture_output=True, text=True, check=True).stdout
            code, maxrss = map(int, out.split())
            assert code in (0, 3)
            peak[rows] = maxrss / kib / 1024
        assert peak[1_000_000] - peak[1_000] <= 4.0, peak


def _spell(value, how):
    """A weight cell float() reads as `value`."""
    text = repr(value)
    if how == "space":
        return f" {text}"
    if how == "underscore" and text[:2] == "0." and text[2:4].isdigit():
        return f"0.{text[2]}_{text[3:]}"
    if how == "arabic_indic":  # non-ASCII digits: float() of str reads them
        return text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return text


class TestSidecarMatchesCsvReader:
    def _check(self, tmp_path, text, names, plain):
        """The audit of data naming the groups `names` against the sidecar
        `text`: its groups, counts and weights, or its error, which must be
        the same when csv.reader reads both files.  `plain`: whether the
        vectorised reader takes the sidecar."""
        path = tmp_path / "w.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _is_plain(lambda: reader._sidecar_plain(str(path))) == plain
        data = tmp_path / "data.csv"
        data.write_text(HEADER + "".join(f"{n},0,1\n" for n in names), encoding="utf-8")

        def audit():
            try:
                counts, w = read_audit(str(data), SP, str(path))
            except FairauditError as exc:
                return type(exc), str(exc)
            return counts.names, counts.m.tolist(), w.w

        fast = audit()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reader, "_plain_blocks", _not_plain)
            assert fast == audit()
        return fast

    def test_random_sidecars(self, tmp_path):
        rng = np.random.default_rng(44)
        plain_checked = 0
        for _ in range(120):
            # The sidecar's groups, of which the data names one or more.
            universe = sorted(rng.choice(PLAIN_NAMES, size=int(rng.integers(1, 8)), replace=False))
            names = sorted(rng.choice(universe, size=int(rng.integers(1, len(universe) + 1)),
                                      replace=False))
            w = rng.dirichlet(np.ones(len(universe)))
            rows = [(n, repr(float(x))) for n, x in zip(universe, w)]
            # Earlier rows of a repeated group.
            rows = [(n, repr(float(rng.random()))) for n in rng.choice(universe, 2)] + rows
            order = rng.permutation(len(rows))
            last = {n: i for i, n in enumerate(n for n, _ in (rows[j] for j in order))}
            rows = [rows[j] for j in order]
            # The last row of each group must carry its weight.
            for n, x in zip(universe, w):
                rows[last[n]] = (n, _spell(float(x), str(rng.choice(
                    ["plain", "plain", "space", "underscore", "arabic_indic"]))))
            columns = ["group", "weight"] if rng.random() < 0.7 else ["weight", "note", "group"]
            lines = [",".join(columns)]
            for n, cell in rows:
                lines.append(",".join({"group": n, "weight": cell, "note": ""}[c] for c in columns))
            text = "\n".join(lines) + "\n"
            plain = all(cell.isascii() for _, cell in rows)
            got_names, got_m, got_w = self._check(tmp_path, text, tuple(names), plain)
            assert got_names == tuple(universe)
            assert got_m == [int(n in names) for n in universe]
            assert got_w == pytest.approx(tuple(float(x) for x in w), rel=1e-12, abs=0)
            plain_checked += plain
        assert plain_checked >= 40

    @pytest.mark.parametrize(
        "text, plain",
        [
            ("group,weight\na,1_0\nb,0\na,0.5\nb, 0.5\n", True),
            ("group,weight\na,0.5\nb,\u0661\nb,0.5\n", False),
            ("group,weight\na,0.5\nb,0.5\nc,nan\n", True),
            ("group,weight\na,nan\nb,0.5\n", True),
            ("group,weight\na,inf\nb,0.5\n", True),
            ("group,weight\na,-inf\nb,0.5\n", True),
            ("group,weight\na,0.25\nb,0.5\n", True),
            ("group,weight\na,0.5\nb,abc\n", False),
            ("group,weight\na,0.5\n", True),
            ("group,weight\n\na,0.5\nb,0.5\n", False),
            ("group,weight\r\na,0.5\r\nb,0.5", True),
            ('group,weight\n"a",0.5\nb,0.5\n', False),
            ("weight,group\n0.5,a\n0.5,b\n0.5\n", False),
        ],
    )
    def test_spellings_and_errors(self, tmp_path, text, plain):
        self._check(tmp_path, text, ("a", "b"), plain)

    def test_joined_names_match_word_by_word(self, tmp_path):
        names = ("b", "female|asian|20-3", "female|asian|20-30")
        text = ("group,weight\nfemale|asian|20-30,0.75\nfemale|asian|20-3,0.5\nb,0.25\n"
                "female|asian|20-30,0.25\nfemale|asian|20-30|x,0\n")
        assert self._check(tmp_path, text, names, True) == (
            names + ("female|asian|20-30|x",), [1, 1, 1, 0], (0.25, 0.5, 0.25, 0.0))
        # Sidecar names of one word, data names of three, and back.
        self._check(tmp_path, "group,weight\nb,0.5\nc,0.5\n", names, True)
        assert self._check(tmp_path, "group,weight\nb,0.5\nc,0.25\nfemale|asian|20-30,0.25\n",
                           names, True)[0] is ConfigError  # as many groups, not the same
        self._check(tmp_path, text, ("b", "c"), True)
        self._check(tmp_path, text, ("b", "female|asian|20-31"), True)

    def test_long_data_names_fall_back(self, tmp_path):
        """Data that csv.reader reads joins a plain sidecar by names."""
        long = "x" * 33
        self._check(tmp_path, f"group,weight\n{long},0.5\nb,0.5\n", ("b", long), False)
        self._check(tmp_path, "group,weight\na,0.5\nb,0.5\n", ("a", long), True)
        self._check(tmp_path, "group,weight\na,0.5\nb,0.5\n", ("a", "b\0"), True)

    # Weight columns of up to 16384 rows, read by the plain path with one
    # float() per run of byte-identical adjacent cells in each block.

    @staticmethod
    def _bits(read):
        """The float64 bits a reader returns, or its error."""
        try:
            return np.asarray(read(), np.float64).view(np.uint64).tolist()
        except FairauditError as exc:
            return type(exc), str(exc)

    def _check_column(self, tmp_path, monkeypatch, cells, plain, *, crlf=False, final_newline=True,
                      weight_first=False, seed=0):
        """A sidecar of one row per weight cell, under distinct names in random
        order; checks the plain path's bits (or error) and _is_plain against
        _sidecar_csv, and the runs it parses.  Returns the bits or error."""
        rng = np.random.default_rng(seed)
        names = [f"g{g:05d}" for g in rng.permutation(len(cells))]
        rows = [f"{c},{n}" if weight_first else f"{n},{c}" for n, c in zip(names, cells)]
        header = "weight,group" if weight_first else "group,weight"
        end = "\r\n" if crlf else "\n"
        text = end.join([header, *rows]) + (end if final_newline else "")
        path = tmp_path / "w.csv"
        path.write_bytes(text.encode("utf-8"))
        with monkeypatch.context() as patch:
            parsed, sizes = _spy_weight_parses(patch)
            assert _is_plain(lambda: reader._sidecar_plain(str(path))) == plain

        def either():
            try:
                return reader._sidecar_plain(str(path))[1]
            except reader._NotPlain:
                return reader._sidecar_csv(str(path))[1]

        got = self._bits(either)
        assert got == self._bits(lambda: reader._sidecar_csv(str(path))[1])
        if plain:  # one float() per run per block, on the first cell's bytes
            assert parsed == _one_parse_per_run_per_block([c.encode() for c in cells], sizes)
        return got

    @staticmethod
    def _runs(rng, values, rows, mean):
        """`rows` cells in runs of random lengths (geometric, mean `mean`),
        each run a random one of `values`."""
        cells = []
        while len(cells) < rows:
            cells += [values[int(rng.integers(len(values)))]] * int(rng.geometric(1 / mean))
        return cells[:rows]

    @pytest.mark.parametrize("crlf, final_newline", [(False, True), (True, True), (False, False),
                                                     (True, False)])
    def test_long_runs_shuffled_repeats_and_distinct_cells(self, tmp_path, monkeypatch, crlf,
                                                           final_newline):
        rng = np.random.default_rng(50)
        k = 16384
        dirichlet = [repr(float(x)) for x in rng.dirichlet(np.ones(k))]
        strata = [repr(float(x)) for x in rng.dirichlet(np.ones(5))] + ["0.5", "0.25", "1e-3"]
        columns = [
            [repr(1.0 / k)] * k,  # the benchmark's sidecar
            self._runs(rng, strata, k, 2000.0),
            self._runs(rng, strata, k, 1.5),
            list(rng.choice(strata, k)),  # shuffled repeats
            dirichlet,  # all distinct
            ["%.6f" % float(x) for x in rng.dirichlet(np.ones(k))],
        ]
        for i, cells in enumerate(columns):
            self._check_column(tmp_path, monkeypatch, cells, True, crlf=crlf,
                               final_newline=final_newline, weight_first=bool(i % 2), seed=i)

    @pytest.mark.parametrize("size", [1, 3, 7, 8, 9, 16, 17, 32, 33, 40])
    def test_neighbours_that_differ_in_one_byte(self, tmp_path, monkeypatch, size):
        """Cells of one length that differ only in their first, middle or
        last byte, in runs; on either side of each word boundary."""
        base = ("1." + "2" * (size - 2))[:size]
        variants = [base]
        for at in (0, size // 2, size - 1):
            if base[at] != ".":
                variants.append(base[:at] + "3" + base[at + 1 :])
        variants = list(dict.fromkeys(variants))
        rng = np.random.default_rng(size)
        for mean in (1.2, 4.0, 300.0):
            cells = self._runs(rng, variants, 4096, mean)
            self._check_column(tmp_path, monkeypatch, cells, True, weight_first=mean > 2,
                               seed=size)
        # Every cell differs from its neighbours by one byte.
        alternating = [base if i % 2 == 0 else variants[1 + i // 2 % (len(variants) - 1)]
                       for i in range(4096)]
        self._check_column(tmp_path, monkeypatch, alternating, True, crlf=True)

    def test_same_as_previous_matches_the_bytes(self, tmp_path):
        rng = np.random.default_rng(51)
        pool = ["", "1", "12", "0.5", "0.25", "1.22222", "1.2222222", "1.32222222",
                "1.22222223", "2.22222222", "6.103515625e-05", "0.0001220703125", "1" * 32,
                "1" * 31 + "2", "1" * 33, "1" * 32 + "2", "2" + "1" * 39]
        # Cells of whole words and one byte past them, each beside a shorter
        # cell that is its prefix, and beside a copy of itself.
        edges = [c for n in (8, 16, 24, 32, 33) for c in ("1" * n, "1" * (n - 1), "1" * n,
                                                          "1" * n, "2" * (n - 3), "1" * n)]
        for i in range(41):
            cells = edges if i == 40 else self._runs(
                rng, pool, int(rng.integers(1, 300)), float(rng.uniform(1, 6)))
            data = ("group,weight\n" + "".join(f"g,{c}\n" for c in cells)).encode()
            ((text, (_, weight)),) = _plain_blocks(tmp_path, data, reader._SIDECAR_COLUMNS)
            same = [i > 0 and c == cells[i - 1] and len(c) <= 32 for i, c in enumerate(cells)]
            assert reader._same_as_previous(text, *weight).tolist() == same

    def test_non_ascii_cells_in_runs(self, tmp_path, monkeypatch):
        arabic = _spell(0.25, "arabic_indic")
        run = ["0.25"] * 300
        for cells in (run[:100] + [arabic] + run[100:],  # inside an ASCII run
                      run + [arabic] * 50 + run,         # a run of its own
                      [arabic] * 20 + run):
            assert self._check_column(tmp_path, monkeypatch, cells, False) == \
                [int(np.float64(0.25).view(np.uint64))] * len(cells)

    def test_bad_cell_keeps_its_error_and_line(self, tmp_path, monkeypatch):
        good = "6.103515625e-05"
        bad = "6.103515625e-0x"  # as long as its neighbours, and equal to them but for its end
        cases = [
            ([good] * 40 + [bad] * 30 + [good] * 10, 42),  # the start of a run
            ([good] * 40 + [bad] + [good] * 10, 42),        # inside a run of good cells
            ([bad] * 5, 2),
            ([good] * 3 + [""] * 4 + [good], 5),            # empty cells
            ([good] * 10 + ["abc"] * 2 + [good] + ["abc"], 12),
        ]
        for cells, line in cases:
            path = tmp_path / "w.csv"
            got = self._check_column(tmp_path, monkeypatch, cells, False)
            cell = cells[line - 2]
            assert got == (ConfigError,
                           f"{path}:{line}: bad row (could not convert string to float: {cell!r})")


# Characters of 1 to 4 UTF-8 bytes, control bytes equal to a row's 2-bit
# pattern among them, for names around the 7-byte limit of the sorted path.
SHORT_NAME_CHARS = ["a", "b", "z", "|", " ", "-", "0", "\x01", "\x03", "ü", "€", "𝄞"]


def _short_name(rng, size):
    """A random name of exactly `size` UTF-8 bytes."""
    name = ""
    while len(name.encode()) < size:
        c = SHORT_NAME_CHARS[int(rng.integers(len(SHORT_NAME_CHARS)))]
        name += c if len((name + c).encode()) <= size else "a"
    return name


class TestSortedCountsMatchCsvReader:
    """Names of at most 7 bytes are counted by one sort of packed keys that
    carry the row's (label, prediction) bits in their low byte; longer names
    by the hashed argsort.  Both must agree with the csv.reader path."""

    def _check(self, tmp_path, capsys, monkeypatch, text, kind, sidecar=None):
        """Counts, stdout, stderr and exit code of both paths; returns the counts."""
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        names = {line.split(",")[0] for line in text.splitlines()[1:]}
        sorted_path = max(len(n.encode()) for n in names) <= 7
        with monkeypatch.context() as patch:
            calls = _spy_adds(patch)
            fast = _outcome(lambda: _plain_counts(path, kind))
            assert calls == {"_SortedKeys": int(sorted_path), "_HashedCells": int(not sorted_path)}
        assert fast == _outcome(lambda: _csv_counts(path, kind))
        conf = tmp_path / "c.cfg"
        weights = "uniform"
        if sidecar is not None:
            weights = tmp_path / "w.csv"
            weights.write_text(sidecar, encoding="utf-8")
        conf.write_text(f"alpha=0.5\nepsilon=0.3\neta=0\nmetric={kind.value}\n"
                        f"weights={weights}\n", encoding="utf-8")
        argv = ["audit", str(path), str(conf)]
        got = _audit(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(reader, "_plain_blocks", _not_plain)
            assert got == _audit(argv, capsys)
        return fast

    @pytest.mark.parametrize("kind", [SP, EO])
    def test_random_short_names(self, tmp_path, capsys, monkeypatch, kind):
        rng = np.random.default_rng(46 if kind is SP else 47)
        seen = set()
        for _ in range(120):
            longest = int(rng.integers(0, 9))  # across the 7/8-byte switch
            k = int(rng.integers(1, 12))
            names = {_short_name(rng, int(rng.integers(0, longest + 1))) for _ in range(k)}
            rows = []
            for name in names:
                n0 = int(rng.integers(0, 4)) if rng.random() < 0.7 else 0  # label-1 only groups
                n1 = int(rng.integers(0 if n0 else 1, 4))
                rows += [(name, 0, int(rng.integers(0, 2))) for _ in range(n0)]
                rows += [(name, 1, int(rng.integers(0, 2))) for _ in range(n1)]
            rng.shuffle(rows)
            text = HEADER + "".join(f"{n},{y},{yh}\n" for n, y, yh in rows)
            sidecar = None
            if rng.random() < 0.5:
                sidecar = "group,weight\n" + "".join(f"{n},{1 / len(names)!r}\n" for n in names)
            got = self._check(tmp_path, capsys, monkeypatch, text, kind, sidecar)
            seen.add((max(len(n.encode()) for n in names) <= 7, got[0] is EmptyAfterConditioning))
            if kind is EO and got[0] is not EmptyAfterConditioning:
                label_1_only = {n for n, y, _ in rows} - {n for n, y, _ in rows if y == 0}
                assert {got[0][g] for g, m in enumerate(got[2]) if m == 0} == label_1_only
        assert {(True, False), (False, False)} <= seen
        if kind is EO:
            assert (True, True) in seen

    @pytest.mark.parametrize("kind", [SP, EO])
    @pytest.mark.parametrize("rows, label_0", [
        ("a,0,1\n", True),
        ("\x01,1,1\n", False),
        (",0,0\n", True),
        ("abcdefg,0,1\n", True),
        ("ü€,1,0\n", False),
        ("abcdefgh,0,1\n", True),
        ("g,0,1\ng,1,1\ng,0,0\ng,1,0\ng,0,1\n", True),
        ("gggggg€,1,1\ngggggg€,1,0\n", False),
    ], ids=["one_row", "control_byte_name", "empty_name", "seven_bytes", "non_ascii",
            "eight_bytes", "one_group", "one_group_label_1"])
    def test_single_row_and_single_group(self, tmp_path, capsys, monkeypatch, rows, label_0,
                                         kind):
        got = self._check(tmp_path, capsys, monkeypatch, HEADER + rows, kind)
        if kind is EO and not label_0:
            assert got == (EmptyAfterConditioning, "no records with label 0")
        else:
            assert len(got[0]) == 1

    def test_tail_bits_stay_out_of_names(self, tmp_path, capsys, monkeypatch):
        # 7-byte names whose last byte is itself a pattern value, next to
        # their 6-byte prefix.  Name i has the patterns i % 4 to 3, so the
        # first run of most names carries non-zero bits: a name must never
        # take them, nor another name's rows.
        names = ["abcdef", "abcdef\x01", "abcdef\x02", "abcdef\x03", "\x03" * 7]
        rows = [(n, p >> 1, p & 1) for i, n in enumerate(names) for p in range(i % 4, 4)
                for _ in range(1 + i)]
        text = HEADER + "".join(f"{n},{y},{yh}\n" for n, y, yh in rows)
        for kind in (SP, EO):
            got = self._check(tmp_path, capsys, monkeypatch, text, kind)
            assert got[0] == tuple(sorted(names))
            if kind is SP:
                assert got[2] == [20, 4, 6, 6, 4]
            else:  # the names with patterns 2 and 3 alone are kept with m = 0
                assert got[2] == [10, 2, 2, 0, 0]

    @pytest.mark.parametrize("names", [["g1", "g22", "ü"], ["abcdefghi", "b"],
                                       ["female|asian|20-30|north-west", "a"]],
                             ids=["one_word", "two_words", "four_words"])
    def test_audit_sidecar_takes_the_data_keys(self, tmp_path, capsys, monkeypatch, names):
        """The audit matches a plain sidecar to plain data by their sorted
        packed keys, and decodes the names once; data that csv.reader reads
        joins the sidecar by names."""
        data = tmp_path / "data.csv"
        data.write_text(HEADER + "".join(f"{n},0,{i % 2}\n" for i, n in enumerate(names)),
                        encoding="utf-8")
        weights = tmp_path / "w.csv"
        weights.write_text("group,weight\n" + "".join(f"{n},{1 / len(names)!r}\n"
                                                      for n in names), encoding="utf-8")
        conf = tmp_path / "c.cfg"
        conf.write_text(f"alpha=0.5\nepsilon=0.3\neta=0\nweights={weights}\n", encoding="utf-8")
        argv = ["audit", str(data), str(conf)]
        want = _audit(argv, capsys)
        assert want[0] in (0, 3)

        calls = []
        with monkeypatch.context() as patch:
            for name in ("_key_positions", "_key_names"):
                def spy(*args, _original=getattr(reader, name), _name=name):
                    calls.append(_name)
                    return _original(*args)

                patch.setattr(reader, name, spy)
            assert _audit(argv, capsys) == want
            assert calls == ["_key_names", "_key_positions"]
            # A quoted name sends the data through csv.reader; the sidecar stays plain.
            data.write_text(HEADER + "".join(f'"{n}",0,{i % 2}\n' for i, n in enumerate(names)),
                            encoding="utf-8")
            calls.clear()
            assert _audit(argv, capsys) == want
            assert calls == ["_key_names"]


def _load_bench_inputs():
    """bench/inputs.py, the benchmark's seeded input generator."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("fairaudit_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_audit_input_same_on_both_paths(tmp_path, capsys, monkeypatch):
    expect = _load_bench_inputs().generate("audit_eo_wide", 1, tmp_path)
    reader._records_plain(str(tmp_path / "data.csv"))  # the vectorised reader
    reader._sidecar_plain(str(tmp_path / "weights.csv"))  # takes both files
    fast = _audit(expect["argv"], capsys)
    assert fast[0] == expect["exit_code"]
    monkeypatch.setattr(reader, "_plain_blocks", _not_plain)
    assert _audit(expect["argv"], capsys) == fast
