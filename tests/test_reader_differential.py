"""A seeded differential fuzz of `read_audit` against its csv.reader path.

Each case draws a small data CSV and, in most cases, a weight sidecar.  A
file is drawn plain, or with one or two deviations that make it not plain
(see `reader._plain_blocks`).  The draws cover LF and CRLF line ends, open
last lines, empty last cells, names of 0 to 33 bytes (multi-byte ones
too, and prefixes of each other), extra columns, and sidecars with runs of
equal weight cells and repeated groups.  `read_audit` reads each case at a
random `_SCAN_BYTES` and `_PENDING`.  It must give what the csv.reader path
alone gives (`_plain_blocks` declining every file) on the names, the counts,
the weight bits, and the error's type and text.  Each block reader must take
exactly the files drawn plain.

Tier-1 runs CASES = 400 cases in 1.2-1.9 s of test time on a 2-vCPU machine,
with or without `python -X dev`.  For a longer run:

    PYTHONPATH=src python tests/test_reader_differential.py [cases] [seed]
"""

import contextlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from fairaudit import reader
from fairaudit.core import MetricKind
from fairaudit.errors import FairauditError

CASES = 400
SEED = 31
SCAN_BYTES = [1, 2, 7, 8, 9, 16, 31, 64, 65536]
PENDING = [1, 2, 3, 5, 8, 64, 1 << 17]

# Characters of 1 to 4 UTF-8 bytes that a plain cell may hold.
CHARS = ["a", "b", "z", "0", "|", "-", " ", "ü", "ß", "日", "€", "𝄞"]
EXTRA_CELLS = ["", "n", "xyz", "1.5", "ü"]
# Weight cells that float() reads the same from bytes and from str.
WEIGHT_FORMS = [repr, lambda x: f"{x:.17g}", lambda x: f"{x:.17e}", lambda x: f" {x!r}"]
# Deviations that make a file not plain.
DATA_DEVIATIONS = ["quoted_cell", "blank_line", "long_name", "lenient_bit", "bom", "lone_cr",
                   "trailing_cell", "repeated_column", "missing_column", "no_rows", "bad_utf8",
                   "nul", "bad_bit", "short_row", "empty_last_bit"]
SIDECAR_DEVIATIONS = ["quoted_cell", "blank_line", "long_name", "bad_weight", "empty_weight",
                      "arabic_digits", "bom", "trailing_cell"]


def _name(rng, size):
    """A random name of at most `size` UTF-8 bytes, and exactly `size` where
    the characters allow."""
    out, left = "", size
    while left:
        fits = [c for c in CHARS if len(c.encode()) <= left]
        c = fits[int(rng.integers(len(fits)))]
        out += c
        left -= len(c.encode())
    return out


def _long(name):
    """Whether a name is too long for a plain file (over 32 bytes)."""
    return len(name.encode()) > 32


def _names(rng, k, long_name):
    """k distinct names of 0 to 32 bytes, some prefixes of others; with
    `long_name`, one of 33 bytes."""
    names = set()
    while len(names) < k:
        if names and rng.random() < 0.3:  # a prefix of a name drawn before
            base = sorted(names)[int(rng.integers(len(names)))]
            names.add(base[: int(rng.integers(len(base) + 1))])
        else:
            names.add(_name(rng, int(rng.choice([0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32]))))
    names = sorted(names)
    if long_name:
        names[int(rng.integers(k))] = _name(rng, 33) if rng.random() < 0.5 else "x" * 33
    return names


def _lines(rng, header, rows, deviations):
    """The text of a CSV from its header and rows (lists of cells), with
    the line-level deviations among `deviations` applied."""
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    if "lone_cr" in deviations:
        eol = "\r"
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if "blank_line" in deviations:
        lines.insert(int(rng.integers(1, len(lines) + 1)), "")
    text = eol.join(lines) + eol
    if rng.random() < 0.3 and lines[-1]:
        text = text.removesuffix(eol)  # an open last line
    if "bom" in deviations:
        text = "\ufeff" + text
    return text


def _deviations(rng, pool):
    """No deviation (a plain file) half of the time, else one or two of `pool`."""
    if rng.random() < 0.5:
        return set()
    return {str(d) for d in rng.choice(pool, size=int(rng.integers(1, 3)), replace=False)}


def _columns(rng, required):
    """The header: the required columns and up to two extra ones, shuffled."""
    columns = list(required) + ["note", "score"][: int(rng.integers(0, 3))]
    return [columns[i] for i in rng.permutation(len(columns))]


def _quote_one(rng, rows, col):
    row = rows[int(rng.integers(len(rows)))]
    row[col] = '"' + row[col] + '"'


def _data_file(rng, names, deviations):
    """The bytes of a data CSV over `names`."""
    header = _columns(rng, reader._RECORD_COLUMNS)
    at = {c: header.index(c) for c in header}
    rows = []
    for _ in range(0 if "no_rows" in deviations else int(rng.integers(1, 13))):
        cells = {"group": names[int(rng.integers(len(names)))],
                 "label": str(rng.integers(2)), "prediction": str(rng.integers(2)),
                 "note": str(rng.choice(EXTRA_CELLS)), "score": repr(float(rng.random()))}
        rows.append([cells[c] for c in header])
    if rows and rng.random() < 0.3:  # an empty last cell, where that is plain
        last = header[-1]
        if last in ("group", "note", "score"):
            rows[-1][-1] = ""
    if rows:
        pick = lambda: rows[int(rng.integers(len(rows)))]  # noqa: E731
        bit = at[str(rng.choice(["label", "prediction"]))]
        if "long_name" in deviations:
            pick()[at["group"]] = next(filter(_long, names))
        if "quoted_cell" in deviations:
            _quote_one(rng, rows, at["group"])
        if "lenient_bit" in deviations:
            pick()[bit] = str(rng.choice([" 1", "+0", "00", "1 "]))
        if "bad_bit" in deviations:
            pick()[bit] = str(rng.choice(["2", "x", "-1"]))
        if "empty_last_bit" in deviations:
            rows[-1][bit] = ""
        if "trailing_cell" in deviations:
            pick().append("extra")
        if "nul" in deviations:
            pick()[at["group"]] += "\0"
        if "short_row" in deviations:
            del pick()[-2:]  # short even if it took the trailing cell
    if "repeated_column" in deviations:
        header = header + [str(rng.choice(header))]
        for row in rows:
            row.append(str(rng.integers(2)))
    if "missing_column" in deviations:  # every copy of it
        gone = str(rng.choice(reader._RECORD_COLUMNS))
        keep = [i for i, c in enumerate(header) if c != gone]
        header = [header[i] for i in keep]
        rows = [[row[i] for i in keep if i < len(row)] for row in rows]
    data = _lines(rng, header, rows, deviations).encode()
    if "bad_utf8" in deviations:
        cut = data.rindex(b",") if rows else len(data)
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _weights(rng, k):
    """k weights that sum to 1 within GroupWeights' tolerance, with few
    distinct values most of the time."""
    shape = rng.random()
    if shape < 0.4:
        return [1.0 / k] * k
    if shape < 0.7:  # two strata, in runs
        heavy = int(rng.integers(0, k + 1))
        if heavy in (0, k):
            return [1.0 / k] * k
        return [0.5 / heavy] * heavy + [0.5 / (k - heavy)] * (k - heavy)
    return rng.dirichlet(np.ones(k)).tolist()


def _sidecar_file(rng, names, deviations):
    """The bytes of a weight sidecar over most of `names`, some listed twice."""
    listed = list(names)
    if len(listed) > 1 and rng.random() < 0.1:  # a data group without a weight
        listed.remove(str(rng.choice([n for n in listed if not _long(n)])))
    if rng.random() < 0.2:
        listed.append(_name(rng, int(rng.integers(0, 9))) + "~")  # a group without data
    listed = sorted(set(listed)) if rng.random() < 0.5 else [listed[i] for i in
                                                             rng.permutation(len(listed))]
    if "long_name" in deviations and not any(map(_long, listed)):
        listed[int(rng.integers(len(listed)))] = "y" * 33
    form = WEIGHT_FORMS[int(rng.integers(len(WEIGHT_FORMS)))]
    header = _columns(rng, reader._SIDECAR_COLUMNS)
    rows = []
    for name, weight in zip(listed, _weights(rng, len(listed))):
        cells = {"group": name, "weight": form(weight), "note": str(rng.choice(EXTRA_CELLS)),
                 "score": "0"}
        row = [cells[c] for c in header]
        if rng.random() < 0.15:  # an earlier row of the group, which the last one overrides
            early = list(row)
            early[header.index("weight")] = str(rng.choice(["9", "0.125", "0"]))
            rows.append(early)
        rows.append(row)
    wi = header.index("weight")
    if "quoted_cell" in deviations:
        _quote_one(rng, rows, header.index("group"))
    if "bad_weight" in deviations:
        rows[int(rng.integers(len(rows)))][wi] = str(rng.choice(["abc", "1/2", "0x1"]))
    if "empty_weight" in deviations:
        rows[int(rng.integers(len(rows)))][wi] = ""
    if "arabic_digits" in deviations:  # str() reads them, bytes do not
        rows[int(rng.integers(len(rows)))][wi] = "٠.٥"
    if "trailing_cell" in deviations:
        rows[int(rng.integers(len(rows)))].append("extra")
    return _lines(rng, header, rows, deviations).encode()


def _read(data, sidecar, metric):
    """read_audit's names, counts and weight bits, or its error's type and text."""
    try:
        counts, w = reader.read_audit(str(data), metric, sidecar and str(sidecar))
    except FairauditError as exc:
        return type(exc).__name__, str(exc)
    return (counts.names, counts.s.tolist(), counts.m.tolist(),
            w and [x.hex() for x in w.as_array().tolist()])


def _takes(read, path):
    """Whether the block reader `read` takes the file."""
    try:
        read(str(path))
    except reader._NotPlain:
        return False
    return True


@contextlib.contextmanager
def _reader_set(**values):
    """The reader module's attributes set to `values`, then restored."""
    old = {name: getattr(reader, name) for name in values}
    for name, value in values.items():
        setattr(reader, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(reader, name, value)


def _decline(*args):
    raise reader._NotPlain


def run_case(rng, directory):
    """Draw one case and check it; returns whether the data and the sidecar
    were drawn plain (None without a sidecar)."""
    data_dev = _deviations(rng, DATA_DEVIATIONS)
    names = _names(rng, int(rng.integers(1, 7)), "long_name" in data_dev)
    data = directory / "d.csv"
    data.write_bytes(_data_file(rng, names, data_dev))
    side, side_dev = None, None
    if rng.random() < 0.7:
        side_dev = _deviations(rng, SIDECAR_DEVIATIONS)
        if any(map(_long, names)):  # the sidecar lists the data's long name
            side_dev.add("long_name")
        side = directory / "w.csv"
        side.write_bytes(_sidecar_file(rng, names, side_dev))
    metric = MetricKind.EQUAL_OPPORTUNITY if rng.random() < 0.3 else MetricKind.STATISTICAL_PARITY
    with _reader_set(_plain_blocks=_decline):
        want = _read(data, side, metric)
    scan, pending = int(rng.choice(SCAN_BYTES)), int(rng.choice(PENDING))
    with _reader_set(_SCAN_BYTES=scan, _PENDING=pending):
        got = _read(data, side, metric)
        plain = (_takes(reader._records_plain, data), side and _takes(reader._sidecar_plain, side))
    where = (f"_SCAN_BYTES={scan}, _PENDING={pending}, data {sorted(data_dev)} "
             f"{data.read_bytes()!r}") + (f", sidecar {sorted(side_dev)} {side.read_bytes()!r}"
                                          if side else "")
    assert got == want, where
    drawn = (not data_dev, side and not side_dev)
    assert plain == drawn, where
    return drawn


def test_read_audit_matches_the_csv_reader(tmp_path):
    rng = np.random.default_rng(SEED)
    drawn = [run_case(rng, tmp_path) for _ in range(CASES)]
    # Both kinds of each file are drawn often.
    for plain_data, plain_side in [(True, None), (False, None), (True, True), (True, False),
                                   (False, True)]:
        assert drawn.count((plain_data, plain_side)) >= CASES // 20


if __name__ == "__main__":
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else CASES
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else SEED
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as directory:
        for _ in range(cases):
            run_case(rng, Path(directory))
    print(f"{cases} cases agree (seed {seed})")
