"""Command-line front end: audits on CSV data, synthetic data generation,
Monte Carlo sweeps, and bound reports.

Input data is UTF-8 CSV with header columns `group,label,prediction` (group
is an arbitrary string; intersectional groups should be pre-joined by the
user, e.g. "female|asian|20-30").  The audit reduces it in one pass to
per-group counts.  Group weights come from a flat key-value config file:
uniform, empirical (sample proportions), or an explicit sidecar CSV
`group,weight`.

Exit codes are the machine contract: 0 = H0 (no violation detected),
3 = H1 (violation detected), >= 64 = error.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import _MAX_COUNT, GroupCounts, GroupWeights, MetricKind
from .cvar_test import TestConfig, TestOutcome, run_test_dataset
from .errors import ConfigError, FairauditError, shown_groups
from .sampling import OPTIMAL_ETA, AttributeSpecificPlan, WeightedPlan, weighted_marginal
from .simulator import (
    Experiment,
    SweepPoint,
    threshold_sweep,
    write_manifest,
    write_sweep_csv,
)

EXIT_H0 = 0
EXIT_H1 = 3
EXIT_USAGE = 64
EXIT_DATA = 65


# A '#' starts a comment at the start of a line or after whitespace, so
# values such as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")
# Fast path for 0/1 cells; anything else goes through int() (so " 1" and
# "+0" are accepted) and a range check.
_BITS = {"0": 0, "1": 1}
_RECORD_COLUMNS = ("group", "label", "prediction")
_SIDECAR_COLUMNS = ("group", "weight")
# The config keys each subcommand reads; any other key is an error.
_AUDIT_KEYS = frozenset("alpha epsilon metric plan budget eta gamma weights".split())
_SIMULATE_KEYS = frozenset(
    "k alpha epsilon n_grid trials base_seed target instance plan eta gamma".split()
)


def read_config(path: str, keys: frozenset[str]) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment.

    A key outside `keys`, or a key given twice, is a ConfigError that names
    its line.  A leading UTF-8 BOM, as some editors write, is skipped.
    """
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated (first on line {first[key]})")
        first[key] = lineno
        out[key] = value
    return out


_REQUIRED = object()


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


_EXPECTED = {int: "an integer", float: "a number", _int_list: "comma-separated integers"}


def _setting(conf: dict[str, str], path: str, key: str, parse, default=_REQUIRED):
    """conf[key] read by `parse` (int, float or _int_list), or `default` when absent.

    A missing required key, a value `parse` rejects, or a float that is NaN or
    infinite is a ConfigError that names the file and the key.
    """
    if key not in conf:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing key {key!r}")
        return default
    try:
        value = parse(conf[key])
    except ValueError:
        raise ConfigError(
            f"{path}: {key} must be {_EXPECTED[parse]}, got {conf[key]!r}"
        ) from None
    if parse is float and not math.isfinite(value):
        raise ConfigError(f"{path}: {key} must be a finite number, got {conf[key]!r}")
    return value


def _check_ranges(conf: dict[str, str], path: str, ranges) -> None:
    """A ConfigError that names the file and the first key out of its range.

    `ranges` holds (key, value, test, rule) quadruples; a value of None, such
    as a setting the chosen plan does not use, is not checked.
    """
    for key, value, test, rule in ranges:
        if value is not None and not test(value):
            raise ConfigError(f"{path}: {key} must be {rule}, got {conf.get(key, value)!r}")


def _whole_block(n: int, gamma: float) -> bool:
    """Whether n / gamma is a block AttributeSpecificPlan takes: a whole
    number (to within 1e-9) of 1 to _MAX_COUNT samples."""
    block = n / gamma
    return math.isfinite(block) and abs(block - round(block)) <= 1e-9 and (
        1 <= round(block) <= _MAX_COUNT
    )


def _choice(conf: dict[str, str], path: str, key: str, choices: tuple[str, ...]) -> str:
    """conf[key], choices[0] when absent; any other value is a ConfigError."""
    value = conf.get(key, choices[0])
    if value not in choices:
        raise ConfigError(
            f"{path}: {key} must be one of {', '.join(map(repr, choices))}, got {value!r}"
        )
    return value


@contextmanager
def _csv_columns(path: str, columns: tuple[str, ...]):
    """Open a UTF-8 CSV, skipping a leading BOM; yields its reader, past the
    header, and the positions of the named columns (the last one where a name
    repeats, as in csv.DictReader).  Undecodable or unparsable input becomes a
    ConfigError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty file")
            pos = {name: i for i, name in enumerate(header)}
            missing = set(columns) - pos.keys()
            if missing:
                raise ConfigError(f"{path}: missing columns {sorted(missing)}")
            yield reader, [pos[name] for name in columns]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
        except csv.Error as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc


def _bad_row(path: str, lineno: int, row: list[str], exc: Exception) -> ConfigError:
    reason = f"too few fields: {len(row)}" if isinstance(exc, IndexError) else exc
    return ConfigError(f"{path}:{lineno}: bad row ({reason})")


def _bit(cell: str, column: str) -> int:
    value = int(cell)
    if value not in (0, 1):
        raise ValueError(f"{column} must be 0 or 1, got {value}")
    return value


# --- The vectorised reader for plain CSVs -----------------------------------
#
# The csv module parses a plain CSV exactly as splitting its lines on "," does,
# so such a file can be reduced with whole-array numpy operations.  Anything
# else raises _NotPlain and goes through csv.reader, which streams the file
# and gives every error message; so the two paths agree on every input.

# A packed group name: its UTF-8 bytes in big-endian uint64 words, NUL-padded,
# one array per word.  With NUL bytes excluded, the word tuples sort as the
# names do (UTF-8 byte order is code point order, and a prefix packs to the
# smaller tuple).  Names of up to _KEY_WORDS words are packed, which covers
# pre-joined intersectional names such as "female|asian|20-30".
_WORD = 8
_KEY_WORDS = 4
_SCAN_BYTES = 1 << 18
# An odd multiplier for hashing key words (the 64-bit golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)
_COMMA, _LF, _CR, _ZERO = b",\n\r0"


class _NotPlain(Exception):
    """The input needs csv.reader: the vectorised reader does not cover it."""


def _plain_header(data: bytes, columns: tuple[str, ...]) -> list[str]:
    """The header of a file that may be plain, from its first _SCAN_BYTES
    bytes; _NotPlain if these already show that it is not, or that its first
    group name (in the first of `columns`) is too long to pack."""
    if data.startswith(codecs.BOM_UTF8):
        raise _NotPlain
    first_lines = data[:_SCAN_BYTES].split(b"\n", 2)
    if len(first_lines) == 1 and len(data) > _SCAN_BYTES:
        raise _NotPlain  # a header longer than the head
    header = first_lines[0].removesuffix(b"\r").decode("utf-8", "replace").split(",")
    ncol = len(header)
    if len(set(header)) < ncol or not set(columns) <= set(header):
        raise _NotPlain
    if len(first_lines) > 1:
        row = first_lines[1].removesuffix(b"\r").split(b",")
        if len(row) == ncol and len(row[header.index(columns[0])]) > _WORD * _KEY_WORDS:
            raise _NotPlain
    return header


def _read_plain(path: str, columns: tuple[str, ...]) -> bytes:
    """The bytes of a file; _NotPlain, with only its head read, if that shows
    that the file is not plain (see _plain_header).  A path that is not a
    regular file, such as a pipe, is not opened here: csv.reader streams it."""
    if not Path(path).is_file():
        raise _NotPlain
    with open(path, "rb") as fh:
        _plain_header(fh.read(_SCAN_BYTES), columns)
        fh.seek(0)
        return fh.read()


def _plain_cells(data: bytes, columns: tuple[str, ...]):
    """The cells of the named columns of a plain CSV; the first of `columns`
    holds group names.

    Plain means: valid UTF-8 with no BOM, NUL byte or quote; lines end in
    "\n" or "\r\n" (the last one may end the file instead); the header names
    every column once and includes `columns`; every line, the header too, has
    as many cells as the header and is no longer than csv.field_size_limit().
    Returns the bytes as a uint8 array and, per named column, the start and
    end offsets of its cells, one per data row.  Raises _NotPlain for
    anything else, including a file without data rows.
    """
    header = _plain_header(data, columns)
    ncol = len(header)
    if b'"' in data or b"\0" in data:
        raise _NotPlain
    has_cr = b"\r" in data
    if has_cr and data.count(b"\r") != data.count(b"\r\n"):
        raise _NotPlain
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise _NotPlain from None
    text = np.frombuffer(data, np.uint8)
    # Without a final newline, the end of the file ends the last line.
    open_end = not data.endswith(b"\n")
    offset = np.int32 if text.size < 2**31 else np.int64
    # The comma and newline offsets, a block at a time to bound the temporaries.
    found, newlines = [], 0
    for at in range(0, text.size, _SCAN_BYTES):
        block = text[at : at + _SCAN_BYTES]
        is_delim = block == _LF
        newlines += int(np.count_nonzero(is_delim))
        is_delim |= block == _COMMA
        found.append(np.add(np.flatnonzero(is_delim), at, dtype=offset, casting="same_kind"))
    if open_end:
        found.append(np.array([text.size], offset))
    delims = np.concatenate(found)
    del found
    rows = delims.size // ncol - 1
    # Every line has ncol - 1 commas iff the delimiters fill an (rows + 1, ncol)
    # grid whose last column holds every newline (and the end, if open).
    if (
        rows < 1
        or delims.size % ncol
        or newlines != rows + 1 - open_end
        or not np.all(np.take(text, delims[ncol - 1 : delims.size - open_end : ncol]) == _LF)
    ):
        raise _NotPlain
    lines = delims.reshape(-1, ncol)
    line_end = lines[:, -1]
    if int(np.diff(line_end).max(initial=line_end[0])) > csv.field_size_limit():
        raise _NotPlain
    lines = lines[1:]
    cells = []
    for name in columns:
        c = header.index(name)
        start = line_end[:-1] + 1 if c == 0 else lines[:, c - 1] + 1
        end = lines[:, c]
        if has_cr and c == ncol - 1:
            end = end - (text[end - 1] == _CR)
        cells.append((start, end))
    return text, cells


def _key_words(text: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The packed keys of the cells text[start:end], a word at a time, in as
    few words as the longest cell needs; _NotPlain if one is too long."""
    length = end - start
    longest = int(length.max())
    if longest > _WORD * _KEY_WORDS:
        raise _NotPlain
    words = max(1, -(-longest // _WORD))
    # Word j holds cell bytes [8j, 8j + 8): the 8 bytes of text that end where
    # that chunk ends, shifted left past the bytes before the chunk (a shift by
    # 64 gives 0, for a chunk past the cell's end).  Every chunk ends at offset
    # 8 or later, since the header in front of a cell has two named columns.
    # view[i] is the big-endian word of text[i:i + 8], a strided view.
    view = np.ndarray((text.size - _WORD + 1,), ">u8", text, strides=(1,))
    last = end - _WORD
    for j in range(words):
        yield _key_word(view, start, last, length, j, j == words - 1)


def _key_word(view, start, last, length, j: int, is_last: bool) -> np.ndarray:
    """Word j of the packed keys of _key_words."""
    if is_last:
        at = last
    else:
        at = start + _WORD * j
        np.minimum(at, last, out=at)
    word = view[at]
    del at
    # In place: the big-endian value, in native byte order.
    word = word.byteswap(inplace=True).view(word.dtype.newbyteorder())
    shift = length - _WORD * j
    np.clip(shift, 0, _WORD, out=shift)
    shift -= _WORD
    shift *= -8
    # Shifting casts `shift` a buffer at a time: no uint64 copy of it.
    return np.left_shift(word, shift, out=word, dtype=np.uint64, casting="unsafe")


def _name_keys(names: Sequence[str]) -> list[np.ndarray]:
    """The packed keys of group names; _NotPlain if one is long or holds a NUL."""
    # NUL-separated, after 8 NULs so that every name ends at offset 8 or later.
    text = np.frombuffer(("\0" * _WORD + "\0".join(names) + "\0").encode(), np.uint8)
    nul = np.flatnonzero(text == 0)[_WORD - 1 :]
    if nul.size != len(names) + 1:
        raise _NotPlain
    return list(_key_words(text, nul[:-1] + 1, nul[1:]))


def _key_bytes(keys, words: int) -> np.ndarray:
    """Packed keys as "S" strings of `words` words (zero words pad short keys):
    one array that sorts and compares as the names do."""
    packed = np.zeros((keys[0].size, words), ">u8")
    for j, word in enumerate(keys):
        packed[:, j] = word
    return packed.view(f"S{_WORD * words}").ravel()


def _key_names(keys) -> list[str]:
    """The group names of packed keys (an "S" view drops the NUL padding),
    decoded at once: plain cells hold no ","."""
    return b",".join(_key_bytes(keys, len(keys)).tolist()).decode("utf-8").split(",")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts, as a mask."""
    first = np.empty(values.size, bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _factorise(text: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The distinct packed keys of the cells text[start:end], in name order,
    and each cell's index among them.

    A one-word key is its own sort key.  Longer keys are sorted by a hash of
    their words, one uint64 per cell, and equal hashes are then checked to be
    equal names, a word at a time; so no more than one word per cell is held
    beside the hash.  A collision raises _NotPlain.
    """
    key = None
    for word in _key_words(text, start, end):
        if key is None:
            key, words = word, 1
        else:
            key *= _MIX
            key ^= word
            words += 1
    # An argsort-based inverse, freeing its temporaries as it goes
    # (np.unique's costs peak memory).
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)
    if words == 1:
        distinct = [key[first]]
    del key
    if words > 1:
        differs = np.empty(first.size - 1, bool)
        for word in _key_words(text, start, end):
            word = word[order]
            np.not_equal(word[1:], word[:-1], out=differs)
            del word
            if np.any(differs > first[1:]):
                raise _NotPlain  # two names with one hash: csv.reader takes the file
        del differs
    ids = np.cumsum(first, dtype=np.int32)
    ids -= 1
    if words > 1:  # the keys themselves, and the ids from hash order to name order
        firsts = order[first]
        distinct = list(_key_words(text, start[firsts], end[firsts]))
        rank = np.lexsort(distinct[::-1])
        distinct = [word[rank] for word in distinct]
        position = np.empty_like(ids, shape=rank.size)
        position[rank] = np.arange(rank.size, dtype=ids.dtype)
        ids = position[ids]
    inverse = np.empty_like(ids)
    inverse[order] = ids
    return distinct, inverse


def _bits(text: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """0/1 cells as uint8; _NotPlain unless every cell is a literal "0" or "1"."""
    bits = np.take(text, start)  # faster than text[start] with int32 offsets
    bits -= np.uint8(_ZERO)
    if not np.all(end - start == 1) or np.any(bits > 1):
        raise _NotPlain
    return bits


def _run_counts(key: np.ndarray):
    """The distinct names of sorted one-word keys whose low byte holds a
    2-bit (label, prediction) pattern, and their counts per (name, label,
    prediction) as a (K, 2, 2) array: the lengths of the runs of equal keys.
    """
    at = np.flatnonzero(_run_starts(key))
    length = np.diff(at, append=key.size)
    key = key[at]
    # The runs of one name are adjacent; its first run starts a new name.
    name = key & ~np.uint64(0xFF)
    first = _run_starts(name)
    distinct = [name[first]]
    del name
    cell = np.cumsum(first, dtype=np.intp)
    cell -= 1
    cell <<= 2
    cell |= key.view(np.int64) & 3
    cells = np.zeros(4 * distinct[0].size, np.int64)
    cells[cell] = length
    return distinct, cells.reshape(-1, 2, 2)


def _records_plain(path: str, metric: MetricKind):
    """The vectorised reader of a plain data CSV (see _plain_cells): its
    counts, and the sorted packed keys of their names.

    Each row counts in the (K, 2, 2) cell of its (name, label, prediction).
    Names of at most 7 bytes pack into one word whose free low byte takes the
    row's 2-bit (label, prediction) pattern; one in-place sort of these keys
    puts each cell's rows in one run, whose length is its count.  Longer
    names are factorised (_factorise), and 4 * id + pattern is bincounted.
    """
    text, (group, label, prediction) = _plain_cells(
        _read_plain(path, _RECORD_COLUMNS), _RECORD_COLUMNS
    )
    pattern = _bits(text, *label)
    pattern <<= 1
    pattern |= _bits(text, *prediction)
    del label, prediction
    start, end = group
    if int((end - start).max()) >= _WORD:
        distinct, ids = _factorise(text, start, end)
        del text, group, start, end
        cell = np.left_shift(ids, 2, dtype=np.intp)  # int32 would overflow at K >= 2**29
        cells = np.bincount(cell | pattern, minlength=4 * distinct[0].size).reshape(-1, 2, 2)
    else:
        (key,) = _key_words(text, start, end)
        # The file's bytes and the cell offsets are freed before the sort.
        del text, group, start, end
        key |= pattern
        del pattern
        key.sort()
        distinct, cells = _run_counts(key)
    # The keys are sorted and distinct, and so are the names they pack.
    return GroupCounts.from_cells(_key_names(distinct), cells, metric, _names_sorted=True), distinct


def _records_csv(path: str, metric: MetricKind) -> GroupCounts:
    """The csv.reader path: reads every input, and words every error.  One
    list of cell codes 4 * id + 2 * label + prediction is bincounted."""
    ids: dict[str, int] = {}  # each name's 4 * id
    codes: list[int] = []
    bits = _BITS.get
    with _csv_columns(path, _RECORD_COLUMNS) as (reader, (gi, li, pi)):
        for row in reader:
            if not row:
                continue
            try:
                g = row[gi]
                y = bits(row[li])
                if y is None:
                    y = _bit(row[li], "label")
                yh = bits(row[pi])
                if yh is None:
                    yh = _bit(row[pi], "prediction")
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, row, exc) from exc
            code = ids.get(g)
            if code is None:
                code = ids[g] = 4 * len(ids)
            codes.append(code + 2 * y + yh)
    if not ids:
        raise ConfigError(f"{path}: no data rows")
    cells = np.bincount(codes, minlength=4 * len(ids)).reshape(-1, 2, 2)
    return GroupCounts.from_cells(list(ids), cells, metric)


def _read_records(path: str, metric: MetricKind):
    """read_records' counts and the sorted packed keys of their names, or None."""
    try:
        return _records_plain(path, metric)
    except _NotPlain:
        pass  # csv.reader streams the file
    return _records_csv(path, metric), None


def read_records(path: str, metric: MetricKind = MetricKind.STATISTICAL_PARITY) -> GroupCounts:
    """Reduce a data CSV to per-group counts under the metric, ordered by
    group name; blank lines are skipped.  Every path counts the rows in a
    (K, 2, 2) cell array for GroupCounts.from_cells.  A plain CSV (see
    _plain_cells) with group names of at most 32 bytes and label and
    prediction cells that are all a literal 0 or 1 is counted with numpy: by
    one sort of packed keys when every name has at most 7 bytes, by a hashed
    argsort and a bincount otherwise.  Any other input is streamed through
    csv.reader, with the same result.
    """
    return _read_records(path, metric)[0]


def _missing_weights(path: str, missing: list[str]) -> ConfigError:
    return ConfigError(f"{path}: missing weights for groups {shown_groups(missing)}")


def _same_as_previous(text: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether each cell text[start:end] and the one before it, both of at most
    _WORD * _KEY_WORDS bytes, have one length and the same packed words
    (_key_words); the words stop once no cell equals the one before it."""
    length = end - start
    same = np.zeros(length.size, bool)
    same[1:] = (length[1:] == length[:-1]) & (length[1:] <= _WORD * _KEY_WORDS)
    for word in _key_words(text, start, np.minimum(end, start + _WORD * _KEY_WORDS)):
        same[1:] &= word[1:] == word[:-1]
        if not same.any():
            break
    return same


def _sidecar_plain(path: str, names: Sequence[str], want=None) -> np.ndarray:
    """The vectorised reader of a plain weight sidecar (see _plain_cells): its
    weights aligned to the sorted group names `names`, whose packed keys are
    `want` (None: packed here).

    The group cells are factorised as the data reader's long names are
    (_factorise), and the keys of `names` are looked up among them, unless
    they are the same keys (a row or more for each group, and no others).
    The weight cells are read by float() from their bytes, once per run of
    adjacent cells with one length and the same packed key words
    (_same_as_previous), so a sidecar of uniform or per-stratum weights costs
    a handful of float() calls.  A cell float() rejects raises _NotPlain, at
    the start of its run: csv.reader then gives the error and its line
    number, or reads the cell as str (non-ASCII digits).
    """
    data = _read_plain(path, _SIDECAR_COLUMNS)
    text, (group, (start, end)) = _plain_cells(data, _SIDECAR_COLUMNS)
    keys, inverse = _factorise(text, *group)
    runs = np.flatnonzero(~_same_as_previous(text, start, end))
    del text, group
    repeats = runs.size < inverse.size
    if repeats:
        start, end = start[runs], end[runs]
    try:
        # Iterating memoryviews builds no lists of offsets.
        values = np.array([float(data[a:b]) for a, b in zip(*map(memoryview, (start, end)))])
    except ValueError:
        raise _NotPlain from None  # csv.reader names the line, or float() of str reads it
    if repeats:
        values = np.repeat(values, np.diff(runs, append=inverse.size))
    # The last row of a repeated group wins.
    rows = np.zeros(keys[0].size, np.intp)
    np.maximum.at(rows, inverse, np.arange(inverse.size))
    want = _name_keys(names) if want is None else want
    if len(keys) == len(want) == 1:
        keys, want = keys[0], want[0]
    else:
        words = max(len(keys), len(want))
        keys, want = _key_bytes(keys, words), _key_bytes(want, words)
    if keys.size == want.size and np.array_equal(keys, want):
        return values[rows]  # one row or more for each group, and no others
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    missing = np.flatnonzero(keys[at] != want)
    if missing.size:
        raise _missing_weights(path, [names[g] for g in missing.tolist()])
    return values[rows[at]]


def _sidecar_csv(path: str, names: Sequence[str]) -> list[float]:
    """The csv.reader path for a weight sidecar."""
    table: dict[str, float] = {}
    with _csv_columns(path, _SIDECAR_COLUMNS) as (reader, (gi, wi)):
        for row in reader:
            if not row:
                continue
            try:
                table[row[gi]] = float(row[wi])
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, row, exc) from exc
    missing = [n for n in names if n not in table]
    if missing:
        raise _missing_weights(path, missing)
    return [table[n] for n in names]


def _read_weight_sidecar(path: str, names: Sequence[str], keys) -> GroupWeights:
    """read_weight_sidecar, given the packed keys of `names` or None."""
    try:
        return GroupWeights(_sidecar_plain(path, names, keys))
    except _NotPlain:
        pass  # csv.reader streams the file
    return GroupWeights(_sidecar_csv(path, names))


def read_weight_sidecar(path: str, names: Sequence[str]) -> GroupWeights:
    """Read a `group,weight` CSV aligned to the sorted group names.

    The last row of a repeated group wins.  A plain file (see _plain_cells)
    is matched to `names` by packed keys when every name has at most 32
    bytes, and its weight cells are parsed by float() once per run of
    byte-identical adjacent cells (see _sidecar_plain); any other input is
    streamed through csv.reader.  Either way each weight is what float()
    reads from its cell, to the bit, and a bad cell gives the csv.reader
    path's error and line number.  A plain sidecar packs `names` into keys
    first, about 0.6-0.8 ms at K = 16384 (the audit passes the keys its plain
    data read sorted instead).
    """
    return _read_weight_sidecar(path, names, None)


def _resolve_weights(source: str, counts: GroupCounts, keys) -> GroupWeights:
    if source == "uniform":
        return GroupWeights.uniform(counts.k)
    if source == "empirical":
        total = counts.m.sum()
        if total == 0:
            raise ConfigError("empirical weights need at least one sample")
        return GroupWeights(counts.m / total)
    return _read_weight_sidecar(source, counts.names, keys)


def _make_plan(kind: str, w: GroupWeights, budget: int, eta: float, gamma: float | None):
    """The named sampling plan; without gamma, the attribute-specific plan's default."""
    if kind == "weighted":
        return WeightedPlan.from_weights(w, eta, budget)
    if kind == "attr":
        if gamma is None:
            return AttributeSpecificPlan.default(w, budget)
        return AttributeSpecificPlan(w=w, budget=budget, gamma=gamma)
    raise ConfigError(f"unknown plan {kind!r}")


def _warn_if_clipped(plan: AttributeSpecificPlan) -> None:
    """One stderr line when an attribute-specific plan caps some gamma * w_g at 1.

    The estimator stays unbiased, but the plan then expects fewer samples
    than its budget (the identity sum_g E[M_g] = n needs gamma * w_g <= 1).
    """
    clipped = int(np.count_nonzero(plan.gamma * plan.w.as_array() > 1.0))
    if clipped:
        expected = plan.block * plan.expected_included()
        print(
            f"warning: attribute-specific plan clips {clipped} group(s) with gamma * w_g > 1; "
            f"expects {expected!r} samples against a budget of {plan.budget}",
            file=sys.stderr,
        )


def _render_outcome(outcome: TestOutcome, names: Sequence[str]) -> str:
    lines = [
        f"decision: {outcome.decision.value}",
        f"statistic: {outcome.statistic.f!r}",
        f"f1: {outcome.statistic.f1!r}",
        f"f2: {outcome.statistic.f2!r}",
        f"threshold: {outcome.threshold!r}",
    ]
    if names:
        # One tail per distinct count, put between the names.
        warn = "  (warning: fewer than 2 samples)"
        values, which = np.unique(outcome.counts, return_inverse=True)
        tails = [f"]: {m}{warn if m < 2 else ''}\ncount[" for m in values.tolist()]
        parts = [""] * (2 * len(names))
        parts[0::2] = names
        parts[1::2] = map(tails.__getitem__, which.tolist())
        parts[-1] = parts[-1].removesuffix("\ncount[")
        lines.append("count[" + "".join(parts))
    return "\n".join(lines)


def cmd_audit(args) -> int:
    path = args.config
    conf = read_config(path, _AUDIT_KEYS)
    alpha = _setting(conf, path, "alpha", float)
    epsilon = _setting(conf, path, "epsilon", float)
    budget = _setting(conf, path, "budget", int, None)
    eta = _setting(conf, path, "eta", float, OPTIMAL_ETA)
    gamma = _setting(conf, path, "gamma", float, None)
    metric = MetricKind(_choice(conf, path, "metric", ("sp", "eo")))
    plan_kind = _choice(conf, path, "plan", ("weighted", "attr"))
    attr = plan_kind == "attr"
    _check_ranges(conf, path, [
        ("alpha", alpha, lambda a: 0 <= a < 1, "in [0, 1)"),
        ("epsilon", epsilon, lambda e: 0 < (1 - alpha) * e * e / 2 <= 0.5,
         "> 0, with a threshold (1 - alpha) epsilon^2 / 2 in (0, 0.5]"),
        ("budget", budget, lambda n: attr <= n <= _MAX_COUNT, f"in [{int(attr)}, {_MAX_COUNT}]"),
        ("eta", None if attr else eta, lambda e: e >= 0, ">= 0"),
        ("gamma", gamma if attr else None,
         lambda g: g > 0 and (budget is None or _whole_block(budget, g)),
         f"> 0, with budget / gamma a whole number from 1 to {_MAX_COUNT}"),
    ])
    source = conf.get("weights", "uniform")
    if source not in ("uniform", "empirical"):
        if not os.path.exists(source):
            raise ConfigError(f"{path}: weights file not found: {source!r}")
        if os.path.isdir(source):
            raise ConfigError(f"{path}: weights file is a directory: {source!r}")
    counts, keys = _read_records(args.input, metric)
    w = _resolve_weights(source, counts, keys)
    plan = _make_plan(
        plan_kind,
        w,
        int(counts.m.sum()) if budget is None else budget,
        eta,
        gamma,
    )
    if plan_kind == "attr":
        _warn_if_clipped(plan)
    cfg = TestConfig(alpha=alpha, epsilon=epsilon, plan=plan)
    outcome = run_test_dataset(counts, w, cfg)
    print(_render_outcome(outcome, counts.names))
    return EXIT_H1 if outcome.decision.value == "H1" else EXIT_H0


def _check_options(args, ranges) -> None:
    """A ConfigError naming the first option that is not finite, or not in its range.

    `ranges` holds (option, test, rule) triples; a float option left at None
    is not checked.
    """
    for name in ("alpha", "epsilon", "delta", "eta", "gamma"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value!r}")
    for name, test, rule in ranges:
        value = getattr(args, name)
        if not test(value):
            raise ConfigError(f"--{name} must be {rule}, got {value!r}")


def _group_name(g: int, k: int) -> str:
    width = len(str(k - 1))
    return f"g{g:0{width}d}"


def cmd_synth(args) -> int:
    from .adversarial import build_hard_pair, build_mixture_family

    _check_options(args, [
        ("k", lambda k: k >= 1, ">= 1"),
        ("budget", lambda n: n >= 1, ">= 1"),
        ("seed", lambda s: s >= 0, ">= 0"),
    ])
    k = args.k
    if args.kind == "hardpair":
        pair = build_hard_pair(k, args.epsilon)
        inst = pair.p1 if args.side == "h1" else pair.p0
    elif args.kind == "mixture":
        family = build_mixture_family(k, GroupWeights.uniform(k), args.alpha, args.epsilon)
        inst = family.member((1,) * len(family.q)) if args.side == "h1" else family.p0
    else:
        raise ConfigError(f"unknown kind {args.kind!r}")
    plan = _make_plan(args.plan, inst.weights, args.budget, args.eta, args.gamma)
    rng = np.random.default_rng(args.seed)
    m = plan.draw_counts(rng)
    mu = inst.mu_array().tolist()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        try:
            writer = csv.writer(fh)
            writer.writerow(["group", "label", "prediction"])
            for g in range(k):
                bits = rng.binomial(1, mu[g], size=int(m[g]))
                for bit in bits:
                    writer.writerow([_group_name(g, k), 0, int(bit)])
        except Exception:  # such as a group too large to draw: leave no partial file
            fh.close()
            os.remove(args.out)
            raise
    print(f"wrote {int(m.sum())} rows to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    from .adversarial import build_hard_pair

    path = args.config
    conf = read_config(path, _SIMULATE_KEYS)
    trials = _setting(conf, path, "trials", int)
    base_seed = _setting(conf, path, "base_seed", int, 0)
    k = _setting(conf, path, "k", int)
    alpha = _setting(conf, path, "alpha", float)
    epsilon = _setting(conf, path, "epsilon", float)
    target = _setting(conf, path, "target", float, 0.1)
    n_grid = _setting(conf, path, "n_grid", _int_list)
    eta = _setting(conf, path, "eta", float, OPTIMAL_ETA)
    gamma = _setting(conf, path, "gamma", float, None)
    _choice(conf, path, "instance", ("hardpair",))
    plan_kind = _choice(conf, path, "plan", ("weighted", "attr"))
    attr = plan_kind == "attr"
    _check_ranges(conf, path, [
        ("trials", trials, lambda t: t >= 1, ">= 1"),
        ("base_seed", base_seed, lambda s: s >= 0, ">= 0"),
        ("k", k, lambda k: k >= 2, ">= 2"),
        ("alpha", alpha, lambda a: 0 <= a < 1, "in [0, 1)"),
        ("epsilon", epsilon, lambda e: 0 < e <= 0.5, "in (0, 0.5]"),
        ("target", target, lambda t: 0 <= t <= 1, "in [0, 1]"),
        ("n_grid", n_grid, lambda ns: attr <= min(ns) and max(ns) <= _MAX_COUNT,
         f"a list of budgets in [{int(attr)}, {_MAX_COUNT}]"),
        ("eta", None if attr else eta, lambda e: e >= 0, ">= 0"),
        ("gamma", gamma if attr else None,
         lambda g: g > 0 and all(_whole_block(n, g) for n in n_grid),
         f"> 0, with n / gamma a whole number from 1 to {_MAX_COUNT} for each n of n_grid"),
    ])
    pair = build_hard_pair(k, epsilon)
    points = []
    for n in n_grid:
        plan = _make_plan(plan_kind, pair.p0.weights, n, eta, gamma)
        if plan_kind == "attr":
            _warn_if_clipped(plan)
        cfg = TestConfig(alpha=alpha, epsilon=epsilon, plan=plan)
        points.append(SweepPoint(axis_value=n, h0=pair.p0, h1=pair.p1, cfg=cfg))
    exp = Experiment(
        axis="n", points=tuple(points), trials=trials, base_seed=base_seed, target=target
    )
    result = threshold_sweep(exp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, str(out_dir / "sweep.csv"))
    write_manifest(str(out_dir / "manifest.json"), dict(conf), base_seed)
    print(f"wrote {len(result.rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_bounds(args) -> int:
    from .bounds import build_report, p_error_attr, p_error_weighted

    _check_options(args, [
        ("k", lambda k: k >= 1, ">= 1"),
        ("alpha", lambda a: 0 <= a < 1, "in [0, 1)"),
        ("epsilon", lambda e: e > 0, "> 0"),
        ("epsilon", lambda e: e <= 1, "<= 1"),  # a gap between means in [0, 1]
        ("delta", lambda d: 0 < d < 1, "in (0, 1)"),
        ("n", lambda ns: min(ns, default=2) >= 2, "at least 2 each"),
        ("n", lambda ns: max(ns, default=2) <= sys.float_info.max, f"<= {sys.float_info.max} each"),
    ])
    w = GroupWeights.uniform(args.k)
    scale = (1.0 - args.alpha) ** 2 * args.epsilon**4 * args.delta  # the sizes divide by it
    report = build_report(w, args.alpha, args.epsilon, args.delta) if scale > 0 else None
    if report is None or not all(map(math.isfinite, (report.n_weighted.n, report.n_attr.n))):
        name = "epsilon" if args.epsilon**4 < args.delta else "delta"  # the smaller factor
        raise ConfigError(f"--{name} must be larger: (1 - alpha)^2 epsilon^4 delta = {scale!r} "
                          f"gives no finite sample size, got {getattr(args, name)!r}")
    print(f"K: {args.k}")
    print(f"alpha: {args.alpha}  epsilon: {args.epsilon}  delta: {args.delta}")
    print(f"renyi_2/3: {report.renyi_23!r} bits")

    def row(name, size):
        flag = "  [order-only]" if size.order_only else ""
        print(f"{name}: {size.n!r}{flag}")

    row("n_weighted", report.n_weighted)
    row("n_attr", report.n_attr)
    row("n_converse_maxgap", report.n_converse_maxgap)
    row("n_converse_cvar", report.n_converse_cvar)
    if args.n:
        v = weighted_marginal(w, OPTIMAL_ETA)
        for n in args.n:
            pw = p_error_weighted(w, v, n, args.alpha, args.epsilon)
            pa = p_error_attr(n, args.alpha, args.epsilon)
            print(
                f"p_err(n={n}): weighted={pw.value!r}{' (vacuous)' if pw.vacuous else ''} "
                f"attr={pa.value!r}{' (vacuous)' if pa.vacuous else ''}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairaudit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run the threshold test on a data CSV")
    p_audit.add_argument("input", help="data CSV (group,label,prediction)")
    p_audit.add_argument("config", help="flat key=value config file")
    p_audit.set_defaults(func=cmd_audit)

    p_synth = sub.add_parser("synth", help="emit a synthetic audit dataset")
    p_synth.add_argument("--kind", choices=["hardpair", "mixture"], default="hardpair")
    p_synth.add_argument("--side", choices=["h0", "h1"], default="h1")
    p_synth.add_argument("--k", type=int, required=True)
    p_synth.add_argument("--epsilon", type=float, required=True)
    p_synth.add_argument("--alpha", type=float, default=0.5)
    p_synth.add_argument("--plan", choices=["weighted", "attr"], default="weighted")
    p_synth.add_argument("--eta", type=float, default=OPTIMAL_ETA)
    p_synth.add_argument("--gamma", type=float, default=None)
    p_synth.add_argument("--budget", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser("simulate", help="Monte Carlo error sweep")
    p_sim.add_argument("config", help="flat key=value experiment config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="print closed-form bound report")
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--alpha", type=float, default=0.5)
    p_bounds.add_argument("--epsilon", type=float, default=0.1)
    p_bounds.add_argument("--delta", type=float, default=0.01)
    p_bounds.add_argument("--n", type=int, nargs="*", default=[])
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its message; --help exits 0
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FairauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # such as an array for a huge --k
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
