"""The audit reader: a data CSV (`group,label,prediction`) and an optional
weight sidecar (`group,weight`) to per-group counts and weights, behind one
call, `read_audit`.  Each file is read on its own into its sorted distinct
groups, as packed keys by the vectorised reader of plain CSVs (see
_plain_cells) and as names by csv.reader, which takes any other file; the
two paths agree on every input, error messages included.
"""

from __future__ import annotations

import codecs
import csv
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import GroupCounts, GroupWeights, MetricKind
from .errors import ConfigError, WeightError, shown_groups

# Fast path for 0/1 cells; anything else goes through int() (so " 1" and
# "+0" are accepted) and a range check.
_BITS = {"0": 0, "1": 1}
_RECORD_COLUMNS = ("group", "label", "prediction")
_SIDECAR_COLUMNS = ("group", "weight")


def read_audit(data: str, metric: MetricKind, sidecar: str | None = None):
    """The audit's (GroupCounts, GroupWeights or None) from a data CSV and,
    if given, a weight sidecar.

    Without a sidecar the groups are the data's.  With one they are the
    sidecar's, joined to the data's by packed keys when both files are plain
    and by names otherwise: a group the sidecar lists with no data row has
    S = M = 0, and a data group it lacks is a ConfigError.  Each weight is
    what float() reads from the cell of its group's last row, to the bit.
    """
    plain, (groups, cells) = _read(data, _records_plain, _records_csv)
    # The data's own errors, such as no label-0 row under eo, come first.
    counts = GroupCounts.from_cells(_key_names(groups) if plain else groups, cells, metric,
                                    _names_sorted=True)
    if sidecar is None:
        return counts, None
    side_plain, (side, values) = _read(sidecar, _sidecar_plain, _sidecar_csv)
    by_keys = plain and side_plain
    if by_keys:
        at = _key_positions(groups, side)
    else:
        side = _key_names(side) if side_plain else side
        index = {name: g for g, name in enumerate(side)}
        at = np.array([index.get(name, -1) for name in counts.names], np.intp)
    if at is not None:  # the data's groups are not the sidecar's: spread them
        missing = np.flatnonzero(at < 0)
        if missing.size:
            raise ConfigError(f"{sidecar}: missing weights for groups "
                              f"{shown_groups([counts.names[g] for g in missing.tolist()])}")
        s, m = np.zeros((2, len(values)), np.int64)
        s[at], m[at] = counts.s, counts.m
        counts = GroupCounts(_key_names(side) if by_keys else side, s, m, _names_sorted=True)
    try:
        return counts, GroupWeights(values)
    except WeightError as exc:
        raise WeightError(f"{sidecar}: {exc}") from None


def read_records(path: str, metric: MetricKind = MetricKind.STATISTICAL_PARITY) -> GroupCounts:
    """Reduce a data CSV to per-group counts under the metric, ordered by
    group name; blank lines are skipped (see _records_plain)."""
    return read_audit(path, metric)[0]


def _read(path: str, plain, streamed):
    """(True, plain(path)), or (False, streamed(path)) for a file the
    vectorised reader does not cover."""
    try:
        return True, plain(path)
    except _NotPlain:
        pass  # csv.reader streams the file
    return False, streamed(path)


def _key_positions(groups, side) -> np.ndarray | None:
    """Where each of the sorted packed keys `groups` is among the sorted
    packed keys `side` (-1 where absent); None if they are the same keys."""
    if len(groups) == len(side) == 1:
        want, have = groups[0], side[0]
    else:
        words = max(len(groups), len(side))
        want, have = _key_bytes(groups, words), _key_bytes(side, words)
    if want.size == have.size and np.array_equal(want, have):
        return None
    at = np.minimum(np.searchsorted(have, want), have.size - 1)
    at[have[at] != want] = -1
    return at


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


def _plain_header(head: bytes, columns: tuple[str, ...]) -> list[str]:
    """The header of a file that may be plain, from its first _SCAN_BYTES
    bytes; _NotPlain if these hold no data row (a longer header, or no data),
    or show that the file is not plain or its first group name too long."""
    if head.startswith(codecs.BOM_UTF8):
        raise _NotPlain
    first_lines = head.split(b"\n", 2)
    if len(first_lines) == 1:
        raise _NotPlain
    header = first_lines[0].removesuffix(b"\r").decode("utf-8", "replace").split(",")
    ncol = len(header)
    if len(set(header)) < ncol or not set(columns) <= set(header):
        raise _NotPlain
    row = first_lines[1].removesuffix(b"\r").split(b",")
    if len(row) == ncol and len(row[header.index(columns[0])]) > _WORD * _KEY_WORDS:
        raise _NotPlain
    return header


def _plain_cells(path: str, columns: tuple[str, ...]):
    """The cells of the named columns of a plain CSV file; the first of
    `columns` holds group names.

    Plain means: a regular file (csv.reader streams a pipe) of valid UTF-8
    with no BOM, NUL byte or quote; lines end in "\n" or "\r\n" (the last
    one may end the file instead); the header names every column once and
    includes `columns`; every line, the header too, has as many cells as the
    header and is no longer than csv.field_size_limit().  Returns the file's
    bytes as a uint8 array and, per named column, the start and end offsets
    of its cells, one per data row.  Raises _NotPlain for anything else,
    including a file without data rows; without reading past the head when
    the head shows it (see _plain_header).
    """
    if not Path(path).is_file():
        raise _NotPlain
    with open(path, "rb") as fh:
        header = _plain_header(fh.read(_SCAN_BYTES), columns)
        fh.seek(0)
        data = fh.read()
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


def _records_plain(path: str):
    """The vectorised reader of a plain data CSV (see _plain_cells) whose
    names have at most 32 bytes and whose label and prediction cells are all
    a literal 0 or 1: the sorted packed keys of its groups, and their
    (K, 2, 2) cells.

    Each row counts in the cell of its (name, label, prediction).  Names of
    at most 7 bytes pack into one word whose free low byte takes the row's
    2-bit (label, prediction) pattern; one in-place sort of these keys puts
    each cell's rows in one run, whose length is its count.  Longer names
    are factorised (_factorise), and 4 * id + pattern is bincounted.
    """
    text, (group, label, prediction) = _plain_cells(path, _RECORD_COLUMNS)
    pattern = _bits(text, *label)
    pattern <<= 1
    pattern |= _bits(text, *prediction)
    del label, prediction
    start, end = group
    if int((end - start).max()) >= _WORD:
        distinct, ids = _factorise(text, start, end)
        del text, group, start, end
        cell = np.left_shift(ids, 2, dtype=np.intp)  # int32 would overflow at K >= 2**29
        return distinct, np.bincount(cell | pattern, minlength=4 * distinct[0].size).reshape(-1, 2, 2)
    (key,) = _key_words(text, start, end)
    # The file's bytes and the cell offsets are freed before the sort.
    del text, group, start, end
    key |= pattern
    del pattern
    key.sort()
    return _run_counts(key)


def _records_csv(path: str):
    """The csv.reader path: reads every input, and words every error.  One
    list of cell codes 4 * id + 2 * label + prediction is bincounted; returns
    the sorted names and their (K, 2, 2) cells."""
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
    names = sorted(ids)
    return names, cells[[ids[name] >> 2 for name in names]]


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


def _sidecar_plain(path: str):
    """The vectorised reader of a plain weight sidecar (see _plain_cells): the
    sorted packed keys of its groups (_factorise), and the weight of each
    group's last row.

    The weight cells are read by float() from their bytes, once per run of
    adjacent cells with one length and the same packed key words
    (_same_as_previous), so a sidecar of uniform or per-stratum weights costs
    a handful of float() calls.  A cell float() rejects raises _NotPlain, at
    the start of its run: csv.reader then gives the error and its line
    number, or reads the cell as str (non-ASCII digits).
    """
    text, (group, (start, end)) = _plain_cells(path, _SIDECAR_COLUMNS)
    keys, inverse = _factorise(text, *group)
    runs = np.flatnonzero(~_same_as_previous(text, start, end))
    del group
    repeats = runs.size < inverse.size
    if repeats:
        start, end = start[runs], end[runs]
    cell = memoryview(text)
    try:
        # Iterating memoryviews builds no lists of offsets.
        values = np.array([float(cell[a:b]) for a, b in zip(*map(memoryview, (start, end)))])
    except ValueError:
        raise _NotPlain from None  # csv.reader names the line, or float() of str reads it
    if repeats:
        values = np.repeat(values, np.diff(runs, append=inverse.size))
    # The last row of a repeated group wins.
    rows = np.zeros(keys[0].size, np.intp)
    np.maximum.at(rows, inverse, np.arange(inverse.size))
    return keys, values[rows]


def _sidecar_csv(path: str):
    """The csv.reader path for a weight sidecar: sorted names, last-row weights."""
    table: dict[str, float] = {}
    with _csv_columns(path, _SIDECAR_COLUMNS) as (reader, (gi, wi)):
        for row in reader:
            if not row:
                continue
            try:
                table[row[gi]] = float(row[wi])
            except (IndexError, ValueError) as exc:
                raise _bad_row(path, reader.line_num, row, exc) from exc
    names = sorted(table)
    return names, [table[name] for name in names]
