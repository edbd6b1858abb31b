"""The audit reader: a data CSV (`group,label,prediction`) and an optional
weight sidecar (`group,weight`) to per-group counts and weights, behind one
call, `read_audit`.  Each file is read on its own into its sorted distinct
groups, as packed keys by the block reader of plain CSVs (see
_plain_blocks) and as names by csv.reader, which takes any other file; the
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

    Blank lines are skipped (see _records_plain).  Without a sidecar the
    groups are the data's, ordered by name.  With one they are the
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


def _read(path: str, plain, streamed):
    """(True, plain(path)), or (False, streamed(path)) for a file the
    block reader does not cover."""
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


# --- The block reader for plain CSVs ----------------------------------------
#
# The csv module parses a plain CSV exactly as splitting its lines on "," does,
# so such a file can be reduced with whole-array numpy operations, a block of
# lines at a time, in memory that does not grow with its rows.  Anything else
# raises _NotPlain and goes through csv.reader, which streams the file and
# gives every error message; so the two paths agree on every input.

# A packed group name: its UTF-8 bytes in big-endian uint64 words, NUL-padded,
# one array per word.  With NUL bytes excluded, the word tuples sort as the
# names do (UTF-8 byte order is code point order, and a prefix packs to the
# smaller tuple).  Names of up to _KEY_WORDS words are packed, which covers
# pre-joined intersectional names such as "female|asian|20-30".
_WORD = 8
_KEY_WORDS = 4
# The bytes read at a time, through one reused buffer.
_SCAN_BYTES = 1 << 16
# A fold starts once the pending blocks hold this many key words.
_PENDING = 1 << 17
# An odd multiplier for hashing key words (the 64-bit golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)
_COMMA, _LF, _CR, _ZERO = b",\n\r0"


class _NotPlain(Exception):
    """The input needs csv.reader: the block reader does not cover it."""


def _plain_blocks(path: str, columns: tuple[str, ...]):
    """The cells of the named columns of a plain CSV file, a block of lines at
    a time; the first of `columns` holds group names.

    Plain means: a regular file (csv.reader streams a pipe) of valid UTF-8
    with no BOM, NUL byte or quote; lines end in "\\n" or "\\r\\n" (the last
    one may end the file instead); the header names every column once and
    includes `columns`; every line, the header too, has as many cells as the
    header and is no longer than csv.field_size_limit().  The file is read
    _SCAN_BYTES at a time into one buffer, and each block is cut at its last
    "\\n" (a line longer than the buffer grows it).  Per block with data rows,
    yields the buffer as a uint8 array and, per named column, the start and
    end offsets of its cells in it.  The block starts at offset _WORD, after
    the 8 bytes before it in the file, which end in its line end before (for
    the first block, 7 zeros and a "\\n"), so _key_words never reads before
    offset 0.  The next block overwrites the buffer.  Raises _NotPlain at the
    first block that shows the file is not plain, or at the end if it has no
    data rows.
    """
    if not Path(path).is_file():
        raise _NotPlain
    limit = csv.field_size_limit()
    buf = bytearray(_WORD + _SCAN_BYTES)
    buf[_WORD - 1] = _LF  # the first line starts after a "\n", as every block's does
    text = np.frombuffer(buf, np.uint8)
    fill, header, rows = _WORD, None, 0
    with open(path, "rb") as fh:
        while True:
            got = fh.readinto(text[fill:])
            filled = fill + got
            # Without a final newline, the end of the file ends the last line.
            cut = buf.rfind(b"\n", _WORD, filled) + 1 if got else filled
            if cut == _WORD:
                break  # the end of the file, at the end of a line
            if not cut:  # the line goes on past what has been read
                if filled == len(buf):
                    if filled - _WORD > limit:
                        raise _NotPlain
                    buf = buf + bytes(len(buf))
                    text = np.frombuffer(buf, np.uint8)
                fill = filled
                continue
            if buf.find(b'"', _WORD, cut) >= 0 or buf.find(b"\0", _WORD, cut) >= 0:
                raise _NotPlain
            has_cr = buf.find(b"\r", _WORD, cut) >= 0
            if has_cr and buf.count(b"\r", _WORD, cut) != buf.count(b"\r\n", _WORD, cut):
                raise _NotPlain
            try:
                str(memoryview(buf)[_WORD:cut], "utf-8")
            except UnicodeDecodeError:
                raise _NotPlain from None
            first = header is None
            if first:
                at = buf.find(b"\n", _WORD, cut)
                if at < 0 or buf.startswith(codecs.BOM_UTF8, _WORD):
                    raise _NotPlain
                header = buf[_WORD:at].removesuffix(b"\r").decode("utf-8", "replace").split(",")
                ncol = len(header)
                if len(set(header)) < ncol or not set(columns) <= set(header):
                    raise _NotPlain
                named = [header.index(name) for name in columns]
            # The comma and newline offsets, from the line end before the block.
            block = text[_WORD - 1 : cut]
            is_delim = block == _LF
            lines = int(np.count_nonzero(is_delim)) - bool(got)
            is_delim |= block == _COMMA
            delims = np.flatnonzero(is_delim)
            delims += _WORD - 1
            del block, is_delim
            if not got:
                delims = np.append(delims, cut)
            # Every line has ncol - 1 commas iff the delimiters after the first
            # fill a (lines, ncol) grid whose last column holds every newline.
            line_end = delims[::ncol]
            if (delims.size != 1 + ncol * lines
                    or not (np.take(text, line_end[: lines + bool(got)]) == _LF).all()):
                raise _NotPlain
            length = line_end[1:] - line_end[:-1]
            if first:
                length[0] -= 1  # the header's, from the start of the file
                delims, lines = delims[ncol:], lines - 1
            if int(length.max()) > limit:
                raise _NotPlain
            if lines:
                rows += lines
                cells = []
                for c in named:
                    end = delims[c + 1 :: ncol]
                    if has_cr and c == ncol - 1:
                        end = end - (np.take(text, end - 1) == _CR)
                    cells.append((delims[c:-1:ncol] + 1, end))
                yield text, cells
            if not got:
                break
            # The rest of the buffer moves to the front, after the 8 bytes before it.
            fill = filled - cut + _WORD
            text[:fill] = text[cut - _WORD : filled]
    if not rows:
        raise _NotPlain


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
    # 8 or later (see _plain_blocks).  view[i] is the big-endian word of
    # text[i:i + 8], a strided view.
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
    if not is_last or j:  # else every cell has 0 to 8 bytes
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


def _bits(text: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """0/1 cells as uint8; _NotPlain unless every cell is a literal "0" or "1"."""
    # Lengths first: an empty last cell of an open last line starts at the end.
    if not (end - start == 1).all():
        raise _NotPlain
    bits = np.take(text, start)  # faster than text[start]
    bits -= np.uint8(_ZERO)
    if (bits > 1).any():
        raise _NotPlain
    return bits


class _SortedKeys:
    """The cell counts of names of at most 7 bytes, by sorting (see
    _records_plain): keys are kept a block at a time and, once they hold
    _PENDING keys, and at the end, sorted and folded into the sorted distinct
    keys so far and their counts."""

    def __init__(self):
        self.pending, self.size = [], 0
        self.keys, self.counts = np.empty(0, np.uint64), np.empty(0, np.int64)

    def add(self, key: np.ndarray) -> None:
        self.pending.append(key)
        self.size += key.size
        if self.size >= _PENDING:
            self._fold()

    def _fold(self) -> None:
        if not self.pending:
            return
        key = self.pending[0] if len(self.pending) == 1 else np.concatenate(self.pending)
        self.pending, self.size = [], 0
        key.sort()
        at = np.flatnonzero(_run_starts(key))
        count = np.diff(at, append=key.size)
        key = key[at]
        if self.keys.size:
            key = np.concatenate([self.keys, key])
            order = np.argsort(key, kind="stable")
            key = key[order]
            at = np.flatnonzero(_run_starts(key))
            key, count = key[at], np.add.reduceat(np.concatenate([self.counts, count])[order], at)
        self.keys, self.counts = key, count

    def cells(self):
        """The distinct names (one-word packed keys) and their (K, 2, 2) cells."""
        self._fold()
        key, count = self.keys, self.counts
        # The keys of one name are adjacent; its first starts a new name.
        name = key & ~np.uint64(0xFF)
        first = _run_starts(name)
        distinct = [name[first]]
        del name
        cell = np.cumsum(first, dtype=np.intp)
        cell -= 1
        cell <<= 2
        cell |= key.view(np.int64) & 3
        cells = np.zeros(4 * distinct[0].size, np.int64)
        cells[cell] = count
        return distinct, cells.reshape(-1, 2, 2)


def _hash(words: list) -> np.ndarray:
    """One uint64 per packed name: its first word, then h * _MIX ^ word per
    further word it has.  A name's zero words (past its end) leave h alone,
    so it hashes the same in every block."""
    h = words[0]
    for word in words[1:]:
        mixed = h * _MIX
        mixed ^= word
        h = np.where(word != 0, mixed, h)
    return h


class _HashedRows:
    """Rows keyed by a hash of their group's packed words (_hash), each with a
    value.  Pending rows are kept a block at a time and, once they hold
    _PENDING key words, and at the end, folded into one row per distinct
    hash, in hash order; a subclass's _reduce says which row and value each
    hash keeps.  Equal hashes are checked to be equal names, a word at a
    time: two names with one hash raise _NotPlain."""

    def __init__(self, words: list, values: np.ndarray):
        """Start from distinct one-word keys in name order and their values."""
        self.hashes = words[0]
        self.words = [self.hashes]  # a one-word key is its own hash
        self.values = values
        self.pending, self.size = [], 0

    def add(self, words: list, values: np.ndarray) -> None:
        self.pending.append((_hash(words), words, values))
        self.size += values.shape[0] * len(words)
        if self.size >= _PENDING:
            self._fold()

    def _fold(self) -> None:
        if not self.pending:
            return
        parts = [(self.hashes, self.words, self.values), *self.pending]
        self.pending, self.size = [], 0
        hashes = np.concatenate([part[0] for part in parts])
        order = np.argsort(hashes)
        first = _run_starts(hashes[order])
        nwords = max(len(part[1]) for part in parts)
        words = [hashes]
        if nwords > 1:
            words, differs = [], np.empty(first.size - 1, bool)
            for j in range(nwords):
                word = np.concatenate([w[j] if j < len(w) else np.zeros(h.size, np.uint64)
                                       for h, w, _ in parts])
                ordered = word[order]
                np.not_equal(ordered[1:], ordered[:-1], out=differs)
                if (differs > first[1:]).any():
                    raise _NotPlain  # two names with one hash: csv.reader takes the file
                words.append(word)
        # The rows kept, one per distinct hash in hash order, and their values.
        keep, self.values = self._reduce(order, first, [part[2] for part in parts])
        self.hashes = hashes[keep]
        self.words = [self.hashes] if nwords == 1 else [word[keep] for word in words]

    def result(self):
        """The distinct packed keys in name order, and their values."""
        self._fold()
        words, values = self.words, self.values
        if len(words) > 1:  # one-word keys, their own hashes, are in name order already
            rank = np.lexsort(words[::-1])
            words, values = [word[rank] for word in words], values[rank]
        return words, values


class _HashedCells(_HashedRows):
    """The cells of names of up to 32 bytes: a row's value is its 2-bit
    (label, prediction) pattern, and a name keeps its (2, 2) counts."""

    def _reduce(self, order, first, values):
        counts = values[0]  # the names' so far, then the rows' patterns
        ids = np.empty(order.size, np.intp)
        ids[order] = np.cumsum(first, dtype=np.intp)
        ids -= 1
        cells = np.zeros((int(ids.max()) + 1, 2, 2), np.int64)
        cells[ids[: len(counts)]] = counts
        code = ids[len(counts) :]
        code <<= 2
        code |= np.concatenate(values[1:])
        cells += np.bincount(code, minlength=cells.size).reshape(cells.shape)
        return order[first], cells


class _LastValues(_HashedRows):
    """The weight of each group's last row: the rows are in file order, so a
    run of equal hashes keeps its row of the largest index."""

    def _reduce(self, order, first, values):
        last = np.maximum.reduceat(order, np.flatnonzero(first))
        return last, np.concatenate(values)[last]


def _records_plain(path: str):
    """The block reader of a plain data CSV (see _plain_blocks) whose names
    have at most 32 bytes and whose label and prediction cells are all a
    literal 0 or 1: the sorted packed keys of its groups, and their (K, 2, 2)
    cells.

    Each row counts in the cell of its (name, label, prediction).  While all
    names have at most 7 bytes, each packs into one word whose free low byte
    takes the row's 2-bit (label, prediction) pattern; sorting these keys
    puts each cell's rows in one run, whose length is its count (_SortedKeys).
    From the first block with a longer name, the counts so far and every
    further row are folded by hash (_HashedCells).
    """
    short, hashed = _SortedKeys(), None
    for text, (group, label, prediction) in _plain_blocks(path, _RECORD_COLUMNS):
        pattern = _bits(text, *label)
        pattern <<= 1
        pattern |= _bits(text, *prediction)
        start, end = group
        if hashed is None and int((end - start).max()) < _WORD:
            (key,) = _key_words(text, start, end)
            key |= pattern
            short.add(key)
            continue
        if hashed is None:
            hashed = _HashedCells(*short.cells())
            short = None
        hashed.add(list(_key_words(text, start, end)), pattern)
    return short.cells() if hashed is None else hashed.result()


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
    """The block reader of a plain weight sidecar (see _plain_blocks): the
    sorted packed keys of its groups, and the weight of each group's last row
    (_LastValues).

    The weight cells are read by float() from their bytes, once per run of
    adjacent cells of a block with one length and the same packed key words
    (_same_as_previous), so a sidecar of uniform or per-stratum weights costs
    a handful of float() calls per block.  A cell float() rejects raises
    _NotPlain, at the start of its run: csv.reader then gives the error and
    its line number, or reads the cell as str (non-ASCII digits).
    """
    table = _LastValues([np.empty(0, np.uint64)], np.empty(0))
    for text, (group, (start, end)) in _plain_blocks(path, _SIDECAR_COLUMNS):
        runs = np.flatnonzero(~_same_as_previous(text, start, end))
        cell = memoryview(text)
        try:
            # Iterating memoryviews builds no lists of offsets.
            values = np.array([float(cell[a:b])
                               for a, b in zip(*map(memoryview, (start[runs], end[runs])))])
        except ValueError:
            raise _NotPlain from None  # csv.reader names the line, or float() of str reads it
        if runs.size < start.size:
            values = np.repeat(values, np.diff(runs, append=start.size))
        table.add(list(_key_words(text, *group)), values)
    return table.result()


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
