"""Domain types shared by all modules.

Populations are modeled as a stochastic weight vector over K groups plus a
per-group Bernoulli mean for the binary quality-of-service loss.  Audit data
reduces to per-group counts (`GroupCounts`): samples M_g and loss ones S_g,
which are sufficient for the audit statistic.  Raw labels serve only metric
conditioning; every other column is ignored.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyAfterConditioning, MissingGroup, WeightError

# If the raw sum is off by at most this much we silently renormalize
# (tolerates text-parsed weights); beyond it we raise.
WEIGHT_RENORM_TOL = 1e-9
# The largest count: counts are int64, and so are the counts numpy's
# samplers take, so a plan rejects a larger budget or block rather than
# overflow at its first draw.  Up to 4 cells of at most _MAX_CELL each sum
# exactly in int64.
_MAX_COUNT = 2**63 - 1
_MAX_CELL = _MAX_COUNT // 4


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, repr=False, init=False)
class GroupWeights:
    """A stochastic vector w over dense group ids 0..K-1.

    Holds one read-only float64 array; the tuple `w` is built on first access.
    """

    def __init__(self, w: Sequence[float]):
        arr = np.array(w, dtype=float)  # a copy: the caller's array stays theirs
        if arr.ndim != 1 or arr.size < 1:
            raise WeightError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise WeightError("weights must be finite")
        if np.any(arr < 0):
            raise WeightError("weights must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > WEIGHT_RENORM_TOL:
            raise WeightError(f"weights sum to {total}, not 1")
        if total != 1.0:
            arr = arr / total
        object.__setattr__(self, "_arr", _read_only(arr))

    @cached_property
    def w(self) -> tuple[float, ...]:
        return tuple(self._arr.tolist())

    @cached_property
    def shared(self) -> float | None:
        """The weight of every group when all are equal (about 1/K), else None."""
        lo = self._arr.min()
        return float(lo) if lo == self._arr.max() else None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._arr, other._arr)

    def __hash__(self) -> int:
        return hash(tuple(self._arr.tolist()))

    def __repr__(self) -> str:
        return f"GroupWeights(w={self.w!r})"

    @property
    def k(self) -> int:
        return self._arr.size

    @staticmethod
    def uniform(k: int) -> "GroupWeights":
        # k < 1 gives an empty vector, which the constructor rejects; the
        # divisor stays positive so that k = 0 does not divide by zero first.
        return GroupWeights(np.full(max(k, 0), 1.0 / max(k, 1)))

    def as_array(self) -> np.ndarray:
        return self._arr

    def __len__(self) -> int:
        return self._arr.size

    def __getitem__(self, g: int) -> float:
        return self._arr.item(g)


def _means_array(mu) -> np.ndarray:
    """A float64 copy of `mu`, each element converted as float() converts it."""
    try:
        arr = np.array(mu)
    except ValueError:  # ragged nesting
        arr = None
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in "biuf":
        return arr.astype(float, copy=False)
    # Anything else (strings, objects, generators, nested or 0-d input) takes
    # the element-wise path, which raises what float() raises.
    return np.array([float(x) for x in mu], dtype=float)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class FairnessInstance:
    """Ground truth: group weights plus per-group Bernoulli loss means.

    Holds the means as one read-only float64 array; the tuple `mu` is built
    on first access.
    """

    weights: GroupWeights

    def __init__(self, weights: GroupWeights, mu: Sequence[float]):
        arr = _means_array(mu)
        if arr.size != weights.k:
            raise ValueError("mu length must match number of groups")
        bad = ~((arr >= 0.0) & (arr <= 1.0))
        if bad.any():
            raise ValueError(f"group mean {arr.item(int(np.argmax(bad)))} outside [0, 1]")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_mu_arr", _read_only(arr))

    @cached_property
    def mu(self) -> tuple[float, ...]:
        return tuple(self._mu_arr.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.weights == other.weights and np.array_equal(self._mu_arr, other._mu_arr)

    def __hash__(self) -> int:
        return hash((self.weights, tuple(self._mu_arr.tolist())))

    def __repr__(self) -> str:
        return f"FairnessInstance(weights={self.weights!r}, mu={self.mu!r})"

    @property
    def k(self) -> int:
        return self.weights.k

    def mu_array(self) -> np.ndarray:
        return self._mu_arr


class MetricKind(Enum):
    """How raw classifier records map to binary losses."""

    EQUAL_OPPORTUNITY = "eo"  # loss = prediction, restricted to label-0 rows
    STATISTICAL_PARITY = "sp"  # loss = prediction, all rows


class _UnsortedNames(ValueError):
    """Group names that are not strictly increasing."""


def _count_array(values, what: str) -> np.ndarray:
    """A read-only int64 copy of a 1-d sequence of integer counts."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-d")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False)
class GroupCounts:
    """Per-group sufficient statistics of an audit dataset.

    Group g (a dense id) is named `names[g]`; it has `m[g]` samples, of which
    `s[g]` have loss 1.  Names are sorted and unique, so ids follow name
    order.  The audit statistic depends on the data only through (s, m).
    """

    names: tuple[str, ...]
    s: np.ndarray
    m: np.ndarray

    def __init__(self, names: Sequence[str], s, m, *, _names_sorted: bool = False):
        # _names_sorted: the caller built the names sorted and unique, as the
        # plain reader does from sorted, distinct packed keys, so their order
        # is not checked again.
        names_t = tuple(names)
        s_arr = _count_array(s, "s")
        m_arr = _count_array(m, "m")
        if not (len(names_t) == s_arr.size == m_arr.size):
            raise ValueError(
                f"lengths differ: {len(names_t)} names, {s_arr.size} s, {m_arr.size} m"
            )
        if not _names_sorted and not all(map(operator.lt, names_t, names_t[1:])):
            raise _UnsortedNames("group names must be sorted and unique")
        if np.any(s_arr < 0) or np.any(s_arr > m_arr):
            raise ValueError("counts must satisfy 0 <= s <= m")
        object.__setattr__(self, "names", names_t)
        object.__setattr__(self, "s", s_arr)
        object.__setattr__(self, "m", m_arr)

    @property
    def k(self) -> int:
        return len(self.names)

    @classmethod
    def from_cells(
        cls, names: Sequence[str], cells: np.ndarray, kind: MetricKind, *,
        _names_sorted: bool = False,
    ) -> "GroupCounts":
        """Per-group counts under the chosen metric from cells[g, y, yh], the
        number of rows of group g (named `names[g]`) with label y and
        prediction yh.

        Names may be in any order; the result is re-indexed by sorted name.
        Every named group is kept, even one whose rows conditioning drops.
        Equal opportunity keeps only label-0 rows, and needs at least one;
        statistical parity keeps all rows.  In both the loss is the prediction.
        Integer cells of any dtype are summed exactly; a group that keeps more
        than 2**63 - 1 rows is a ValueError.
        """
        cells = np.asarray(cells)
        k = len(names)
        if cells.shape != (k, 2, 2) or (cells.size and cells.min() < 0):
            raise ValueError(f"cells must be non-negative counts of shape ({k}, 2, 2)")
        if cells.dtype.kind in "iu":
            # Larger cells are added as Python ints, and the totals checked.
            wide = cells.size and cells.max() > _MAX_CELL
            cells = cells.astype(object if wide else np.int64, copy=False)
        # The kept rows per (group, prediction).  Explicit adds: a sum over
        # axes of length 2 takes an inner loop per group.
        if kind is MetricKind.EQUAL_OPPORTUNITY:
            kept = cells[:, 0]
            if not kept.any():
                raise EmptyAfterConditioning("no records with label 0")
        else:
            kept = cells[:, 0] + cells[:, 1]
        s = kept[:, 1]
        m = kept[:, 0] + s
        if m.dtype == object:
            big = np.flatnonzero(m > _MAX_COUNT)
            if big.size:
                g = int(big[0])
                raise ValueError(f"group {names[g]!r} keeps {m[g]} rows, more than {_MAX_COUNT}")
            s, m = s.astype(np.int64), m.astype(np.int64)
        try:
            # Names often come in sorted order; the constructor's check then
            # is the only pass over them, and `_names_sorted` skips even that.
            return cls(names, s, m, _names_sorted=_names_sorted)
        except _UnsortedNames:
            pass
        order = np.array(sorted(range(k), key=names.__getitem__), dtype=np.intp)
        return cls([names[g] for g in order.tolist()], s[order], m[order])


def empirical_instance(counts: GroupCounts, weights: GroupWeights) -> FairnessInstance:
    """Plug-in instance with per-group sample means (reporting helper only)."""
    if counts.k != weights.k:
        raise ValueError(f"counts cover {counts.k} groups, weights {weights.k}")
    m = counts.m
    missing = np.flatnonzero((weights.as_array() > 0) & (m == 0))
    if missing.size:
        raise MissingGroup(missing.tolist())
    mu = np.divide(counts.s, m, out=np.zeros(m.shape), where=m > 0)
    return FairnessInstance(weights, mu)
