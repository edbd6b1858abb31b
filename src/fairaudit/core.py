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
from typing import Sequence

import numpy as np

from .errors import EmptyAfterConditioning, MissingGroup, WeightError

# Weight vectors must sum to 1 within this tolerance after normalization.
WEIGHT_SUM_TOL = 1e-12
# If the raw sum is off by at most this much we silently renormalize
# (tolerates text-parsed weights); beyond it we raise.
WEIGHT_RENORM_TOL = 1e-9


@dataclass(frozen=True)
class GroupWeights:
    """A stochastic vector w over dense group ids 0..K-1."""

    w: tuple[float, ...]

    def __init__(self, w: Sequence[float]):
        arr = np.asarray(w, dtype=float)
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
        object.__setattr__(self, "w", tuple(float(x) for x in arr))
        cached = np.asarray(self.w, dtype=float)
        cached.flags.writeable = False
        object.__setattr__(self, "_arr", cached)

    def __hash__(self) -> int:
        # Computed once, on first use: plans hash their weights on every
        # inclusion_array lookup, and K floats take about 1 ms at K=65536.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.w)
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def k(self) -> int:
        return len(self.w)

    @staticmethod
    def uniform(k: int) -> "GroupWeights":
        return GroupWeights([1.0 / k] * k)

    def as_array(self) -> np.ndarray:
        return self._arr  # read-only view cached at construction

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, g: int) -> float:
        return self.w[g]


@dataclass(frozen=True)
class FairnessInstance:
    """Ground truth: group weights plus per-group Bernoulli loss means."""

    weights: GroupWeights
    mu: tuple[float, ...]

    def __init__(self, weights: GroupWeights, mu: Sequence[float]):
        mu_t = tuple(float(x) for x in mu)
        if len(mu_t) != weights.k:
            raise ValueError("mu length must match number of groups")
        for x in mu_t:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"group mean {x} outside [0, 1]")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mu", mu_t)
        cached = np.asarray(mu_t, dtype=float)
        cached.flags.writeable = False
        object.__setattr__(self, "_mu_arr", cached)

    @property
    def k(self) -> int:
        return self.weights.k

    def mu_array(self) -> np.ndarray:
        return self._mu_arr  # read-only view cached at construction


class MetricKind(Enum):
    """How raw classifier records map to binary losses."""

    EQUAL_OPPORTUNITY = "eo"  # loss = prediction, restricted to label-0 rows
    STATISTICAL_PARITY = "sp"  # loss = prediction, all rows




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


@dataclass(frozen=True, eq=False)
class GroupCounts:
    """Per-group sufficient statistics of an audit dataset.

    Group g (a dense id) is named `names[g]`; it has `m[g]` samples, of which
    `s[g]` have loss 1.  Names are sorted and unique, so ids follow name
    order.  The audit statistic depends on the data only through (s, m).
    """

    names: tuple[str, ...]
    s: np.ndarray
    m: np.ndarray

    def __init__(self, names: Sequence[str], s, m):
        names_t = tuple(names)
        s_arr = _count_array(s, "s")
        m_arr = _count_array(m, "m")
        if not (len(names_t) == s_arr.size == m_arr.size):
            raise ValueError(
                f"lengths differ: {len(names_t)} names, {s_arr.size} s, {m_arr.size} m"
            )
        if not all(map(operator.lt, names_t, names_t[1:])):
            raise ValueError("group names must be sorted and unique")
        if np.any(s_arr < 0) or np.any(s_arr > m_arr):
            raise ValueError("counts must satisfy 0 <= s <= m")
        object.__setattr__(self, "names", names_t)
        object.__setattr__(self, "s", s_arr)
        object.__setattr__(self, "m", m_arr)

    @property
    def k(self) -> int:
        return len(self.names)

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        group: Sequence[int],
        label: Sequence[int],
        prediction: Sequence[int],
        kind: MetricKind,
    ) -> "GroupCounts":
        """Reduce per-row columns to per-group counts under the chosen metric.

        `group` holds dense ids into `names`, which may be in any order (a
        reader assigns ids as names first appear); the result is re-indexed
        by sorted name.  Every named group is kept, even one whose rows
        conditioning drops.  Equal opportunity keeps only label-0 rows;
        statistical parity keeps all rows.  In both the loss is the prediction.
        """
        k = len(names)
        group = np.asarray(group, dtype=np.int64)
        label = np.asarray(label, dtype=np.int64)
        loss = np.asarray(prediction, dtype=np.int64)
        if not (group.shape == label.shape == loss.shape) or group.ndim != 1:
            raise ValueError("group, label and prediction must be 1-d and equally long")
        if group.size and (group.min() < 0 or group.max() >= k):
            raise ValueError(f"group ids must lie in 0..{k - 1}")
        for column, values in (("label", label), ("prediction", loss)):
            if np.any((values != 0) & (values != 1)):
                raise ValueError(f"{column} must be 0 or 1")
        if kind is MetricKind.EQUAL_OPPORTUNITY:
            keep = label == 0
            if not keep.any():
                raise EmptyAfterConditioning("no records with label 0")
            group, loss = group[keep], loss[keep]
        order = sorted(range(k), key=names.__getitem__)
        m = np.bincount(group, minlength=k)[order]
        s = np.bincount(group[loss == 1], minlength=k)[order]
        return cls([names[g] for g in order], s, m)


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
