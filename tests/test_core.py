"""Tests for the shared domain types."""

import dataclasses
import types

import numpy as np
import pytest

from fairaudit import core as core_module
from fairaudit.cli import read_records
from fairaudit.core import (
    FairnessInstance,
    GroupCounts,
    GroupWeights,
    MetricKind,
    _UnsortedNames,
    empirical_instance,
)
from fairaudit.errors import EmptyAfterConditioning, MissingGroup, WeightError

SP = MetricKind.STATISTICAL_PARITY
EO = MetricKind.EQUAL_OPPORTUNITY


def _from_rows(rows, kind, k=None):
    """Counts of (group id, label, prediction) rows; group g is named f"g{g}"."""
    if k is None:
        k = 1 + max((g for g, _, _ in rows), default=-1)
    cols = [[r[i] for r in rows] for i in range(3)]
    return GroupCounts.from_rows([f"g{g}" for g in range(k)], *cols, kind)


class TestGroupWeights:
    def test_uniform(self):
        w = GroupWeights.uniform(4)
        assert w.k == 4
        assert w.w == (0.25, 0.25, 0.25, 0.25)

    def test_sum_validated(self):
        w = GroupWeights([0.5, 0.5])
        assert abs(sum(w.w) - 1.0) <= 1e-12

    def test_renormalizes_small_drift(self):
        # Text-parsed weights that are off by less than 1e-9 are renormalized.
        w = GroupWeights([0.5, 0.5 + 1e-10])
        assert abs(sum(w.w) - 1.0) <= 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(WeightError):
            GroupWeights([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(WeightError):
            GroupWeights([1.5, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(WeightError):
            GroupWeights([])

    def test_equal_weights_hash_equal(self):
        a, b = GroupWeights([0.25, 0.75]), GroupWeights([0.25, 0.75])
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a.w)
        assert hash(a) == hash(a)  # the cached value on reuse
        assert GroupWeights([0.75, 0.25]) != a

    def test_indexing_and_len(self):
        w = GroupWeights([0.25, 0.75])
        assert len(w) == 2
        assert w[0] == 0.25
        assert w[1] == 0.75

    def test_as_array_read_only(self):
        w = GroupWeights([0.25, 0.75])
        arr = w.as_array()
        assert not arr.flags.writeable
        assert np.array_equal(arr, [0.25, 0.75])

    def test_zero_weight_group_allowed(self):
        w = GroupWeights([1.0, 0.0])
        assert w[1] == 0.0

    def test_rejects_non_finite(self):
        for bad in ([float("nan"), 0.5], [float("inf"), 0.0], [0.5, float("-inf")]):
            with pytest.raises(WeightError, match="finite"):
                GroupWeights(bad)


class TestFairnessInstance:
    def test_valid(self):
        inst = FairnessInstance(GroupWeights([0.5, 0.5]), [0.5, 0.9])
        assert inst.k == 2
        assert inst.mu == (0.5, 0.9)

    def test_rejects_mu_out_of_range(self):
        with pytest.raises(ValueError):
            FairnessInstance(GroupWeights([0.5, 0.5]), [0.5, 1.1])
        with pytest.raises(ValueError):
            FairnessInstance(GroupWeights([0.5, 0.5]), [-0.1, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FairnessInstance(GroupWeights([0.5, 0.5]), [0.5])

    def test_mu_array_read_only(self):
        inst = FairnessInstance(GroupWeights([0.5, 0.5]), [0.0, 1.0])
        arr = inst.mu_array()
        assert not arr.flags.writeable
        assert np.array_equal(arr, [0.0, 1.0])


def _weights_reference(w):
    """GroupWeights' checks and tuple as a per-element loop (reference)."""
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise WeightError("weights must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise WeightError("weights must be finite")
    if np.any(arr < 0):
        raise WeightError("weights must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise WeightError(f"weights sum to {total}, not 1")
    if total != 1.0:
        arr = arr / total
    return tuple(float(x) for x in arr)


def _means_reference(k, mu):
    """FairnessInstance's checks and tuple as a per-element loop (reference)."""
    mu_t = tuple(float(x) for x in mu)
    if len(mu_t) != k:
        raise ValueError("mu length must match number of groups")
    for x in mu_t:
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"group mean {x} outside [0, 1]")
    return mu_t


def _outcome(build):
    """("ok", the bit patterns of the tuple) or (exception type, message)."""
    try:
        values = build()
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return "ok", [x.hex() for x in values]


# Inputs as factories, so that each side gets its own generator.
_WEIGHT_INPUTS = {
    "list": lambda: [0.25, 0.75],
    "tuple": lambda: (0.25, 0.75),
    "array": lambda: np.array([0.25, 0.75]),
    "float32_array": lambda: np.array([0.1, 0.9], dtype=np.float32),
    "int": lambda: [1],
    "ints": lambda: [1, 0],
    "int_array": lambda: np.array([0, 1, 0]),
    "bool": lambda: [True, False],
    "numpy_scalars": lambda: [np.float64(0.5), np.float32(0.5)],
    "numpy_scalar": lambda: np.float64(1.0),
    "scalar": lambda: 1.0,
    "generator": lambda: (x for x in [0.5, 0.5]),
    "strings": lambda: ["0.5", "0.5"],
    "none": lambda: [None, 1.0],
    "nan": lambda: [float("nan"), 0.5],
    "inf": lambda: [float("inf"), 0.0],
    "neg_inf": lambda: [0.5, float("-inf")],
    "negative": lambda: [1.5, -0.5],
    "negative_zero": lambda: [-0.0, 1.0],
    "off_sum": lambda: [0.5, 0.6],
    "small_drift": lambda: [0.5, 0.5 + 1e-10],
    "tenths": lambda: [0.1] * 10,
    "empty": lambda: [],
    "empty_array": lambda: np.zeros(0),
    "two_d": lambda: [[0.5, 0.5]],
    "two_d_array": lambda: np.full((2, 2), 0.25),
    "ragged": lambda: [[0.5], 0.5],
    "dirichlet": lambda: np.random.default_rng(3).dirichlet(np.ones(257)),
}

_MEAN_INPUTS = {
    "list": lambda: [0.5, 0.9],
    "tuple": lambda: (0.0, 1.0),
    "array": lambda: np.array([0.25, 0.75]),
    "float32_array": lambda: np.array([0.1, 0.9], dtype=np.float32),
    "ints": lambda: [0, 1],
    "int_array": lambda: np.array([1, 0], dtype=np.int8),
    "bool": lambda: [True, False],
    "bool_array": lambda: np.array([False, True]),
    "numpy_scalars": lambda: [np.float64(0.5), np.float32(0.1)],
    "numpy_scalar": lambda: np.float64(0.5),
    "scalar": lambda: 0.5,
    "generator": lambda: (x for x in [0.5, 0.9]),
    "strings": lambda: ["0.5", "0.25"],
    "string": lambda: "01",
    "none": lambda: [None, 0.5],
    "complex": lambda: [0.5 + 0j, 0.5],
    "huge_int": lambda: [2**70, 0],
    "above_one": lambda: [0.5, 1.1],
    "first_bad_named": lambda: [-0.1, 2.0],
    "nan": lambda: [float("nan"), 2.0],
    "inf": lambda: [0.5, float("inf")],
    "nan_array": lambda: np.array([0.5, np.nan]),
    "negative_zero": lambda: [-0.0, 0.5],
    "short": lambda: [0.5],
    "long": lambda: [0.5, 0.5, 0.5],
    "bad_and_short": lambda: [1.5],
    "empty": lambda: [],
    "nested": lambda: [[0.5], [0.5]],
    "ragged": lambda: [[0.5], 0.5],
    "row": lambda: np.array([[0.5, 0.9]]),
}


class TestConstructorParity:
    """GroupWeights and FairnessInstance accept, reject and store exactly what
    the per-element loops they replaced did."""

    @pytest.mark.parametrize("name", sorted(_WEIGHT_INPUTS))
    def test_weights(self, name):
        make = _WEIGHT_INPUTS[name]
        assert _outcome(lambda: GroupWeights(make()).w) == _outcome(
            lambda: _weights_reference(make())
        )

    @pytest.mark.parametrize("name", sorted(_MEAN_INPUTS))
    def test_means(self, name):
        make, w = _MEAN_INPUTS[name], GroupWeights([0.5, 0.5])
        assert _outcome(lambda: FairnessInstance(w, make()).mu) == _outcome(
            lambda: _means_reference(2, make())
        )

    def test_uniform(self):
        for k in (1, 3, 10, 4097):
            assert _outcome(lambda: GroupWeights.uniform(k).w) == _outcome(
                lambda: _weights_reference([1.0 / k] * k)
            )
        for k in (-2, 0):
            want = _outcome(lambda: _weights_reference([1.0 / k] * k))
            assert _outcome(lambda: GroupWeights.uniform(k).w) == want

    def test_arrays_match_tuples(self):
        w = GroupWeights(np.random.default_rng(5).dirichlet(np.ones(64)))
        inst = FairnessInstance(w, np.random.default_rng(6).random(64))
        assert w.as_array().tolist() == list(w.w)
        assert inst.mu_array().tolist() == list(inst.mu)
        assert [w[g] for g in range(64)] == list(w.w)
        assert type(w[0]) is float and type(inst.mu[0]) is float

    def test_equal_objects_compare_and_hash_equal(self):
        a, b = GroupWeights([0.25, 0.75]), GroupWeights(np.array([0.25, 0.75]))
        assert a == b and hash(a) == hash(b) == hash(a.w)
        assert a != GroupWeights([0.25, 0.25, 0.5]) and a != (0.25, 0.75)
        x, y = FairnessInstance(a, [0.5, 0.9]), FairnessInstance(b, (0.5, 0.9))
        assert x is not y and x == y and hash(x) == hash(y) == hash((a, x.mu))
        assert x != FairnessInstance(a, [0.5, 0.8])
        assert x != FairnessInstance(GroupWeights([0.75, 0.25]), [0.5, 0.9])

    def test_input_arrays_copied(self):
        raw, mu = np.array([0.25, 0.75]), np.array([0.5, 0.9])
        w = GroupWeights(raw)
        inst = FairnessInstance(w, mu)
        assert raw.flags.writeable and mu.flags.writeable
        raw[0], mu[0] = 0.5, 0.0
        assert w.w == (0.25, 0.75) and inst.mu == (0.5, 0.9)
        assert not w.as_array().flags.writeable and not inst.mu_array().flags.writeable

    def test_frozen(self):
        w = GroupWeights([1.0])
        inst = FairnessInstance(w, [0.5])
        for obj, attr in ((w, "w"), (inst, "mu"), (inst, "weights")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, attr, None)

    def test_repr(self):
        inst = FairnessInstance(GroupWeights([0.5, 0.5]), [0.0, 1.0])
        assert repr(inst) == (
            "FairnessInstance(weights=GroupWeights(w=(0.5, 0.5)), mu=(0.0, 1.0))"
        )


class TestGroupCounts:
    def test_fields(self):
        c = GroupCounts(["a", "b"], [0, 2], [1, 3])
        assert c.names == ("a", "b")
        assert c.k == 2
        assert c.s.dtype == np.int64 and c.m.dtype == np.int64
        assert c.s.tolist() == [0, 2] and c.m.tolist() == [1, 3]

    def test_arrays_read_only_copies(self):
        m = np.array([1, 3])
        c = GroupCounts(["a", "b"], [0, 2], m)
        m[0] = 7
        assert c.m.tolist() == [1, 3]
        assert not c.s.flags.writeable and not c.m.flags.writeable

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GroupCounts(["a", "b"], [0], [1, 1])
        with pytest.raises(ValueError):
            GroupCounts(["a"], [0, 0], [1, 1])

    def test_rejects_s_outside_0_m(self):
        with pytest.raises(ValueError):
            GroupCounts(["a"], [2], [1])
        with pytest.raises(ValueError):
            GroupCounts(["a"], [-1], [1])

    def test_rejects_unsorted_or_repeated_names(self):
        with pytest.raises(ValueError):
            GroupCounts(["b", "a"], [0, 0], [1, 1])
        with pytest.raises(ValueError):
            GroupCounts(["a", "a"], [0, 0], [1, 1])

    @pytest.mark.parametrize("build", ["constructor", "from_rows", "from_cells"])
    def test_unsorted_or_repeated_names_still_checked(self, build):
        # The constructor takes names only in strictly increasing order;
        # from_rows and from_cells sort them by name, and so reject a repeat.
        def make(names):
            if build == "constructor":
                return GroupCounts(names, [0, 0], [1, 1])
            if build == "from_rows":
                return GroupCounts.from_rows(names, [0, 1], [0, 0], [0, 1], SP)
            return GroupCounts.from_cells(names, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]], SP)

        with pytest.raises(_UnsortedNames):
            make(["a", "a"])
        if build == "constructor":
            with pytest.raises(_UnsortedNames):
                make(["b", "a"])
        else:
            c = make(["b", "a"])
            assert (c.names, c.s.tolist(), c.m.tolist()) == (("a", "b"), [1, 0], [1, 1])

    def test_plain_reader_does_not_recheck_its_sorted_names(self, tmp_path, monkeypatch):
        # Its names come from sorted, distinct packed keys; a caller's names
        # still get the check.
        compared = []
        monkeypatch.setattr(core_module, "operator", types.SimpleNamespace(
            lt=lambda a, b: compared.append(a) or a < b))
        path = tmp_path / "data.csv"
        path.write_text("group,label,prediction\nb,0,1\na,0,0\nc,1,1\n", encoding="utf-8")
        counts = read_records(str(path), SP)
        assert counts.names == ("a", "b", "c") and compared == []
        GroupCounts.from_cells(list(counts.names), np.ones((3, 2, 2), np.int64), SP)
        assert compared == ["a", "b"]

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            GroupCounts(["a"], [0.5], [1])

    def test_from_rows_orders_by_name(self):
        c = GroupCounts.from_rows(["zeta", "alpha"], [0, 1, 0], [0, 0, 1], [1, 0, 0], SP)
        assert c.names == ("alpha", "zeta")
        assert c.m.tolist() == [1, 2]
        assert c.s.tolist() == [0, 1]

    def test_from_rows_same_counts_in_any_name_order(self):
        # Sorted names take the path without a sort; first-appearance order
        # (as the csv.reader path hands them) is sorted first.
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(1, 40))
            names = sorted({f"g{x}" for x in rng.integers(0, 10**6, k)})
            k = len(names)
            rows = rng.integers(0, (k, 2, 2), size=(int(rng.integers(1, 200)), 3))
            want = GroupCounts.from_rows(names, *rows.T, SP)
            perm = rng.permutation(k)
            shuffled = [names[g] for g in perm]
            rank = np.argsort(perm)  # the shuffled id of each sorted id
            got = GroupCounts.from_rows(shuffled, rank[rows[:, 0]], *rows[:, 1:].T, SP)
            assert got.names == want.names == tuple(names)
            assert got.m.tolist() == want.m.tolist() and got.s.tolist() == want.s.tolist()

    def test_from_rows_rejects_repeated_names(self):
        for names in (["a", "a"], ["b", "a", "b"]):
            with pytest.raises(ValueError, match="sorted and unique"):
                GroupCounts.from_rows(names, [0, 1], [0, 0], [1, 0], SP)


class TestAuditSample:
    """Per-row invariants (a valid group id and a 0/1 loss), checked when rows
    are reduced to counts."""

    def test_valid(self):
        c = _from_rows([(3, 0, 1)], SP)
        assert c.m.tolist() == [0, 0, 0, 1]
        assert c.s.tolist() == [0, 0, 0, 1]

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            _from_rows([(0, 0, 2)], SP)

    def test_rejects_negative_group(self):
        with pytest.raises(ValueError):
            _from_rows([(-1, 0, 0)], SP, k=1)


class TestFromRowsInputs:
    """Integer and bool arrays are reduced in their own dtypes; every other
    input is read as int64 first.  Floats must be whole numbers: a fraction
    is rejected, not truncated."""

    GROUP, LABEL, PRED = [0, 1, 1, 2], [0, 1, 0, 0], [1, 0, 1, 1]
    # (SP m, SP s) and (EO m, EO s) of the rows above, over groups g0..g2.
    WANT = {SP: ([1, 2, 1], [1, 1, 1]), EO: ([1, 1, 1], [1, 1, 1])}

    @pytest.mark.parametrize("ids, bits", [
        (np.int32, np.uint8),  # as the plain CSV reader hands them
        (np.int32, bool),
        (np.uint8, np.int8),
        (np.uint64, np.uint64),
        (list, list),
        (float, float),
        (np.float64, np.float64),
    ], ids=["int32_uint8", "int32_bool", "uint8_int8", "uint64", "list", "float_list",
            "float_array"])
    def test_accepted_kinds(self, ids, bits):
        def column(values, kind):
            if kind is list:
                return list(values)
            if kind is float:
                return [float(x) for x in values]
            return np.array(values, kind)

        cols = [column(self.GROUP, ids), column(self.LABEL, bits), column(self.PRED, bits)]
        before = [np.array(c, copy=True) for c in cols]
        for kind in (SP, EO):
            c = GroupCounts.from_rows(["g0", "g1", "g2"], *cols, kind)
            assert (c.m.tolist(), c.s.tolist()) == self.WANT[kind]
            assert c.m.dtype == c.s.dtype == np.int64
        for col, old in zip(cols, before):  # the inputs are left as they were
            assert np.array_equal(col, old)

    @pytest.mark.parametrize("column, values, error, match", [
        (0, np.array([0, 1, 1, 3], np.int32), ValueError, "group ids must lie in 0..2"),
        (0, np.array([0, -1, 1, 2], np.int32), ValueError, "group ids must lie in 0..2"),
        (0, np.array([0, 2**63, 1, 2], np.uint64), ValueError, "group ids must lie in 0..2"),
        (0, [0, 1.5, 3.5, 2], ValueError, "group ids must hold whole numbers"),
        (0, [0, 2**63, 1, 2], ValueError, "group ids must lie in 0..2"),
        (1, np.array([0, 2, 0, 0], np.uint8), ValueError, "label must be 0 or 1"),
        (1, np.array([0, 255, 0, 0], np.uint8), ValueError, "label must be 0 or 1"),
        (2, np.array([1, 0, -1, 1], np.int8), ValueError, "prediction must be 0 or 1"),
        (2, [1, 0, 2.0, 1], ValueError, "prediction must be 0 or 1"),
        (2, np.array([[1, 0, 1, 1]], np.uint8), ValueError, "1-d and equally long"),
        (2, np.array([1, 0, 1], np.uint8), ValueError, "1-d and equally long"),
        (1, [None, 1, 0, 0], TypeError, None),
        (0, np.array([0, 1, 1, 2]) + 0.25, ValueError, "group ids must hold whole numbers"),
        (1, [0, 1.5, 0, 0], ValueError, "label must hold whole numbers"),
        (1, np.array([0.0, 0.5, 0.0, 0.0]), ValueError, "label must hold whole numbers"),
        (2, np.array([1.0, 0.0, np.nan, 1.0]), ValueError, "prediction must hold whole numbers"),
        (2, [1.0, 0.0, np.inf, 1.0], ValueError, "prediction must hold whole numbers"),
        (2, np.array([1.0, 0.0, 2.0, 1.0]), ValueError, "prediction must be 0 or 1"),
        # Whole floats past int64, which numpy's cast would wrap with a warning.
        (0, np.array([0.0, 1e20, 1.0, 2.0]), ValueError, "group ids must lie in 0..2"),
        (0, np.array([0.0, -2.0**64, 1.0, 2.0]), ValueError, "group ids must lie in 0..2"),
        (1, np.array([0.0, 2.0**63, 0.0, 0.0]), ValueError, "label must be 0 or 1"),
        (2, np.array([1, 0, 1e30, 1], np.float32), ValueError, "prediction must be 0 or 1"),
        # Whole numbers past int64 in a list, which numpy cannot convert at all.
        (0, [0.0, 1e20, 1.0, 2.0], ValueError, "group ids must lie in 0..2"),
        (0, [0, 2**64, 1, 2], ValueError, "group ids must lie in 0..2"),
        (0, [0, -2**63 - 1, 1, 2], ValueError, "group ids must lie in 0..2"),
        (1, [0, 10**30, 0, 0], ValueError, "label must be 0 or 1"),
        # Complex numbers, whose imaginary part a cast would drop with a warning.
        (0, np.array([0, 1 + 3j, 1, 2]), ValueError, "group ids must hold whole numbers"),
        (1, np.array([0, 1, 0, 0], complex), ValueError, "label must hold whole numbers"),
        (2, np.array([1, 0, 1, 1], np.complex64), ValueError,
         "prediction must hold whole numbers"),
        (2, [1, 0, 1j, 1], ValueError, "prediction must hold whole numbers"),
        # None or a string int() cannot read: the column is named in the message.
        (0, [0, None, 1, 2], TypeError, "group ids must hold whole numbers, got int()"),
        (1, ["x", 1, 0, 0], ValueError, "label must hold whole numbers, got invalid literal"),
        (2, [1, 0, "y", 1], ValueError, "prediction must hold whole numbers, got invalid"),
        (0, [0, 2**70, None, 2], TypeError, "group ids must hold whole numbers, got bad operand"),
    ])
    def test_rejected_kinds(self, column, values, error, match):
        cols = [self.GROUP, self.LABEL, self.PRED]
        cols[column] = values
        with pytest.raises(error, match=match):
            GroupCounts.from_rows(["g0", "g1", "g2"], *cols, SP)

    def test_no_label_zero_in_any_kind(self):
        for label in ([1, 1], np.ones(2, np.uint8), np.ones(2, bool), [1.0, 1.0]):
            with pytest.raises(EmptyAfterConditioning):
                GroupCounts.from_rows(["a"], [0, 0], label, [0, 1], EO)


class TestFromCells:
    """Counts per (group, label, prediction) reduce as the rows they count."""

    def test_matches_from_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            names = [f"g{g}" for g in rng.permutation(k)]  # in any order
            rows = rng.integers(0, (k, 2, 2), size=(int(rng.integers(1, 30)), 3))
            cells = np.zeros((k, 2, 2), np.int64)
            np.add.at(cells, tuple(rows.T), 1)
            for kind in (SP, EO):
                if kind is EO and not np.any(rows[:, 1] == 0):
                    with pytest.raises(EmptyAfterConditioning, match="no records with label 0"):
                        GroupCounts.from_cells(names, cells, kind)
                    continue
                got = GroupCounts.from_cells(names, cells, kind)
                want = GroupCounts.from_rows(names, *rows.T, kind)
                assert got.names == want.names
                assert got.s.tolist() == want.s.tolist()
                assert got.m.tolist() == want.m.tolist()

    def test_label_one_groups_kept_under_eo(self):
        c = GroupCounts.from_cells(["a", "b"], [[[1, 2], [0, 0]], [[0, 0], [3, 4]]], EO)
        assert (c.m.tolist(), c.s.tolist()) == ([3, 0], [2, 0])

    @pytest.mark.parametrize("cells", [
        np.zeros((2, 2, 2), np.int64),
        np.zeros((1, 4), np.int64),
        np.array([[[1, -1], [0, 0]]]),
    ])
    def test_rejects_bad_cells(self, cells):
        with pytest.raises(ValueError, match=r"cells must be non-negative counts of shape \(1, 2, 2\)"):
            GroupCounts.from_cells(["a"], cells, SP)


class TestRecordsToSamples:
    """Metric conditioning of raw (group, label, prediction) rows."""

    def test_equal_opportunity_keeps_label_zero(self):
        c = _from_rows([(0, 0, 1), (0, 1, 1)], EO)
        assert (c.m.tolist(), c.s.tolist()) == ([1], [1])

    def test_statistical_parity_keeps_all(self):
        c = _from_rows([(1, 1, 0)], SP)
        assert (c.m.tolist(), c.s.tolist()) == ([0, 1], [0, 0])

    def test_equal_opportunity_empty_raises(self):
        with pytest.raises(EmptyAfterConditioning):
            _from_rows([(0, 1, 1)], EO)

    def test_counts_per_metric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            rows = [tuple(int(x) for x in rng.integers(0, (3, 2, 2))) for _ in range(n)]
            sp = _from_rows(rows, SP, k=3)
            assert int(sp.m.sum()) == n
            assert sp.m.tolist() == [sum(1 for r in rows if r[0] == g) for g in range(3)]
            n_zero = sum(1 for r in rows if r[1] == 0)
            if n_zero == 0:
                with pytest.raises(EmptyAfterConditioning):
                    _from_rows(rows, EO, k=3)
            else:
                eo = _from_rows(rows, EO, k=3)
                assert int(eo.m.sum()) == n_zero
                assert eo.s.tolist() == [
                    sum(r[2] for r in rows if r[0] == g and r[1] == 0) for g in range(3)
                ]

    def test_payload_is_opaque(self, tmp_path):
        # Columns other than group, label and prediction do not affect the counts.
        plain = tmp_path / "plain.csv"
        plain.write_text("group,label,prediction\na,0,1\nb,1,0\n", encoding="utf-8")
        extra = tmp_path / "extra.csv"
        extra.write_text(
            'payload,prediction,group,label\n"{""row"": 17}",1,a,0\n"x,y",0,b,1\n',
            encoding="utf-8",
        )
        for kind in (SP, EO):
            a, b = read_records(str(plain), kind), read_records(str(extra), kind)
            assert a.names == b.names
            assert a.m.tolist() == b.m.tolist() and a.s.tolist() == b.s.tolist()


class TestEmpiricalInstance:
    def test_sample_mean(self):
        counts = _from_rows([(0, 0, 1), (0, 0, 1), (0, 0, 0)], SP)
        inst = empirical_instance(counts, GroupWeights([1.0]))
        assert abs(inst.mu[0] - 2.0 / 3.0) <= 1e-15

    def test_two_groups(self):
        counts = _from_rows([(0, 0, 0), (1, 0, 1)], SP)
        inst = empirical_instance(counts, GroupWeights([0.5, 0.5]))
        assert inst.mu == (0.0, 1.0)

    def test_missing_group(self):
        counts = _from_rows([(0, 0, 1)], SP, k=2)
        with pytest.raises(MissingGroup):
            empirical_instance(counts, GroupWeights([0.5, 0.5]))

    def test_missing_group_message_names_a_few(self):
        counts = _from_rows([(0, 0, 1)], SP, k=3000)
        with pytest.raises(MissingGroup) as err:
            empirical_instance(counts, GroupWeights.uniform(3000))
        assert err.value.groups == tuple(range(1, 3000))
        assert str(err.value) == (
            "no samples for positive-weight groups: 1, 2, 3, 4, 5 ... (2999 groups in all)"
        )

    def test_zero_weight_group_may_be_absent(self):
        counts = _from_rows([(0, 0, 1)], SP, k=2)
        inst = empirical_instance(counts, GroupWeights([1.0, 0.0]))
        assert inst.mu == (1.0, 0.0)

    def test_group_count_mismatch(self):
        counts = _from_rows([(0, 0, 1)], SP, k=2)
        with pytest.raises(ValueError):
            empirical_instance(counts, GroupWeights([1.0]))
