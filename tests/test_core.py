"""Tests for the shared domain types."""

import numpy as np
import pytest

from fairaudit.cli import read_records
from fairaudit.core import (
    FairnessInstance,
    GroupCounts,
    GroupWeights,
    MetricKind,
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

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            GroupCounts(["a"], [0.5], [1])

    def test_from_rows_orders_by_name(self):
        c = GroupCounts.from_rows(["zeta", "alpha"], [0, 1, 0], [0, 0, 1], [1, 0, 0], SP)
        assert c.names == ("alpha", "zeta")
        assert c.m.tolist() == [1, 2]
        assert c.s.tolist() == [0, 1]


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
