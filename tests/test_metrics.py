"""Tests for the exact fairness metrics."""

import math

import numpy as np
import pytest

from conftest import _random_instances
from fairaudit.core import FairnessInstance, GroupWeights
from fairaudit.cvar_test import Region, classify_region
from fairaudit import metrics
from fairaudit.errors import InstanceTooLarge
from fairaudit.metrics import (
    FILL_CHUNK,
    CVaRMode,
    alpha_star,
    average_quality,
    cvar_fairness,
    gap_vector,
    max_gap,
    separation_statistic,
)

FOUR_GROUP = FairnessInstance(GroupWeights.uniform(4), [0.5, 0.5, 0.5, 1.0])
TWO_GROUP = FairnessInstance(GroupWeights([0.5, 0.5]), [0.5, 0.9])


def random_instance(rng, k=None):
    if k is None:
        k = int(rng.integers(2, 11))
    if rng.random() < 0.5:
        w = GroupWeights.uniform(k)
    else:
        raw = rng.dirichlet(np.ones(k))
        w = GroupWeights(raw / raw.sum())
    mu = rng.random(k)
    return FairnessInstance(w, mu)


class TestAverageQuality:
    def test_two_group(self):
        assert abs(average_quality(TWO_GROUP) - 0.7) <= 1e-12

    def test_four_group(self):
        assert abs(average_quality(FOUR_GROUP) - 0.625) <= 1e-12

    def test_constant_means(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            c = float(rng.random())
            inst = FairnessInstance(GroupWeights(rng.dirichlet(np.ones(k))), [c] * k)
            assert abs(average_quality(inst) - c) <= 1e-12


class TestGapVector:
    def test_two_group(self):
        gv = gap_vector(TWO_GROUP)
        assert np.allclose(gv.delta, (0.2, 0.2), atol=1e-12)
        assert abs(gv.lbar - 0.7) <= 1e-12

    def test_four_group(self):
        gv = gap_vector(FOUR_GROUP)
        assert np.allclose(gv.delta, (0.125, 0.125, 0.125, 0.375), atol=1e-12)

    def test_all_equal_is_zero(self):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.4, 0.4, 0.4])
        assert gap_vector(inst).delta == (0.0, 0.0, 0.0)


class TestMaxGap:
    def test_two_group(self):
        assert abs(max_gap(TWO_GROUP) - 0.2) <= 1e-12

    def test_all_equal(self):
        inst = FairnessInstance(GroupWeights.uniform(5), [0.3] * 5)
        assert max_gap(inst) == 0.0

    def test_single_perturbed_group(self):
        # One of 4 uniform groups at 1/2 + epsilon*4/3, the rest at 1/2:
        # the weighted mean shifts so the perturbed group's gap is epsilon.
        eps = 0.25
        inst = FairnessInstance(
            GroupWeights.uniform(4), [0.5 + eps * 4 / 3, 0.5, 0.5, 0.5]
        )
        assert abs(max_gap(inst) - eps) <= 1e-12

    def test_matches_the_largest_of_all_gaps(self):
        # Read from the extreme means alone, the largest gap keeps the bits of
        # the largest of all K gaps: for equal means (whose Lbar can round
        # away from them) and for an Lbar that equals the largest or the
        # smallest mean (all weight on that group).
        rng = np.random.default_rng(63)
        for case in range(600):
            k = int(rng.choice([1, 2, 3, 17, 1000, 4099]))
            raw = rng.dirichlet(np.ones(k)) if rng.random() < 0.5 else np.ones(k)
            mu = rng.random(k) if case % 3 else np.full(k, rng.choice([0.1, 0.3, rng.random()]))
            if case % 5 == 0:
                raw = np.zeros(k)
                raw[int(np.argmax(mu) if case % 2 else np.argmin(mu))] = 1.0
            inst = FairnessInstance(GroupWeights(raw / raw.sum()), mu)
            lbar = average_quality(inst)
            if case % 5 == 0:
                assert lbar in (mu.max(), mu.min())
            assert max_gap(inst).hex() == float(np.abs(mu - lbar).max()).hex(), case


def _fractional_loop(inst, alpha):
    """Oracle: the greedy fill as a plain loop over groups in gap order."""
    budget = 1.0 - alpha
    w = inst.weights.as_array()
    delta = np.abs(inst.mu_array() - average_quality(inst))
    used = 0.0
    total = 0.0
    for g in np.argsort(-delta, kind="stable"):
        if w[g] <= 0.0:
            continue  # no mass to take; later groups may still have some
        take = min(w[g], budget - used)
        if take <= 0.0:
            break
        total += take * delta[g]
        used += take
    return float(total / budget)


class TestCVaRFairness:
    def test_alpha_zero_is_average_gap(self):
        assert abs(cvar_fairness(FOUR_GROUP, 0.0) - 0.1875) <= 1e-12

    def test_single_group_budget_recovers_max(self):
        for mode in CVaRMode:
            assert abs(cvar_fairness(FOUR_GROUP, 0.75, mode) - 0.375) <= 1e-12

    def test_fractional_partial_group(self):
        # Budget 0.375 takes all of the worst group (0.25 mass at gap 0.375)
        # and 0.125 mass of the next at gap 0.125.
        expected = (0.25 * 0.375 + 0.125 * 0.125) / 0.375
        got = cvar_fairness(FOUR_GROUP, 0.625, CVaRMode.FRACTIONAL)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.2916666666666667) <= 1e-12

    def test_exact_subset_partial_budget(self):
        # At budget 0.375 only single-group subsets fit; best is the 0.375-gap
        # group: 0.25 * 0.375 / 0.375 = 0.25.
        got = cvar_fairness(FOUR_GROUP, 0.625, CVaRMode.EXACT_SUBSET)
        assert abs(got - 0.25) <= 1e-12

    def test_exact_subset_large_k_rejected(self):
        inst = FairnessInstance(GroupWeights.uniform(26), [0.5] * 26)
        with pytest.raises(InstanceTooLarge):
            cvar_fairness(inst, 0.5, CVaRMode.EXACT_SUBSET)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            cvar_fairness(FOUR_GROUP, 1.0)
        with pytest.raises(ValueError):
            cvar_fairness(FOUR_GROUP, -0.1)

    def test_sandwich_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            inst = random_instance(rng)
            mg = max_gap(inst)
            for alpha in (0.0, 0.25, 0.5, 0.9):
                val = cvar_fairness(inst, alpha)
                assert -1e-12 <= val <= mg + 1e-12 <= 1.0 + 2e-12

    def test_fractional_dominates_exact_subset(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            inst = random_instance(rng, k=int(rng.integers(2, 7)))
            for alpha in (0.1, 0.5, 0.8):
                frac = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
                exact = cvar_fairness(inst, alpha, CVaRMode.EXACT_SUBSET)
                assert frac >= exact - 1e-12

    def test_modes_agree_at_integral_budget(self):
        # Uniform weights with (1-alpha)*K an integer: the greedy fill ends
        # exactly on a group boundary, so both modes coincide.
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            inst = FairnessInstance(GroupWeights.uniform(k), rng.random(k))
            for j in range(1, k + 1):
                alpha = 1.0 - j / k
                frac = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
                exact = cvar_fairness(inst, alpha, CVaRMode.EXACT_SUBSET)
                assert abs(frac - exact) <= 1e-12

    def test_fractional_matches_loop_exactly(self):
        for inst in _random_instances():
            for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, alpha_star(inst)):
                assert cvar_fairness(inst, alpha) == _fractional_loop(inst, alpha)

    def test_fractional_matches_loop_with_zero_weights(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            k = int(rng.integers(2, 11))
            w = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.6)
            if not w.any():
                w[0] = 1.0
            inst = FairnessInstance(GroupWeights(w / w.sum()), rng.random(k))
            for alpha in (0.0, 0.3, 0.6, 0.9):
                assert cvar_fairness(inst, alpha) == _fractional_loop(inst, alpha)

    def test_zero_weight_group_does_not_stop_the_fill(self):
        # The zero-weight group has the largest gap and comes first in gap
        # order; it must be skipped, not end the fill at zero mass.
        inst = FairnessInstance(GroupWeights([0.0, 0.5, 0.5]), [1.0, 0.0, 1.0])
        frac = cvar_fairness(inst, 0.5, CVaRMode.FRACTIONAL)
        assert frac == cvar_fairness(inst, 0.5, CVaRMode.EXACT_SUBSET) == 0.5
        assert classify_region(inst, 0.5, 0.5) is Region.P1

    def test_modes_agree_with_zero_weight_groups(self):
        # Positive weights are quarters, so budgets 1/4..1 end on a group
        # boundary and the relaxation is tight.
        rng = np.random.default_rng(15)
        for _ in range(50):
            k = int(rng.integers(5, 9))
            w = np.zeros(k)
            w[rng.choice(k, size=4, replace=False)] = 0.25
            inst = FairnessInstance(GroupWeights(w), rng.random(k))
            for alpha in (0.0, 0.25, 0.5, 0.75):
                frac = cvar_fairness(inst, alpha, CVaRMode.FRACTIONAL)
                exact = cvar_fairness(inst, alpha, CVaRMode.EXACT_SUBSET)
                assert abs(frac - exact) <= 1e-12

    def test_zero_gap_instance(self):
        inst = FairnessInstance(GroupWeights.uniform(4), [0.7] * 4)
        for alpha in (0.0, 0.5, 0.99):
            assert cvar_fairness(inst, alpha) == 0.0


def _vectorised_fill(inst, alpha):
    """Oracle: the fractional fill as one pass over all K groups.

    This is the fill before it was walked in chunks: one gather, cumsum and
    comparison over every group in gap order.
    """
    budget = 1.0 - alpha
    w = inst.weights.as_array()
    delta = np.abs(inst.mu_array() - average_quality(inst))
    order = np.argsort(-delta, kind="stable")
    order = order[w[order] > 0.0]
    ws, ds = w[order], delta[order]
    used = np.cumsum(ws)
    room = budget - np.concatenate(([0.0], used[:-1]))
    over = ws > room
    j = int(np.argmax(over)) if over.any() else ws.size
    total = float(np.cumsum(ws[:j] * ds[:j])[-1]) if j else 0.0
    filled = float(used[j - 1]) if j else 0.0
    for g in range(j, ws.size):
        take = min(ws[g], budget - filled)
        if take <= 0.0:
            break
        total += take * ds[g]
        filled += take
    return float(total / budget)


def _assert_fill_matches(inst, alphas):
    for alpha in alphas:
        assert cvar_fairness(inst, alpha).hex() == _vectorised_fill(inst, alpha).hex(), alpha


def _tied_hot_instance(hot, zero):
    """2^14 positive-weight groups plus zero-weight ones at the indices `zero`.

    The first `hot` groups have mu = 0.9 and the rest 0.1 or 0.2.  Every
    positive weight is 2^-14, so prefix masses are exact.  The hot groups tie
    on the largest gap and keep their index order in the stable sort, so
    `zero` places zero-weight groups at known positions of the fill.
    """
    k = 2**14 + len(zero)
    w = np.ones(k)
    w[list(zero)] = 0.0
    w /= w.sum()
    mu = np.where(np.arange(k) < hot, 0.9, 0.1 + 0.1 * (np.arange(k) % 2))
    inst = FairnessInstance(GroupWeights(w), mu)
    assert average_quality(inst) < 0.5  # so the hot groups have the largest gap
    return inst


class TestChunkedFill:
    """The chunked fill gives the one-pass fill's bits (float.hex), chunk edges included."""

    ALPHAS = (0.0, 1e-12, 0.001, 0.3, 0.5, 0.75, 0.9, 0.999, 1.0 - 1e-9)

    @pytest.mark.parametrize("k", [FILL_CHUNK - 1, FILL_CHUNK, FILL_CHUNK + 1,
                                   3 * FILL_CHUNK + 17, 65536])
    def test_matches_one_pass_fill_around_chunk_sizes(self, k):
        rng = np.random.default_rng(k)
        raws = [np.ones(k), rng.dirichlet(np.ones(k)), 1.0 + np.arange(k) % 7,
                rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)]
        for raw in raws:
            w = GroupWeights(raw / raw.sum())
            for mu in (rng.random(k), rng.choice([0.1, 0.5, 0.52, 0.9], size=k)):
                _assert_fill_matches(FairnessInstance(w, mu), self.ALPHAS)

    def test_boundary_at_chunk_edges_with_exact_prefix_mass(self):
        # Uniform weights 2^-16: 1 - alpha = t / K is exactly the mass of the
        # first t groups, so the boundary group gets zero room.
        k = 65536
        rng = np.random.default_rng(7)
        w = GroupWeights.uniform(k)
        ends = (1, FILL_CHUNK - 1, FILL_CHUNK, FILL_CHUNK + 1, 2 * FILL_CHUNK, 3 * FILL_CHUNK + 5)
        for mu in (rng.random(k), rng.choice([0.2, 0.9], size=k)):
            inst = FairnessInstance(w, mu)
            _assert_fill_matches(inst, [1.0 - t / k for t in ends])
            _assert_fill_matches(inst, [1.0 - (t + 0.5) / k for t in ends])

    def test_zero_weight_groups_before_at_and_after_the_boundary(self):
        hot = FILL_CHUNK + 100
        edge = FILL_CHUNK  # a chunk edge inside the hot groups
        placements = {
            "none": (),
            "before": (3, edge - 2, edge + 7),
            "at": (edge - 1, edge),
            "after": (edge + 1, edge + 2),
            "run across the edge": tuple(range(edge - 40, edge + 40)),
            "first": (0,),
        }
        for name, zero in placements.items():
            inst = _tied_hot_instance(hot, zero)
            w = inst.weights.as_array()
            # 1 - alpha: exactly the mass of the first `edge` groups, that
            # mass plus half a group, and a budget ending past the hot groups.
            prefix = float(w[:edge].sum())
            assert 1.0 - (1.0 - prefix) == prefix
            alphas = [1.0 - prefix, 1.0 - prefix - w.max() / 2, 1.0 - float(w[: hot + 9].sum())]
            _assert_fill_matches(inst, alphas + list(self.ALPHAS))
            assert cvar_fairness(inst, 1.0 - prefix) > 0.0, name

    def test_zero_weight_group_after_a_rounding_sliver(self):
        # Taking the boundary group in part can leave a sliver of budget; a
        # zero-weight group next in gap order must be skipped, not end the
        # fill, so the positive group after it takes the sliver.
        rng = np.random.default_rng(16)
        seen = 0
        for _ in range(400):
            k = int(rng.integers(3, 12))
            raw = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.6)
            if not raw.any():
                raw[0] = 1.0
            inst = FairnessInstance(GroupWeights(raw / raw.sum()), rng.random(k))
            for alpha in rng.random(20):
                _assert_fill_matches(inst, [alpha])
                seen += _sliver_then_zero(inst, alpha)
        assert seen > 0


class TestEqualWeightFill:
    """Equal weights fill from the sorted gaps alone, with the index fill's bits."""

    def test_sorted_gaps_match_the_index_fill(self):
        rng = np.random.default_rng(62)
        edges = [0.0, 2.0**-53, 1e-300, 1.0 - 2.0**-52, 1.0 - 2.0**-50, 1.0 - 1e-12]
        for _ in range(150):
            k = int(rng.choice([1, 2, 3, FILL_CHUNK - 1, FILL_CHUNK + 1, rng.integers(4, 3000)]))
            style = rng.integers(3)
            if style == 0:  # distinct gaps
                mu = rng.random(k)
            elif style == 1:  # many ties
                mu = rng.choice([0.1, 0.5, 0.52, 0.9], size=k)
            else:  # every gap zero
                mu = np.full(k, rng.random())
            inst = FairnessInstance(GroupWeights.uniform(k), mu)
            alphas = edges + list(rng.random(4)) + [1.0 - t / k for t in rng.integers(1, k + 1, 2)]
            _assert_fill_matches(inst, alphas)


def _spy_walks(monkeypatch):
    """Record (number of selected groups or None for all K, ended) of every walk in gap order."""
    walks = []
    walk = metrics._walk_order

    def spy(w, delta, ids, budget):
        total, ended = walk(w, delta, ids, budget)
        walks.append((None if ids is None else ids.size, ended))
        return total, ended

    monkeypatch.setattr(metrics, "_walk_order", spy)
    return walks


def _cut(inst, count):
    """(cut, gaps): the cut the fill reads for `count`, the gap of rank count // stride
    among every stride-th gap, stride = K // FILL_CHUNK."""
    delta = np.abs(inst.mu_array() - average_quality(inst))
    stride = inst.k // FILL_CHUNK
    return np.sort(delta[::stride])[-(count // stride)], delta


def _tied_at_the_cut(k, alpha, rng, zero=0):
    """Unequal weights at K = k with a run of 601 gaps tied at the fill's first cut.

    `zero` of the tied groups get weight 0.  Returns the instance and the
    number of groups at or above the cut.
    """
    count = math.ceil((1.0 - alpha) * k) + FILL_CHUNK
    w = rng.dirichlet(np.ones(k))
    inst = FairnessInstance(GroupWeights(w), rng.random(k))
    cut, delta = _cut(inst, count)
    mu, lbar = inst.mu_array().copy(), average_quality(inst)
    ranked = np.argsort(-delta, kind="stable")
    at_cut = ranked[int(np.flatnonzero(delta[ranked] == cut)[0])]
    v = mu[at_cut]
    # Groups on v's side of Lbar, by rank: tying them to v moves Lbar little.
    side = ranked[(mu[ranked] < lbar) == (v < lbar)]
    at = int(np.flatnonzero(side == at_cut)[0])
    band = side[at - 300 : at + 301]
    mu[band] = v
    # The tied groups' mass moves to one of them that keeps its weight: with
    # equal means, Lbar stays where it was.
    rng.shuffle(band)
    w[band[zero]] += w[band[:zero]].sum()
    w[band[:zero]] = 0.0
    inst = FairnessInstance(GroupWeights(w / w.sum()), mu)
    cut, delta = _cut(inst, count)
    assert (delta == cut).sum() == 601 and (delta > cut).sum() > count // 2
    return inst, int((delta >= cut).sum())


class TestSelectedFill:
    """Unequal weights sort only the groups at or above the boundary gap, with the full sort's bits."""

    @pytest.mark.parametrize("k", [FILL_CHUNK - 1, FILL_CHUNK, FILL_CHUNK + 1,
                                   3 * FILL_CHUNK + 17, 65536])
    def test_selection_matches_one_pass_fill(self, k, monkeypatch):
        # alpha near 0 sorts all K groups; the larger alphas select fewer
        # groups wherever one chunk past (1 - alpha) K is below K.
        walks = _spy_walks(monkeypatch)
        rng = np.random.default_rng(k + 1)
        alphas = (2.0**-52, 1e-12, 0.3, 0.75, 0.9, 1.0 - 2.0**-40, 1.0 - 1e-9)
        for raw in (rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7),
                    1.0 + np.arange(k) % 7):
            inst = FairnessInstance(GroupWeights(raw / raw.sum()), rng.random(k))
            for alpha in alphas:
                walks.clear()
                _assert_fill_matches(inst, [alpha])
                count = math.ceil((1.0 - alpha) * k) + FILL_CHUNK
                if count < k:
                    assert walks[-1][1] and walks[-1][0] < k, alpha
                else:
                    assert [ids for ids, _ in walks] == [None], alpha

    @pytest.mark.parametrize("zero", [0, 50, 600])
    def test_ties_at_the_cut_off_are_all_selected(self, zero, monkeypatch):
        # Gaps tied at the cut-off are all selected, in index order, zero-weight
        # ones too, so the stable order of the tied groups is the full sort's.
        walks = _spy_walks(monkeypatch)
        rng = np.random.default_rng(64 + zero)
        for k in (3 * FILL_CHUNK + 17, 65536):
            for alpha in (0.75, 0.9):
                inst, selected = _tied_at_the_cut(k, alpha, rng, zero)
                walks.clear()
                _assert_fill_matches(inst, [alpha])
                assert walks == [(selected, True)]

    def test_a_sliver_past_the_selection_takes_a_larger_one(self, monkeypatch):
        # The boundary group is the last one selected.  Taking it in part can
        # leave a sliver of budget, which the next group takes: that group is
        # not selected, so the fill selects again.
        walks = _spy_walks(monkeypatch)
        k, taken = 65536, 40000
        stride = k // FILL_CHUNK
        count = taken + FILL_CHUNK  # the first count when ceil((1 - alpha) K) = taken
        # Gaps fall with the index up to the boundary group, so the cut, the
        # gap of rank count // stride among every stride-th one, is its gap.
        last = stride * (count // stride - 1)
        # The rest of 1 - alpha (about 0.52) that the boundary group takes can
        # round at a tie only when the mass before it (about 0.09) has a set
        # bit below 1 - alpha's last one, as it has with this seed.
        rng = np.random.default_rng(70)
        raw = np.empty(k)
        raw[:last] = rng.uniform(0.5, 1.5, last) * (0.09 / last)
        raw[last] = 0.6
        raw[last + 1 :] = (0.4 - raw[:last].sum()) / (k - last - 1)
        # Distinct gaps in index order: means near 1, the boundary group's 0,
        # and the rest near Lbar, which the groups before them set.
        top = 1.0 - np.arange(last) * 1e-7
        lbar = raw[:last] @ top / (raw[:last].sum() + 0.6)
        mu = np.concatenate((top, [0.0], lbar + np.arange(k - last - 1) * 1e-9))
        inst = FairnessInstance(GroupWeights(raw / raw.sum()), mu)
        cut, delta = _cut(inst, count)
        assert cut == delta[last] and (delta >= cut).sum() == last + 1
        filled = float(np.cumsum(inst.weights.as_array()[:last])[-1])
        # Budgets that 1 - alpha gives back exactly.
        budgets = 1.0 - (1.0 - rng.uniform((taken - 1) / k, taken / k, 400))
        slivers = [b for b in budgets if filled + (b - filled) < b]
        exact = [b for b in budgets if filled + (b - filled) == b]
        # Twice `count` passes K, so the second walk sorts all K groups.
        for budget, want in ((slivers[0], [(last + 1, False), (None, True)]),
                             (exact[0], [(last + 1, True)])):
            alpha = 1.0 - budget
            assert 1.0 - alpha == budget and math.ceil(budget * k) == taken
            walks.clear()
            _assert_fill_matches(inst, [alpha])
            assert walks == want

    def test_a_selection_short_of_the_budget_is_not_walked(self, monkeypatch):
        # The 30000 largest gaps carry almost no mass, so the first selection
        # cannot cover the budget; only the doubled one is sorted and walked.
        walks = _spy_walks(monkeypatch)
        k, light, alpha = 65536, 30000, 0.75
        count = math.ceil((1.0 - alpha) * k) + FILL_CHUNK
        raw = np.where(np.arange(k) < light, 1e-6, 1.0)
        mu = np.where(np.arange(k) < light, 1.0 - np.arange(k) * 1e-7, 0.3 + np.arange(k) * 1e-8)
        inst = FairnessInstance(GroupWeights(raw / raw.sum()), mu)
        _assert_fill_matches(inst, [alpha])
        first, delta = _cut(inst, count)
        assert (delta >= first).sum() < light
        assert walks == [(int((delta >= _cut(inst, 2 * count)[0]).sum()), True)]

    @pytest.mark.parametrize("hot, alphas", [(slice(-16384, None), (0.3, 0.75, 0.9)),
                                             (slice(16384), (0.3, 0.75))])
    def test_tied_gaps_sort_all_groups_once(self, hot, alphas, monkeypatch):
        # Zipf weights with the lightest or the heaviest quarter of the groups
        # hot: two gaps.  The cut falls on the smaller gap, which selects all
        # K groups, or on the larger one, whose groups carry less mass than
        # the budget at every count that reads it (0.025 when the lightest are
        # hot, 0.12 when the heaviest are).  Either way the fill sorts all K
        # groups, once.
        walks = _spy_walks(monkeypatch)
        k = 65536
        raw = 1.0 / np.arange(1, k + 1)
        mu = np.full(k, 0.4)
        mu[hot] = 0.6
        inst = FairnessInstance(GroupWeights(raw / raw.sum()), mu)
        for alpha in alphas:
            walks.clear()
            _assert_fill_matches(inst, [alpha])
            assert walks == [(None, True)], alpha

    def test_fill_leaves_the_means_alone(self):
        rng = np.random.default_rng(66)
        for raw in (np.ones(65536), rng.dirichlet(np.ones(65536))):
            inst = FairnessInstance(GroupWeights(raw / raw.sum()), rng.random(65536))
            mu = inst.mu_array().copy()
            for alpha in (0.0, 0.75, 1.0 - 1e-9):
                cvar_fairness(inst, alpha)
                assert np.array_equal(inst.mu_array(), mu)


def _sliver_then_zero(inst, alpha):
    """Whether the fill leaves a sliver after the boundary group and a zero-weight group comes next."""
    budget = 1.0 - alpha
    w = inst.weights.as_array()
    delta = np.abs(inst.mu_array() - average_quality(inst))
    order = np.argsort(-delta, kind="stable")
    filled = 0.0
    for i, g in enumerate(order):
        if w[g] <= 0.0:
            continue
        take = min(w[g], budget - filled)
        if take <= 0.0:
            return False
        filled += take
        if take < w[g]:  # the boundary group
            rest = order[i + 1:]
            return bool(filled < budget and rest.size and w[rest[0]] == 0.0
                        and (w[rest] > 0.0).any())
    return False


class TestAlphaStar:
    def test_uniform(self):
        for k in (2, 4, 10):
            inst = FairnessInstance(GroupWeights.uniform(k), [1.0] + [0.0] * (k - 1))
            assert abs(alpha_star(inst) - (1.0 - 1.0 / k)) <= 1e-12

    def test_non_uniform(self):
        inst = FairnessInstance(GroupWeights([0.9, 0.1]), [0.5, 0.9])
        assert abs(alpha_star(inst) - 0.9) <= 1e-12

    def test_tie_takes_smallest_weight(self):
        inst = FairnessInstance(GroupWeights([0.7, 0.3]), [0.4, 0.4])
        # All gaps equal (zero); tie broken toward the lightest group.
        assert abs(alpha_star(inst) - 0.7) <= 1e-12

    def test_recovers_max_gap(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            inst = random_instance(rng)
            a = alpha_star(inst)
            for mode in CVaRMode:
                got = cvar_fairness(inst, a, mode)
                assert abs(got - max_gap(inst)) <= 1e-12


class TestSeparationStatistic:
    def test_all_equal(self):
        inst = FairnessInstance(GroupWeights.uniform(3), [0.6] * 3)
        assert separation_statistic(inst) == 0.0

    def test_two_group(self):
        assert abs(separation_statistic(TWO_GROUP) - 0.04) <= 1e-12

    def test_four_group(self):
        assert abs(separation_statistic(FOUR_GROUP) - 0.046875) <= 1e-12

    def test_equals_weighted_gap_square(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            inst = random_instance(rng)
            d = separation_statistic(inst)
            gv = gap_vector(inst)
            alt = float(
                np.dot(inst.weights.as_array(), np.asarray(gv.delta) ** 2)
            )
            assert abs(d - alt) <= 1e-12

    def test_lower_bounds_cvar_square(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            inst = random_instance(rng, k=int(rng.integers(2, 9)))
            d = separation_statistic(inst)
            for alpha in (0.0, 0.25, 0.5, 0.9):
                cv = cvar_fairness(inst, alpha)
                assert d >= (1.0 - alpha) * cv * cv - 1e-12


class TestPermutationInvariance:
    def test_all_outputs_stable_under_permutation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_instance(rng)
            perm = rng.permutation(inst.k)
            w = inst.weights.as_array()
            mu = inst.mu_array()
            permuted = FairnessInstance(GroupWeights(w[perm]), mu[perm])
            assert abs(average_quality(inst) - average_quality(permuted)) <= 1e-12
            assert abs(max_gap(inst) - max_gap(permuted)) <= 1e-12
            assert abs(alpha_star(inst) - alpha_star(permuted)) <= 1e-12
            assert (
                abs(separation_statistic(inst) - separation_statistic(permuted))
                <= 1e-12
            )
            for alpha in (0.0, 0.5, 0.9):
                assert (
                    abs(cvar_fairness(inst, alpha) - cvar_fairness(permuted, alpha))
                    <= 1e-12
                )
            gv = gap_vector(inst)
            gv_p = gap_vector(permuted)
            assert np.allclose(np.asarray(gv.delta)[perm], gv_p.delta, atol=1e-12)
