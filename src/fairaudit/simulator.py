"""Monte Carlo harness for estimating the audit test's error probability.

Error probability is the equal-prior average of the two conditional errors:
p = (Pr[H1 | fair instance] + Pr[H0 | unfair instance]) / 2.

Each side runs its trials in blocks of B = max(1, BLOCK_ELEMS // E) trials,
where E is the number of count entries a trial produces: K for the weighted
plan, whose block is one (B, K) count matrix, and ceil(sum_g p_g) for the
attribute-specific plan, whose block holds only the (trial, group) pairs it
includes.  Block i of side s (0 for the fair instance, 1 for the unfair one)
draws from its own generator, numpy.random.default_rng([base_seed, s, i]),
so results depend only on (base_seed, side, block index, the plan and the
instance, trials), not on the order in which blocks are evaluated.  A block's
kernel, from `_block_scorer`, returns each trial's F1 and F2; `_block_h1`
alone forms F = F1 - F2^2 and counts F >= tau, so the engine states the
decision rule once.

The attribute-specific draw costs O(included groups), not O(K): groups with
p_g > 0 are split into classes by the binary exponent of p_g, so that within
a class q = max p_g is less than twice any p_g.  Candidate (trial, group)
positions of a class are the successes of Bernoulli(q) trials over its
flattened B x n_class grid, found from Geometric(q) gaps; each candidate is
kept with probability p_g / q.  Every group is then included in every trial
independently with probability exactly p_g.  The plan-level set-up (term
weights, classes, B) is built once per budget and shared by both sides; it
reads p from the plan's `inclusion_pair()`, which hands the one array p for
both P[M_g >= 1] and P[M_g >= 2], without a (K, 2) inclusion array, and
when every p_g > 0 a class of all K groups keeps no member array.  The term
weights w_g / P[M_g >= .] come from the estimator's one normalizer, which
also serves the audit; one array of them serves the F1 and the F2 terms.
Every entry of an attribute-specific block has M = n/gamma, so its terms
come from `estimate_entries`' tables of M + 1 values indexed by S, with the
bits of the per-entry division, built once per budget.  When the plan's
weights and the instance's are each all equal (as on the hard pair), every
group has the same p and the same normalizer c = w_0 / p, the same float
operations on the same values as the per-group arrays.  The set-up is then
built from these scalars: one class of all K groups with no member or
ratio array, and term tables prescaled by c, since (t * c)[S] has the bits
of t[S] * c, so a block gathers no per-entry normalizer.  B still comes from
numpy's pairwise sum of K copies of p, the one K-sized array such a set-up
allocates.

A block's loss draw and its terms meet in one table lookup.  The loss
replay (below) finds each entry's row x of a small table of results, whose
row holds S; once per sweep point and side, that table is composed with the
point's S-indexed term tables, so a block looks its terms up by x and
builds no S array.  A row that stands for numpy's redraw holds NaN, so a
NaN in the block's per-trial F1 sends the block back, from the generator
state before it, to the path that draws S and, on a redraw, calls
`rng.binomial`.  Only the per-group normalizer and the per-mean tables read
an entry's group, so a side with one normalizer and one mean (the fair side
of the hard pair) builds no per-entry group index.

Both draws of an attribute-specific block replay numpy's own samplers as
whole-array operations, with numpy's values and with the generator left in
numpy's state.  A Geometric(q) gap with q < 1/3 is numpy's ceil(-E /
log1p(-q)) of one standard exponential E (q >= 1/3 keeps `rng.geometric`).
A loss count Binomial(M, mu) with min(mu, 1 - mu) * M <= 30 is numpy's
inversion of one uniform, through small tables with one row per distinct
mean; more than 8 means, a mean of 0, a larger min(mu, 1 - mu) * M or
numpy's rare second uniform send the block to `rng.binomial`.  The replays
sample the same laws on any numpy; they give numpy's exact streams on numpy
2.4.6, which the tests pin.

The weighted plan's row sums run in numpy's own einsum loop, not in BLAS
(the sparse path sums with bincount), so F does not depend on the BLAS
thread count.

`threshold_sweep` is the one entry point: `estimate_error` is the single row
of a one-point sweep.  It checks that each point's fair instance lies in P0
and its unfair one in P1 before it runs any trial, classifying each distinct
(instance, alpha, epsilon) once, so one bad point fails the whole sweep up
front and points that share their instances do not pay for the check again.
The check's CVaR fill (`metrics.cvar_fairness`) walks the groups in gap
order in chunks and stops at the one that holds the boundary group; an
instance whose largest gap is far below the P0 tolerance skips the fill.
The check holds one K-sized array, the gaps: the largest gap is read from
the extreme means, equal weights sort the gaps in place, and unequal ones
sort only the groups at or above the boundary gap.
Points that share an instance and a block share its loss sampler.
"""

from __future__ import annotations

import math
import platform
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .core import FairnessInstance, GroupWeights
from .cvar_test import Region, TestConfig, classify_region
from .errors import ConfigError
from .estimator import _ratio_terms, _term_weights, estimate_entries, estimate_rows
from .sampling import AttributeSpecificPlan, SamplingPlan

# Count entries per block of trials: B = max(1, BLOCK_ELEMS // E).  It keeps
# each per-block temporary at 64 KiB or less whenever E <= BLOCK_ELEMS, so
# that blocks reuse freed heap memory instead of touching fresh pages.
BLOCK_ELEMS = 2**13
SEEDING_SCHEME = "numpy.random.default_rng([base_seed, side, block_index])"
BLOCK_RULE = (
    "B = max(1, block_elems // E) trials per block; E = K for the weighted plan, "
    "ceil(sum_g p_g) for the attribute-specific plan"
)
# numpy's Generator.geometric(q) inverts one standard exponential when
# q < 1/3 and searches with one uniform otherwise (1/3 itself searches).
_GEOMETRIC_SEARCH_FROM = 1.0 / 3.0
# Generator.binomial(m, mu) inverts one uniform per draw when
# min(mu, 1 - mu) * m is at most this.
_BINOMIAL_INVERSION_MAX = 30.0
# Distinct loss means the replayed binomial draw keeps tables for.
_MAX_MEANS = 8


@dataclass(frozen=True)
class ErrorEstimate:
    p_err_hat: float
    stderr: float
    trials: int
    frac_h1_given_h0: float
    frac_h0_given_h1: float


@dataclass(frozen=True, eq=False)
class _Setup:
    """What every block of one plan needs, built once per sweep point."""

    # Per-group F1 and F2 normalizers, or None when `terms` carry the one
    # normalizer that all groups share.
    weights: tuple[np.ndarray, np.ndarray] | None
    # Attribute-specific plan only: (members or None for all K groups, their
    # number, q, p_g / q or None when all members have p_g = q) per inclusion
    # class, and the estimator's S-indexed term tables for M = n/gamma.
    classes: tuple[tuple[np.ndarray | None, int, float, np.ndarray | None], ...]
    terms: tuple[np.ndarray, np.ndarray] | None
    block: int  # trials per block


def _inclusion_classes(p: np.ndarray):
    """Groups with p > 0, split by the binary exponent of p (see the module docstring).

    Classes come in descending order of exponent, members in ascending order;
    a class of all K groups has None for its members.
    """
    if p.min() > 0:
        ids, pos = None, p
    else:
        ids = np.flatnonzero(p > 0)
        if not ids.size:
            return ()
        pos = p[ids]
    top = math.frexp(pos.max())[1]
    # The exponent rises with p, so when the extremes share it, all do.
    if math.frexp(pos.min())[1] == top:
        splits = [(ids, pos)]  # one class, as under uniform weights
    else:
        step = top - np.frexp(pos)[1]  # 0 in the top class
        in_class = (step == s for s in np.flatnonzero(np.bincount(step)))
        splits = [
            (np.flatnonzero(mask) if ids is None else ids[mask], pos[mask]) for mask in in_class
        ]
    classes = []
    for members, pm in splits:
        q = float(pm.max())
        classes.append((members, pm.size, q, None if pm.min() == q else pm / q))
    return tuple(classes)


def _setup(plan: SamplingPlan, w: GroupWeights) -> _Setup:
    if not isinstance(plan, AttributeSpecificPlan):
        weights = _term_weights(w.as_array(), *plan.inclusion_pair())
        return _Setup(weights, (), None, max(1, BLOCK_ELEMS // plan.k))
    terms = _ratio_terms(np.arange(plan.block + 1), plan.block)
    p = plan.shared_inclusion()
    if p is not None and w.shared is not None:
        # Equal weights: every group has p and the normalizer c = w_0 / p, so
        # the one class needs no member array and the term tables carry c.
        p0 = np.float64(p)
        c, _ = _term_weights(np.float64(w.shared), p0, p0)
        weights, classes = None, ((None, plan.k, p, None),)
        terms = (terms[0] * c, terms[1] * c)
        expected = np.full(plan.k, p).sum()  # numpy's pairwise sum, as below: it fixes B
    else:
        # p1 is p2 = p here, so one normalizer w_g / p_g serves the F1 and F2 terms.
        p, _ = plan.inclusion_pair()
        weights, classes = _term_weights(w.as_array(), p, p), _inclusion_classes(p)
        expected = p.sum()
    return _Setup(weights, classes, terms, max(1, BLOCK_ELEMS // max(1, math.ceil(expected))))


def _inverted_geometric(rng: np.random.Generator, step: float, size: int, cap: int) -> np.ndarray:
    """`rng.geometric(q, size)` capped at `cap`, for q < 1/3; `step` is -log1p(-q).

    numpy draws such a gap as ceil(-E / log1p(-q)) from one standard
    exponential E; the same division and ceiling over the whole array give
    the same values and leave the generator in the same state.
    """
    z = rng.standard_exponential(size)
    with np.errstate(over="ignore"):  # E / a subnormal q is inf, capped below
        z /= step
    np.ceil(z, out=z)
    np.minimum(z, cap, out=z)
    return z.astype(np.int64)


def _success_positions(rng: np.random.Generator, q: float, n: int) -> np.ndarray:
    """Sorted positions in [0, n) of the successes among n Bernoulli(q) trials.

    The gaps between successes are Geometric(q); they are drawn in chunks
    until their running sum passes n.  A gap is capped at n + 1, which is past
    the end whatever precedes it, so the running sum cannot overflow int64
    even when q is tiny.
    """
    mean = n * q
    chunk = int(mean + 4.0 * math.sqrt(mean)) + 8
    step = -math.log1p(-q) if q < _GEOMETRIC_SEARCH_FROM else None
    parts = []
    end = 0
    while end <= n:
        if step is None:
            gaps = rng.geometric(q, size=chunk)  # each gap is at least 1
            np.minimum(gaps, n + 1, out=gaps)
        else:
            gaps = _inverted_geometric(rng, step, chunk, n + 1)
        part = np.cumsum(gaps)
        part += end
        parts.append(part)
        end = int(part[-1])
    ends = parts[0] if len(parts) == 1 else np.concatenate(parts)
    ends = ends[: np.searchsorted(ends, n, side="right")]
    ends -= 1
    return ends


def _included(
    rng: np.random.Generator, classes, size: int, grouped: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """(trial, group) of every group that each of `size` trials includes.

    Unless `grouped`, the groups are None, and a class with no ratio to draw
    computes no group index.
    """
    rows, groups = [], []
    for members, count, q, ratio in classes:
        pos = _success_positions(rng, q, size * count)
        row = pos // count  # with the remainder below, np.divmod's values in half its time
        if grouped or ratio is not None:
            j = pos - row * count
            if ratio is not None:
                keep = rng.random(j.size) < ratio[j]
                row, j = row[keep], j[keep]
            groups.append(j if members is None else members[j])
        rows.append(row)
    if len(rows) == 1:
        return rows[0], groups[0] if grouped else None
    return np.concatenate(rows), np.concatenate(groups) if grouped else None


def _mean_codes(mu: np.ndarray):
    """(codes, means) with mu == means[codes], codes None when all K means are equal.

    Found by one masked pass per distinct mean; None when there are more than
    _MAX_MEANS of them.
    """
    means = [float(mu[0])]
    left = mu != mu[0]
    if not left.any():
        return None, means
    codes = left.astype(np.int8)  # code 1 until a later mean's pass
    while left.any():
        if len(means) == _MAX_MEANS:
            return None
        mean = float(mu[int(np.argmax(left))])
        same = mu == mean
        if len(means) > 1:
            np.copyto(codes, len(means), where=same)
        means.append(mean)
        left ^= same  # every group of this mean is still left
    return codes, means


def _inversion_thresholds(mean: float, m: int) -> list[float] | None:
    """numpy's thresholds px_0..px_bound for inverting Binomial(m, min(mean, 1 - mean)).

    None when numpy does not invert one uniform per draw of this mean.  The
    arithmetic is numpy's, in numpy's order: px_0 = exp(m * log1p(-p)), not
    q**m or exp(m * log(q)), which differ in the last bit.  `math` calls the
    same libm as numpy's C code, where numpy's own exp and log1p ufuncs can
    differ in the last bit.
    """
    p = mean if mean <= 0.5 else 1.0 - mean
    if mean == 0.0 or p * m > _BINOMIAL_INVERSION_MAX:
        return None
    q = 1.0 - p
    mp = m * p
    bound = int(min(m, mp + 10.0 * math.sqrt(mp * q + 1)))
    px = [math.exp(m * math.log1p(-p))]
    for x in range(1, bound + 1):
        px.append(((m - x + 1) * p * px[-1]) / (x * q))
    return px


def _loss_sampler(
    mu: np.ndarray, m: int
) -> Callable[[np.random.Generator, np.ndarray], np.ndarray]:
    """A function (rng, groups) -> `rng.binomial(m, mu[groups])`, with its values and stream.

    For each draw, numpy takes one uniform U and returns the first x with
    U - px_0 - ... - px_(x-1) <= px_x (m - x when mean > 1/2), drawing U again
    if no x up to its bound qualifies.  Once an x qualifies every later one
    does, so X is the number of thresholds U passes; the replay subtracts
    them from all the block's uniforms at once.  Thresholds and results live
    in tables with one row per distinct mean, and each group holds its row's
    int8 code.  A redraw (about one in 1e16 draws) restores the generator and
    hands the block to `rng.binomial`, as do instances with more than
    _MAX_MEANS means, a mean of 0 (which numpy draws no uniform for) or one
    that numpy does not invert.

    A replayed draw carries `replay` = (index, results, by_group), so that a
    caller can look S's terms up by row: index(rng, n, groups) draws n rows
    x of `results`, which holds S per row and -1 where numpy would draw U
    again; `by_group` says whether `index` reads the groups, which may be
    None without it.
    """
    found = _mean_codes(mu)
    thresholds = None if found is None else [_inversion_thresholds(v, m) for v in found[1]]

    def reference(rng: np.random.Generator, groups: np.ndarray) -> np.ndarray:
        return rng.binomial(m, mu[groups])

    if thresholds is None or None in thresholds:
        return reference
    codes, means = found
    steps = max(map(len, thresholds))
    width = steps + 1  # X = steps means some mean's thresholds all passed
    # Step x compares with column x; past a mean's bound, inf stops its X at
    # bound + 1, whose result is the redraw mark -1.
    table = np.full((steps, len(means)), np.inf)
    results = np.full((len(means), width), -1, dtype=np.int64)
    for c, (mean, px) in enumerate(zip(means, thresholds)):
        table[: len(px), c] = px
        x = np.arange(len(px))
        results[c, : len(px)] = m - x if mean > 0.5 else x
    results = results.ravel()
    table_steps = list(table) if codes is not None else [float(t) for t in table[:, 0]]

    def index(rng: np.random.Generator, n: int, groups: np.ndarray | None) -> np.ndarray:
        """Rows of `results` for n draws, from n uniforms; `groups` may be None with one mean."""
        u = rng.random(n)
        if codes is None:
            x = np.zeros(n, dtype=np.intp)
            step_values = table_steps
        else:
            code = codes.take(groups)
            x = np.multiply(code, width, dtype=np.intp)
            step_values = [t.take(code) for t in table_steps]
        last = len(step_values) - 1
        for i, t in enumerate(step_values):
            x += u > t
            if i < last:
                u -= t
        return x

    def draw(rng: np.random.Generator, groups: np.ndarray) -> np.ndarray:
        state = rng.bit_generator.state
        s = results.take(index(rng, groups.size, groups))
        if s.size and s.min() < 0:  # numpy drew some U again
            rng.bit_generator.state = state
            return reference(rng, groups)
        return s

    draw.replay = (index, results, codes is not None)
    return draw


def _block_scorer(
    inst: FairnessInstance, plan: SamplingPlan, setup: _Setup, samplers: dict
) -> Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]:
    """A function (rng, size) -> per-trial (F1, F2) of `size` <= setup.block audits of inst.

    `samplers` holds the loss samplers built so far in a sweep, keyed on the
    instance object and the block: the points of a sweep share their
    instances, and often their block.
    """
    if plan.k != inst.k:
        raise ValueError("plan and instance disagree on K")
    mu = inst.mu_array()

    if setup.terms is not None:
        # Sparse: a trial samples only the groups it includes (about
        # sum_g p_g of K), so only those get loss draws and estimator terms.
        classes, terms = setup.classes, setup.terms
        c = None if setup.weights is None else setup.weights[0]
        key = (id(inst), plan.block)
        losses = samplers.get(key)
        if losses is None:
            losses = samplers[key] = _loss_sampler(mu, plan.block)

        def reference(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
            rows, groups = _included(rng, classes, size)
            return estimate_entries(rows, groups, losses(rng, groups), terms, c, size)

        replay = getattr(losses, "replay", None)
        if replay is None:
            return reference
        index, results, by_group = replay
        # The term tables indexed by the replay's row x, not by S: t[results],
        # with NaN where numpy would draw U again.
        composed = tuple(np.where(results < 0, np.nan, t[results]) for t in terms)
        grouped = c is not None or by_group

        def score(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
            state = rng.bit_generator.state
            rows, groups = _included(rng, classes, size, grouped)
            x = index(rng, rows.size, groups)
            f1, f2 = estimate_entries(rows, groups, x, composed, c, size)
            if np.isnan(f1).any():
                # numpy drew some U again: the block drawn again from the state
                # before it, its losses by `rng.binomial` as the sampler's
                # fallback draws them.
                rng.bit_generator.state = state
                rows, groups = _included(rng, classes, size)
                s = rng.binomial(plan.block, mu[groups])
                return estimate_entries(rows, groups, s, terms, c, size)
            return f1, f2

    else:
        v = plan.v.as_array()
        weights = setup.weights

        def score(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
            m = rng.multinomial(plan.budget, v, size=size)
            return estimate_rows(rng.binomial(m, mu), m, weights)

    return score


def _block_h1(score, tau: float, base_seed: int, side: int, index: int, size: int) -> int:
    """H1 decisions, F1 - F2^2 >= tau, in one block of trials drawn from its own generator."""
    f1, f2 = score(np.random.default_rng([base_seed, side, index]), size)
    return int(np.count_nonzero(f1 - f2 * f2 >= tau))


def _side_h1(
    inst: FairnessInstance,
    cfg: TestConfig,
    setup: _Setup,
    trials: int,
    base_seed: int,
    side: int,
    samplers: dict,
) -> int:
    """Number of H1 decisions in `trials` audits of inst, run block by block."""
    b = setup.block
    score = _block_scorer(inst, cfg.plan, setup, samplers)
    return sum(
        _block_h1(score, cfg.threshold, base_seed, side, index, min(b, trials - start))
        for index, start in enumerate(range(0, trials, b))
    )


def estimate_error(
    h0_inst: FairnessInstance,
    h1_inst: FairnessInstance,
    cfg: TestConfig,
    trials: int,
    base_seed: int,
) -> ErrorEstimate:
    """Monte Carlo estimate of the equal-prior error probability.

    The single row of a one-point `threshold_sweep`: requires h0_inst to lie
    in P0 and h1_inst in P1(epsilon) at cfg's alpha; otherwise the error
    probability is not the quantity the bounds control.
    """
    point = SweepPoint(axis_value=cfg.plan.budget, h0=h0_inst, h1=h1_inst, cfg=cfg)
    return threshold_sweep(Experiment("n", (point,), trials, base_seed)).rows[0][1]


def _estimate(
    h0_inst: FairnessInstance,
    h1_inst: FairnessInstance,
    cfg: TestConfig,
    trials: int,
    base_seed: int,
    samplers: dict,
) -> ErrorEstimate:
    """One sweep point's error estimate; its instances are already checked.

    Each call builds and frees its own K-sized set-up, so a sweep holds one
    point's set-up at a time.
    """
    setup0 = _setup(cfg.plan, h0_inst.weights)
    setup1 = setup0 if h1_inst.weights == h0_inst.weights else _setup(cfg.plan, h1_inst.weights)
    frac_h1_h0 = _side_h1(h0_inst, cfg, setup0, trials, base_seed, 0, samplers) / trials
    frac_h0_h1 = (
        trials - _side_h1(h1_inst, cfg, setup1, trials, base_seed, 1, samplers)
    ) / trials
    p_hat = (frac_h1_h0 + frac_h0_h1) / 2.0
    return ErrorEstimate(
        p_err_hat=p_hat,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        trials=trials,
        frac_h1_given_h0=frac_h1_h0,
        frac_h0_given_h1=frac_h0_h1,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: an axis value and everything needed to run it."""

    axis_value: float
    h0: FairnessInstance
    h1: FairnessInstance
    cfg: TestConfig


@dataclass(frozen=True)
class Experiment:
    """A sweep along one axis (typically the budget n).

    `points` are evaluated in order; when the axis is a budget sweep,
    `n_hat` of the resulting table is the smallest axis value whose
    estimated error is <= target.
    """

    axis: str
    points: tuple[SweepPoint, ...]
    trials: int
    base_seed: int
    target: float = 0.1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.points:
            raise ConfigError("sweep grid must be non-empty")


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple[tuple[float, ErrorEstimate], ...]
    n_hat: float | None  # smallest axis value with p_hat <= target (if axis is n)
    target: float


def threshold_sweep(exp: Experiment) -> SweepResult:
    """Evaluate every grid point; deterministic given base_seed.

    Before any point runs, every point's h0 instance must lie in P0 and its
    h1 instance in P1(epsilon) at the point's alpha, or ConfigError is raised.
    Each distinct (instance, alpha, epsilon) is classified once, and each
    attribute-specific loss sampler is built once per (instance, block), both
    keyed on the instance object: hashing K loss means would cost about as
    much as the classification.
    """
    regions: dict[tuple[int, float, float], Region] = {}

    def require(inst: FairnessInstance, cfg: TestConfig, want: Region, message: str) -> None:
        key = (id(inst), cfg.alpha, cfg.epsilon)
        if key not in regions:
            regions[key] = classify_region(inst, cfg.alpha, cfg.epsilon)
        if regions[key] is not want:
            raise ConfigError(message)

    for point in exp.points:
        require(point.h0, point.cfg, Region.P0, "h0 instance does not have zero CVaR fairness")
        require(point.h1, point.cfg, Region.P1,
                "h1 instance does not have CVaR fairness >= epsilon")
    rows = []
    n_hat = None
    # exp holds every instance until the sweep ends, so no id is reused meanwhile.
    samplers: dict[tuple[int, int], Callable] = {}
    for point in exp.points:
        est = _estimate(point.h0, point.h1, point.cfg, exp.trials, exp.base_seed, samplers)
        rows.append((point.axis_value, est))
        if n_hat is None and est.p_err_hat <= exp.target:
            n_hat = point.axis_value
    return SweepResult(axis=exp.axis, rows=tuple(rows), n_hat=n_hat, target=exp.target)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """Write the sweep table; formatting is fixed so reruns are byte-identical."""
    lines = [f"{result.axis},p_err_hat,stderr,frac_h1_given_h0,frac_h0_given_h1,trials,n_hat"]
    n_hat_repr = "" if result.n_hat is None else repr(result.n_hat)
    for axis_value, est in result.rows:
        lines.append(
            f"{axis_value!r},{est.p_err_hat!r},{est.stderr!r},"
            f"{est.frac_h1_given_h0!r},{est.frac_h0_given_h1!r},{est.trials},{n_hat_repr}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(path: str, config: dict, base_seed: int) -> None:
    """Write a JSON run manifest: configuration, its content hash, seeding, versions.

    Holds no timestamps, so the same run always writes the same bytes.
    """
    import hashlib
    import json

    payload = json.dumps(config, sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    manifest = {
        "base_seed": base_seed,
        "config": config,
        "config_sha256": digest,
        "seeding": {
            "scheme": SEEDING_SCHEME,
            "block_elems": BLOCK_ELEMS,
            "block_rule": BLOCK_RULE,
        },
        "versions": {
            "fairaudit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
