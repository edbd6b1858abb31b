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
instance, trials), not on the order in which blocks are evaluated.

The attribute-specific draw costs O(included groups), not O(K): groups with
p_g > 0 are split into classes by the binary exponent of p_g, so that within
a class q = max p_g is less than twice any p_g.  Candidate (trial, group)
positions of a class are the successes of Bernoulli(q) trials over its
flattened B x n_class grid, found from Geometric(q) gaps; each candidate is
kept with probability p_g / q.  Every group is then included in every trial
independently with probability exactly p_g.  The plan-level set-up (term
weights, classes, B) is built once per budget and shared by both sides; it
reads p straight from the plan's `include_probs()`, without a (K, 2)
inclusion array.  Every entry of an attribute-specific block has M = n/gamma,
so `estimate_entries` looks its terms up by S in a table of M + 1 values
with the bits of the per-entry division.

The weighted plan's row sums run in numpy's own einsum loop, not in BLAS
(the sparse path sums with bincount), so F does not depend on the BLAS
thread count.

`threshold_sweep` checks that each point's fair instance lies in P0 and its
unfair one in P1 before it runs any trial, classifying each distinct
(instance, alpha, epsilon) once, so one bad point fails the whole sweep up
front and points that share their instances do not pay for the check again.
The check's CVaR fill (`metrics.cvar_fairness`) walks the groups in gap
order in chunks and stops at the one that holds the boundary group.
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
from .errors import ConfigError, ZeroInclusionProbability
from .estimator import estimate_entries, estimate_rows, term_weights
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

    weights: tuple[np.ndarray, np.ndarray]  # per-group F1 and F2 normalizers
    # Attribute-specific plan only: (members, q, p_g / q or None when all
    # members have p_g = q) per inclusion class.
    classes: tuple[tuple[np.ndarray, float, np.ndarray | None], ...]
    block: int  # trials per block


def _inclusion_classes(p: np.ndarray):
    """Groups with p > 0, split by the binary exponent of p (see the module docstring).

    Classes come in descending order of exponent, members in ascending order.
    """
    ids = np.flatnonzero(p > 0)
    if not ids.size:
        return ()
    pos = p if ids.size == p.size else p[ids]
    top = math.frexp(pos.max())[1]
    # The exponent rises with p, so when the extremes share it, all do.
    if math.frexp(pos.min())[1] == top:
        splits = [(ids, pos)]  # one class, as under uniform weights
    else:
        step = top - np.frexp(pos)[1]  # 0 in the top class
        in_class = (step == s for s in np.flatnonzero(np.bincount(step)))
        splits = [(ids[mask], pos[mask]) for mask in in_class]
    classes = []
    for members, pm in splits:
        q = float(pm.max())
        classes.append((members, q, None if pm.min() == q else pm / q))
    return tuple(classes)


def _setup(plan: SamplingPlan, w: GroupWeights) -> _Setup:
    # Built once per point, so it skips inclusion_array's cache: a cached
    # (K, 2) array per sweep point would outlive the sweep.
    if not isinstance(plan, AttributeSpecificPlan):
        incl = plan.inclusion_probabilities()
        return _Setup(term_weights(w, incl), (), max(1, BLOCK_ELEMS // plan.k))
    # P[M_g >= 1] = P[M_g >= 2] = p_g under this plan, so p is read as one
    # vector, and one normalizer w_g / p_g serves the F1 and the F2 terms
    # (the values term_weights gives).
    plan.require_estimable()
    p = plan.include_probs()
    warr = w.as_array()
    active = warr > 0
    bad = active & (p <= 0.0)
    if bad.any():
        raise ZeroInclusionProbability(int(np.argmax(bad)))
    c = np.divide(warr, p, out=np.zeros_like(warr), where=active)
    entries = max(1, math.ceil(float(p.sum())))
    return _Setup((c, c), _inclusion_classes(p), max(1, BLOCK_ELEMS // entries))


def _success_positions(rng: np.random.Generator, q: float, n: int) -> np.ndarray:
    """Sorted positions in [0, n) of the successes among n Bernoulli(q) trials.

    The gaps between successes are Geometric(q); they are drawn in chunks
    until their running sum passes n.  A gap is capped at n + 1, which is past
    the end whatever precedes it, so the running sum cannot overflow int64
    even when q is tiny.
    """
    mean = n * q
    chunk = int(mean + 4.0 * math.sqrt(mean)) + 8
    parts = []
    end = 0
    while end <= n:
        gaps = rng.geometric(q, size=chunk)  # each gap is at least 1
        np.minimum(gaps, n + 1, out=gaps)
        part = np.cumsum(gaps)
        part += end
        parts.append(part)
        end = int(part[-1])
    ends = parts[0] if len(parts) == 1 else np.concatenate(parts)
    ends = ends[: np.searchsorted(ends, n, side="right")]
    ends -= 1
    return ends


def _included(rng: np.random.Generator, classes, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(trial, group) of every group that each of `size` trials includes."""
    rows, groups = [], []
    for members, q, ratio in classes:
        row, j = np.divmod(_success_positions(rng, q, size * members.size), members.size)
        if ratio is not None:
            keep = rng.random(j.size) < ratio[j]
            row, j = row[keep], j[keep]
        rows.append(row)
        groups.append(members[j])
    if len(rows) == 1:
        return rows[0], groups[0]
    return np.concatenate(rows), np.concatenate(groups)


def _block_decider(
    inst: FairnessInstance, cfg: TestConfig, setup: _Setup
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """A function (rng, size) -> H1 decisions of `size` <= setup.block audits of inst."""
    plan = cfg.plan
    if plan.k != inst.k:
        raise ValueError("plan and instance disagree on K")
    weights = setup.weights
    mu = inst.mu_array()
    tau = cfg.threshold

    if isinstance(plan, AttributeSpecificPlan):
        # Sparse: a trial samples only the groups it includes (about
        # sum_g p_g of K), so only those get loss draws and estimator terms.
        classes = setup.classes

        def decide(rng: np.random.Generator, size: int) -> np.ndarray:
            rows, groups = _included(rng, classes, size)
            s = rng.binomial(plan.block, mu[groups])
            f1, f2 = estimate_entries(rows, groups, s, plan.block, weights, size)
            return f1 - f2 * f2 >= tau

    else:
        v = plan.v.as_array()

        def decide(rng: np.random.Generator, size: int) -> np.ndarray:
            m = rng.multinomial(plan.budget, v, size=size)
            s = rng.binomial(m, mu)
            f1, f2 = estimate_rows(s, m, weights)
            return f1 - f2 * f2 >= tau

    return decide


def _block_h1(decide, base_seed: int, side: int, index: int, size: int) -> int:
    """Number of H1 decisions in one block of trials, drawn from the block's own generator."""
    return int(np.count_nonzero(decide(np.random.default_rng([base_seed, side, index]), size)))


def _side_h1(
    inst: FairnessInstance,
    cfg: TestConfig,
    setup: _Setup,
    trials: int,
    base_seed: int,
    side: int,
) -> int:
    """Number of H1 decisions in `trials` audits of inst, run block by block."""
    b = setup.block
    decide = _block_decider(inst, cfg, setup)
    return sum(
        _block_h1(decide, base_seed, side, index, min(b, trials - start))
        for index, start in enumerate(range(0, trials, b))
    )


def _classify(inst: FairnessInstance, cfg: TestConfig) -> Region:
    return classify_region(inst, cfg.alpha, cfg.epsilon)


def _check_regions(region, h0_inst: FairnessInstance, h1_inst: FairnessInstance,
                   cfg: TestConfig) -> None:
    """Raise ConfigError unless region(., cfg) puts h0_inst in P0 and h1_inst in P1."""
    if region(h0_inst, cfg) is not Region.P0:
        raise ConfigError("h0 instance does not have zero CVaR fairness")
    if region(h1_inst, cfg) is not Region.P1:
        raise ConfigError("h1 instance does not have CVaR fairness >= epsilon")


def estimate_error(
    h0_inst: FairnessInstance,
    h1_inst: FairnessInstance,
    cfg: TestConfig,
    trials: int,
    base_seed: int,
) -> ErrorEstimate:
    """Monte Carlo estimate of the equal-prior error probability.

    Requires h0_inst to lie in P0 and h1_inst in P1(epsilon) at cfg's alpha;
    otherwise the error probability is not the quantity the bounds control.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    _check_regions(_classify, h0_inst, h1_inst, cfg)
    return _estimate(h0_inst, h1_inst, cfg, trials, base_seed)


def _estimate(
    h0_inst: FairnessInstance,
    h1_inst: FairnessInstance,
    cfg: TestConfig,
    trials: int,
    base_seed: int,
) -> ErrorEstimate:
    """`estimate_error` without its input checks, for callers that made them."""
    setup0 = _setup(cfg.plan, h0_inst.weights)
    setup1 = setup0 if h1_inst.weights == h0_inst.weights else _setup(cfg.plan, h1_inst.weights)
    frac_h1_h0 = _side_h1(h0_inst, cfg, setup0, trials, base_seed, 0) / trials
    frac_h0_h1 = (trials - _side_h1(h1_inst, cfg, setup1, trials, base_seed, 1)) / trials
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
            raise ConfigError("trials must be >= 1")
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

    Every point's instances are checked as `estimate_error` checks them
    before any point runs.  Each distinct (instance, alpha, epsilon) is
    classified once, keyed on the instance object: hashing K loss means
    would cost about as much as the classification.
    """
    regions: dict[tuple[int, float, float], Region] = {}

    def region(inst: FairnessInstance, cfg: TestConfig) -> Region:
        key = (id(inst), cfg.alpha, cfg.epsilon)
        if key not in regions:
            regions[key] = _classify(inst, cfg)
        return regions[key]

    for point in exp.points:
        _check_regions(region, point.h0, point.h1, point.cfg)
    rows = []
    n_hat = None
    for point in exp.points:
        est = _estimate(point.h0, point.h1, point.cfg, exp.trials, exp.base_seed)
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
