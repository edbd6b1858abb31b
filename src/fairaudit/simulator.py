"""Monte Carlo harness for estimating the audit test's error probability.

Error probability is the equal-prior average of the two conditional errors:
p = (Pr[H1 | fair instance] + Pr[H0 | unfair instance]) / 2.

Each side runs its trials in blocks of B = max(1, BLOCK_ELEMS // K) trials,
drawn together as one count matrix (or, for the attribute-specific plan, as
the included groups only).  Block i of side s (0 for the fair instance, 1
for the unfair one) draws from its own generator,
numpy.random.default_rng([base_seed, s, i]), so results depend only on
(base_seed, side, block index, K, trials), not on the order in which blocks
are evaluated.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .core import FairnessInstance
from .cvar_test import Region, TestConfig, classify_region
from .errors import ConfigError
from .estimator import estimate_entries, estimate_rows, term_weights
from .sampling import AttributeSpecificPlan, inclusion_array

# Count-matrix entries per block of trials: B = max(1, BLOCK_ELEMS // K).  It
# keeps each per-block temporary at 64 KiB or less whenever K <= BLOCK_ELEMS,
# so that blocks reuse freed heap memory instead of touching fresh pages.
BLOCK_ELEMS = 2**13
SEEDING_SCHEME = "numpy.random.default_rng([base_seed, side, block_index])"


@dataclass(frozen=True)
class ErrorEstimate:
    p_err_hat: float
    stderr: float
    trials: int
    frac_h1_given_h0: float
    frac_h0_given_h1: float


def _block_decider(
    inst: FairnessInstance, cfg: TestConfig, block: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """A function (rng, size) -> H1 decisions of `size` <= block independent audits of inst."""
    plan = cfg.plan
    k = inst.k
    if plan.k != k:
        raise ValueError("plan and instance disagree on K")
    weights = term_weights(inst.weights, inclusion_array(plan))
    mu = inst.mu_array()
    tau = cfg.threshold

    if isinstance(plan, AttributeSpecificPlan):
        # Sparse: a trial samples only the groups it includes (about gamma of
        # K), so only those get loss draws and estimator terms.
        probs = plan.include_probs()
        u = np.empty((block, k))  # reused, so large K does not fault in fresh pages per block

        def decide(rng: np.random.Generator, size: int) -> np.ndarray:
            included = rng.random(out=u[:size]) < probs
            rows, groups = np.divmod(np.flatnonzero(included), k)
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
    inst: FairnessInstance, cfg: TestConfig, trials: int, base_seed: int, side: int
) -> int:
    """Number of H1 decisions in `trials` audits of inst, run block by block."""
    b = max(1, BLOCK_ELEMS // inst.k)
    decide = _block_decider(inst, cfg, b)
    return sum(
        _block_h1(decide, base_seed, side, index, min(b, trials - start))
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

    Requires h0_inst to lie in P0 and h1_inst in P1(epsilon) at cfg's alpha;
    otherwise the error probability is not the quantity the bounds control.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if classify_region(h0_inst, cfg.alpha, cfg.epsilon) is not Region.P0:
        raise ConfigError("h0 instance does not have zero CVaR fairness")
    if classify_region(h1_inst, cfg.alpha, cfg.epsilon) is not Region.P1:
        raise ConfigError("h1 instance does not have CVaR fairness >= epsilon")
    frac_h1_h0 = _side_h1(h0_inst, cfg, trials, base_seed, 0) / trials
    frac_h0_h1 = (trials - _side_h1(h1_inst, cfg, trials, base_seed, 1)) / trials
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
    """Evaluate every grid point; deterministic given base_seed."""
    rows = []
    n_hat = None
    for point in exp.points:
        est = estimate_error(point.h0, point.h1, point.cfg, exp.trials, exp.base_seed)
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
    payload = json.dumps(config, sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    manifest = {
        "base_seed": base_seed,
        "config": config,
        "config_sha256": digest,
        "seeding": {"scheme": SEEDING_SCHEME, "block_elems": BLOCK_ELEMS},
        "versions": {
            "fairaudit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
