"""Multi-group fairness auditing via max-gap and CVaR metrics.

Core workflow: model a population as per-group Bernoulli loss means with a
group-weight vector, compute exact fairness metrics, or run the sampled
threshold audit with either weighted or attribute-specific data collection.
"""

__version__ = "0.1.0"

from .core import (
    FairnessInstance,
    GroupCounts,
    GroupWeights,
    MetricKind,
    empirical_instance,
)
from .cvar_test import (
    Decision,
    Region,
    TestConfig,
    TestOutcome,
    classify_region,
    run_test_dataset,
    run_test_synthetic,
)
from .estimator import EstimatorValue, estimate, estimate_from_counts, exact_moments
from .metrics import (
    CVaRMode,
    alpha_star,
    average_quality,
    cvar_fairness,
    gap_vector,
    max_gap,
    separation_statistic,
)
from .sampling import (
    AttributeSpecificPlan,
    WeightedPlan,
    satisfies_tail_lemma,
    weighted_marginal,
)

__all__ = [
    "AttributeSpecificPlan",
    "CVaRMode",
    "Decision",
    "EstimatorValue",
    "FairnessInstance",
    "GroupCounts",
    "GroupWeights",
    "MetricKind",
    "Region",
    "TestConfig",
    "TestOutcome",
    "WeightedPlan",
    "alpha_star",
    "average_quality",
    "classify_region",
    "cvar_fairness",
    "empirical_instance",
    "estimate",
    "estimate_from_counts",
    "exact_moments",
    "gap_vector",
    "max_gap",
    "run_test_dataset",
    "run_test_synthetic",
    "satisfies_tail_lemma",
    "separation_statistic",
    "weighted_marginal",
]
