"""Shared pytest plumbing: the acceptance-criteria result summary and shared fixtures."""

import numpy as np

from fairaudit.core import FairnessInstance, GroupWeights

# One entry per acceptance criterion: (number, verdict, description).
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, verdict: str, description: str) -> None:
    ACCEPTANCE_RESULTS.append((number, verdict, description))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, verdict, description in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:2d} {verdict}: {description}")


_RANDOM_INSTANCES = None


def _random_instances():
    """1,000 random instances, K in 2..10, uniform or random-simplex weights."""
    global _RANDOM_INSTANCES
    if _RANDOM_INSTANCES is None:
        rng = np.random.default_rng(2024)
        out = []
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            if rng.random() < 0.5:
                w = GroupWeights.uniform(k)
            else:
                w = GroupWeights(rng.dirichlet(np.ones(k)))
            out.append(FairnessInstance(w, rng.random(k)))
        _RANDOM_INSTANCES = out
    return _RANDOM_INSTANCES
