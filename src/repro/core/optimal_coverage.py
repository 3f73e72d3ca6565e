"""Coverage-optimal symmetric strategies (Theorem 4 and Observation 1).

Maximising ``Cover(p) = sum_x f(x) (1 - (1 - p(x))**k)`` over the probability
simplex is a smooth concave problem.  Its KKT conditions say that the partial
derivatives ``k f(x) (1 - p(x))**(k-1)`` are equal on the support and no larger
outside it — which is precisely the IFD condition of the exclusive policy.
The unique maximiser therefore *is* ``sigma_star`` (Theorem 4), and
:func:`optimal_coverage_strategy` is the ``sigma_star`` view plus one coverage
evaluation.

It also exposes the Observation 1 quantities (full-coordination optimum and
its ``1 - 1/e`` lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage import coverage, full_coordination_coverage
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues

__all__ = [
    "CoverageOptimum",
    "optimal_coverage_strategy",
    "optimal_coverage",
    "observation1_lower_bound",
    "observation1_holds",
]


@dataclass(frozen=True)
class CoverageOptimum:
    """A coverage-maximising symmetric strategy together with its coverage."""

    strategy: Strategy
    coverage: float
    method: str


def optimal_coverage_strategy(values: SiteValues | np.ndarray, k: int) -> CoverageOptimum:
    """The coverage-optimal symmetric strategy ``p_star`` (equal to ``sigma_star``)."""
    result = sigma_star(values, k)
    return CoverageOptimum(
        strategy=result.strategy,
        coverage=coverage(values, result.strategy, result.k),
        method="closed-form",
    )


def optimal_coverage(values: SiteValues | np.ndarray, k: int) -> float:
    """``Cover(p_star)``: the best coverage achievable by any symmetric strategy."""
    return optimal_coverage_strategy(values, k).coverage


def observation1_lower_bound(values: SiteValues | np.ndarray, k: int) -> float:
    """The Observation 1 lower bound ``(1 - 1/e) * sum_{x <= k} f(x)``."""
    return (1.0 - 1.0 / np.e) * full_coordination_coverage(values, k)


def observation1_holds(values: SiteValues | np.ndarray, k: int) -> bool:
    """Check Observation 1: ``Cover(p_star) > (1 - 1/e) * sum_{x <= k} f(x)``."""
    return optimal_coverage(values, k) > observation1_lower_bound(values, k)
