"""Capacity-constrained coverage (Section 5.1 future work).

The paper's coverage measure assumes a single visitor suffices to consume the
full value of a site.  Here each individual can consume at most a fraction
``1 / r(x)`` of site ``x`` (equivalently, site ``x`` needs ``r(x)`` visitors to
be fully exploited), so the group extracts

    CapCover(p) = sum_x f(x) * E[ min(1, N_x / r(x)) ],      N_x ~ Binomial(k, p(x)).

With ``r == 1`` this reduces exactly to the paper's coverage, which the tests
verify.  The functional is still concave in each ``p(x)`` (it is a
non-decreasing concave transform of a binomial mean), so projected gradient
ascent finds the global optimum; there is no closed form in general.
"""

from __future__ import annotations

import numpy as np

from repro.batch.extensions import capacity_coverage_batch, capacity_coverage_gradient_batch
from repro.core.optimal_coverage import CoverageOptimum
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import strategy_array, values_array
from repro.utils.numerics import simplex_projection
from repro.utils.validation import check_positive_integer, check_site_parameters

__all__ = ["capacity_coverage", "capacity_coverage_gradient", "maximize_capacity_coverage"]


def capacity_coverage(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    requirements: np.ndarray | int,
) -> float:
    """Capacity-constrained coverage of a symmetric strategy.

    A one-row view of
    :func:`repro.batch.extensions.capacity_coverage_batch`.

    Parameters
    ----------
    values:
        Site values ``f``.
    strategy:
        Symmetric strategy ``p``.
    k:
        Number of players.
    requirements:
        Number of visitors ``r(x)`` needed to fully consume site ``x`` (scalar
        or per-site vector).  ``r == 1`` recovers the paper's coverage.
    """
    k = check_positive_integer(k, "k")
    f, p = values_array(values), strategy_array(strategy)
    r = check_site_parameters(requirements, "requirements", f.shape, minimum=1, integer=True)
    return float(capacity_coverage_batch(f[None, :], p[None, :], k, r)[0])


def capacity_coverage_gradient(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    requirements: np.ndarray | int,
) -> np.ndarray:
    """Exact gradient of :func:`capacity_coverage` with respect to ``p``.

    A one-row view of
    :func:`repro.batch.extensions.capacity_coverage_gradient_batch`.
    """
    k = check_positive_integer(k, "k")
    f, p = values_array(values), strategy_array(strategy)
    r = check_site_parameters(requirements, "requirements", f.shape, minimum=1, integer=True)
    return capacity_coverage_gradient_batch(f[None, :], p[None, :], k, r)[0]


def maximize_capacity_coverage(
    values: SiteValues | np.ndarray,
    k: int,
    requirements: np.ndarray | int,
    *,
    step_size: float | None = None,
    max_iter: int = 5_000,
    tol: float = 1e-12,
    initial: Strategy | None = None,
) -> CoverageOptimum:
    """Maximise the capacity-constrained coverage by projected gradient ascent.

    The objective is concave (each term is a concave function of ``p(x)``), so
    the method converges to the global optimum.  With ``requirements == 1`` the
    result matches the closed-form ``sigma_star`` (tested).
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    r = check_site_parameters(requirements, "requirements", (f.size,), minimum=1, integer=True)
    m = f.size
    if step_size is None:
        step_size = 1.0 / max(k * k * float(f.max()), 1e-12)
    p = (initial.as_array() if initial is not None else np.full(m, 1.0 / m)).copy()
    previous = capacity_coverage(f, p, k, r)
    for _ in range(max_iter):
        grad = capacity_coverage_gradient(f, p, k, r)
        p = simplex_projection(p + step_size * grad)
        current = capacity_coverage(f, p, k, r)
        if abs(current - previous) <= tol * max(1.0, abs(current)):
            previous = current
            break
        previous = current
    strategy = Strategy(p)
    return CoverageOptimum(strategy, capacity_coverage(f, strategy, k, r), "projected-gradient")
