"""Exact coverage-time laws for one site-visit distribution (``B = 1``).

The Von Schelling generalized coupon-collector machinery lives in
:mod:`repro.batch.coverage_times`, evaluated for whole ``(B, M)`` batches of
visit distributions at once; the entry points here are thin ``B = 1``
wrappers with scalar signatures, mirroring how
:mod:`repro.search.simulator` wraps :mod:`repro.batch.search`.

A "visit distribution" is the per-draw law of the site each of the ``k``
searchers samples every round — any :class:`~repro.core.strategy.Strategy`
(``sigma_star``, uniform, proportional, ...) or plain probability vector.
A strategy that skips a site can never complete coverage, so the expected
times are ``inf`` and the CDF is identically ``0`` for such inputs (the
same where-masked contract as the batched kernels).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batch.coverage_times import (
    coverage_time_cdf_batch,
    expected_coverage_time_batch,
    partial_coverage_time_batch,
)
from repro.utils.validation import check_positive_integer

__all__ = [
    "expected_coverage_time",
    "coverage_time_cdf",
    "partial_coverage_time",
]


def expected_coverage_time(distribution, k: int) -> float:
    """Exact expected rounds until all sites have been visited.

    ``k`` searchers draw one site each per round, i.i.d. from
    ``distribution``; returns ``inf`` when some site has zero visit
    probability.  Thin ``B = 1`` wrapper over
    :func:`repro.batch.coverage_times.expected_coverage_time_batch`.
    """
    k = check_positive_integer(k, "k")
    return float(expected_coverage_time_batch([distribution], k)[0])


def coverage_time_cdf(
    distribution, k: int, times: Sequence[int] | np.ndarray | int
) -> float | np.ndarray:
    """Exact ``P(T <= t)`` of the full-coverage time on a round grid.

    Returns a float for scalar ``times`` and a ``(len(times),)`` vector for
    a grid.  Thin ``B = 1`` wrapper over
    :func:`repro.batch.coverage_times.coverage_time_cdf_batch`.
    """
    k = check_positive_integer(k, "k")
    values = coverage_time_cdf_batch([distribution], k, times)
    if values.ndim == 1:
        return float(values[0])
    return np.asarray(values[0], dtype=float)


def partial_coverage_time(distribution, k: int, j: int) -> float:
    """Exact expected rounds until any ``j`` distinct sites are visited.

    ``inf`` when fewer than ``j`` sites have positive visit probability.
    Thin ``B = 1`` wrapper over
    :func:`repro.batch.coverage_times.partial_coverage_time_batch`.
    """
    k = check_positive_integer(k, "k")
    j = check_positive_integer(j, "j")
    return float(partial_coverage_time_batch([distribution], k, j)[0])
