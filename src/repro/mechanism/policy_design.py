"""Designing the congestion rule itself (the paper's mechanism lever).

Here the rewards are pinned to the social values (``r = f``, as in ecology)
and the designer instead chooses the congestion function ``C``.  Theorems 4-6
say the optimal choice is the exclusive function; these helpers make that
statement quantitative:

* :func:`compare_policies` evaluates a roster of congestion policies on an
  instance, reporting equilibrium coverage and the per-instance SPoA;
* :func:`best_two_level_policy` sweeps the one-parameter family ``C_c`` of
  Figure 1 and returns the collision payoff ``c`` with the best equilibrium
  coverage — the ablation showing the maximum sits at ``c = 0``.

Both are thin ``B = 1`` wrappers (original signatures) over the batched
roster sweeps of :mod:`repro.batch.mechanism`, which evaluate whole
``(instances x k x policy)`` grids per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.batch.mechanism import best_two_level_batch, compare_policies_batch
from repro.core.policies import CongestionPolicy
from repro.core.values import SiteValues
from repro.utils.validation import check_positive_integer

__all__ = ["PolicyComparison", "compare_policies", "best_two_level_policy"]


@dataclass(frozen=True)
class PolicyComparison:
    """Equilibrium outcome of one congestion policy on one instance."""

    policy_name: str
    equilibrium_coverage: float
    optimal_coverage: float
    spoa: float
    equilibrium_payoff: float
    support_size: int


def compare_policies(
    values: SiteValues | np.ndarray,
    k: int,
    policies: Sequence[CongestionPolicy],
) -> list[PolicyComparison]:
    """Evaluate each policy's IFD coverage against the coverage optimum.

    Thin ``B = 1`` wrapper over
    :func:`repro.batch.mechanism.compare_policies_batch`.
    """
    k = check_positive_integer(k, "k")
    batch = compare_policies_batch([values], [k], list(policies))
    return [batch.comparison(index, 0, 0) for index in range(len(batch.policy_names))]


def best_two_level_policy(
    values: SiteValues | np.ndarray,
    k: int,
    *,
    c_grid: np.ndarray | None = None,
) -> tuple[float, list[PolicyComparison]]:
    """Sweep the collision payoff ``c`` of the two-level family and pick the best.

    Returns ``(best_c, rows)`` where ``rows`` holds one
    :class:`PolicyComparison` per grid point (in grid order).  Theorem 6
    predicts the best ``c`` to be 0 for every instance in which the exclusive
    support differs from the others' — the benchmarks confirm the maximiser of
    equilibrium coverage sits at ``c = 0`` on the Figure 1 instances.

    Thin ``B = 1`` wrapper over
    :func:`repro.batch.mechanism.best_two_level_batch` (same first-argmax
    tie-breaking in grid order).
    """
    k = check_positive_integer(k, "k")
    batch = best_two_level_batch([values], [k], c_grid=c_grid)
    rows = [
        batch.comparisons.comparison(index, 0, 0)
        for index in range(batch.c_grid.size)
    ]
    return float(batch.best_c[0, 0]), rows
