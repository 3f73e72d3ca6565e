"""Dispersal with per-site visiting costs (Section 5.1 future work).

The extended reward of a player that selects site ``x`` together with ``l - 1``
others is ``f(x) * C(l) - d(x)``, where ``d(x) >= 0`` is the cost of visiting
``x`` (travel energy, risk, entry fee).  Costs do not affect the coverage
functional — the group still collects ``f(x)`` from every visited site — but
they shift the equilibrium: expensive sites are visited less, so coverage at
equilibrium generally drops below the cost-free optimum even under the
exclusive policy.

With ``d == 0`` everything reduces to the core model, which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.ifd import water_filling_batch
from repro.batch.payoffs import congestion_table_batch
from repro.core.payoffs import site_values
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import values_array
from repro.utils.validation import check_positive_integer, check_site_parameters

__all__ = ["CostAdjustedEquilibrium", "cost_adjusted_site_values", "cost_adjusted_ifd"]


@dataclass(frozen=True)
class CostAdjustedEquilibrium:
    """Symmetric equilibrium of the cost-adjusted dispersal game.

    Attributes
    ----------
    strategy:
        Equilibrium distribution over sites.
    value:
        Common net payoff (reward minus cost) on the support.
    support_size:
        Number of sites visited with positive probability.
    converged:
        Whether the strategy meets both equilibrium conditions.
    """

    strategy: Strategy
    value: float
    support_size: int
    converged: bool


def cost_adjusted_site_values(
    values: SiteValues | np.ndarray,
    costs: np.ndarray | float,
    strategy: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> np.ndarray:
    """Net site values ``nu_p(x) = f(x) * g(p(x)) - d(x)`` of the extended game."""
    f = values_array(values)
    return site_values(f, strategy, k, policy) - check_site_parameters(costs, "costs", (f.size,))


def cost_adjusted_ifd(
    values: SiteValues | np.ndarray,
    costs: np.ndarray | float,
    k: int,
    policy: CongestionPolicy,
) -> CostAdjustedEquilibrium:
    """Symmetric equilibrium of the dispersal game with visiting costs.

    The one-instance front of :func:`repro.batch.ifd.water_filling_batch`
    with net payoffs ``f(x) * g(q) - d(x)``.  Players must pick some site (no
    staying-home option), so the equilibrium net payoff may be negative when
    every site is expensive.

    Notes
    -----
    * ``k = 1``: the single player picks the site with the largest ``f - d``.
    * Requires the congestion table restricted to ``{1..k}`` to be non-constant
      (otherwise net payoffs do not respond to congestion and the equilibrium
      concentrates on ``argmax (f - d)``, which is what the solver returns).
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    d = check_site_parameters(costs, "costs", (f.size,))
    policy.validate(k)
    tables = congestion_table_batch(policy, k - 1)
    solved = water_filling_batch(f[None, :], d[None, :], np.array([k]), tables)
    return CostAdjustedEquilibrium(
        Strategy(solved.probabilities[0]),
        float(solved.values[0]),
        int(solved.support_sizes[0]),
        bool(solved.converged[0]),
    )
