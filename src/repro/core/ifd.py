"""The Ideal Free Distribution for any congestion policy.

The IFD (Fretwell & Lucas) is the distribution ``p`` for which every site in
the support yields the same expected payoff ``nu_p(x)`` and every other site
yields at most that payoff.  For non-increasing reward policies it exists,
is unique, and is the only symmetric Nash equilibrium of the dispersal game
(Observation 2 of the paper).

:func:`ideal_free_distribution` is the one-instance front of the batched
water-filling solver :func:`repro.batch.ifd.water_filling_batch`; the
exclusive policy takes the paper's closed form
:func:`repro.core.sigma_star.sigma_star` unless asked not to.
:func:`verify_ifd` checks the two IFD conditions for any strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.payoffs import site_values
from repro.core.policies import CongestionPolicy
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import values_array
from repro.utils.validation import check_positive_integer

__all__ = ["IFDResult", "IFDReport", "ideal_free_distribution", "verify_ifd"]


@dataclass(frozen=True)
class IFDResult:
    """Result of an IFD computation.

    Attributes
    ----------
    strategy:
        The ideal free distribution.
    value:
        Common expected payoff ``nu_p(x)`` on the support (the players'
        equilibrium payoff).
    support_size:
        Number of sites receiving positive probability.
    converged:
        Whether the strategy meets both IFD conditions (see
        :data:`repro.batch.ifd.CONVERGED_ATOL`).
    iterations:
        Outer water-filling steps run (the fixed budget of
        :attr:`repro.batch.ifd.WaterFilling.outer_steps`; 0 for closed forms,
        which include every ``k <= 2`` game).
    """

    strategy: Strategy
    value: float
    support_size: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class IFDReport:
    """Diagnostic produced by :func:`verify_ifd`.

    ``is_ifd`` summarises the two IFD conditions: payoffs are equal (within
    ``atol``) on the support and no unexplored site pays more than the support
    value.
    """

    is_ifd: bool
    support_value_spread: float
    max_outside_advantage: float
    support_size: int
    value: float


def ideal_free_distribution(
    values: SiteValues | np.ndarray,
    k: int,
    policy: CongestionPolicy,
    *,
    use_closed_form: bool = True,
) -> IFDResult:
    """Compute the IFD (= unique symmetric Nash equilibrium) of the dispersal game.

    Parameters
    ----------
    values:
        Site values (a raw array keeps its own site order).
    k:
        Number of players.
    policy:
        Congestion policy (``C(1) = 1``, non-increasing).  The policy is
        validated for ``k`` players.
    use_closed_form:
        When the policy is the exclusive policy, use the paper's closed form
        ``sigma_star`` instead of the water-filling solver.  It governs only
        that route: the solver's own closed forms below apply either way.

    Notes
    -----
    * ``k = 1``: the single player's best response is the most valuable site.
    * ``k = 2``: ``g`` is linear, so the water filling is solved exactly
      (``iterations = 0``); ``converged`` still comes from the IFD check.
    * If the congestion table is constant on ``{1, ..., k}`` (no congestion
      cost at all), the unique-IFD argument of Observation 2 does not apply;
      the solver returns the natural equilibrium in which players spread
      uniformly over the maximum-value sites.
    """
    # Imported here: repro.batch builds on repro.core at import time.
    from repro.batch.ifd import water_filling_batch
    from repro.batch.payoffs import congestion_table_batch

    k = check_positive_integer(k, "k")
    f = values_array(values)
    policy.validate(k)

    if use_closed_form and k > 1 and policy.is_exclusive(k):
        closed = sigma_star(values, k)
        return IFDResult(closed.strategy, closed.equilibrium_value, closed.support_size, True, 0)

    tables = congestion_table_batch(policy, k - 1)
    solved = water_filling_batch(f[None, :], None, np.array([k]), tables)
    return IFDResult(
        Strategy(solved.probabilities[0]),
        float(solved.values[0]),
        int(solved.support_sizes[0]),
        bool(solved.converged[0]),
        0 if solved.closed_form[0] else solved.outer_steps,
    )


def verify_ifd(
    values: SiteValues | np.ndarray,
    strategy: Strategy,
    k: int,
    policy: CongestionPolicy,
    *,
    atol: float = 1e-7,
    support_atol: float = 1e-9,
) -> IFDReport:
    """Check the two IFD conditions for ``strategy`` and return a diagnostic report.

    Conditions (Section 1.3 of the paper):

    1. every site explored with positive probability yields the same payoff;
    2. every unexplored site yields at most that payoff.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    nu = site_values(f, strategy, k, policy)
    p = strategy.as_array()
    support = p > support_atol

    if not np.any(support):
        return IFDReport(False, np.inf, np.inf, 0, float("nan"))

    support_values = nu[support]
    value = float(support_values.mean())
    spread = float(support_values.max() - support_values.min())
    outside = nu[~support]
    max_outside_advantage = float((outside - value).max()) if outside.size else -np.inf
    is_ifd = spread <= atol and (outside.size == 0 or max_outside_advantage <= atol)
    return IFDReport(
        is_ifd=bool(is_ifd),
        support_value_spread=spread,
        max_outside_advantage=max_outside_advantage,
        support_size=int(support.sum()),
        value=value,
    )
