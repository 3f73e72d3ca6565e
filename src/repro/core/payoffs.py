"""Expected payoffs in the dispersal game.

This module implements the payoff calculus of Sections 1.1-1.4 of the paper:

* ``nu_p(x)`` — the *value* of site ``x`` against ``k - 1`` opponents playing
  ``p`` (Eq. 2): the expected reward of a focal player that commits to ``x``.
* ``E(rho; sigma^(k-1))`` — the expected payoff of a focal player playing
  ``rho`` against ``k - 1`` opponents playing ``sigma``.
* ``U[rho; (1 - eps) sigma + eps pi]`` — the payoff against ``k - 1``
  opponents drawn from an infinite population with a fraction ``eps`` of
  mutants (Eq. 3).

Everything is exact and vectorised over sites.  Every payoff reaches
``g(q) = E[C(1 + Binomial(k - 1, q))]`` through
:func:`occupancy_congestion_factor`, a one-row view of the batch kernel, and
this module builds no binomial law of its own.  The two-population payoffs
``E(rho; sigma^(k-1-l), pi^l)`` of the ESS characterisation (Section 1.4)
live with their only user, :mod:`repro.core.ess`.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import strategy_array, values_array
from repro.utils.validation import check_positive_integer, check_unit_interval

__all__ = [
    "occupancy_congestion_factor",
    "site_values",
    "expected_payoff",
    "mixture_payoff",
    "best_response_value",
    "best_response_sites",
    "exploitability",
]


def occupancy_congestion_factor(
    policy: CongestionPolicy,
    opponent_probabilities: np.ndarray,
    n_opponents: int,
) -> np.ndarray:
    """Expected congestion factor ``E[C(1 + Binomial(n_opponents, q))]`` per site.

    A one-row view of
    :func:`~repro.batch.payoffs.occupancy_congestion_factor_batch`; callers
    with many profiles stack them into one batch call instead.

    Parameters
    ----------
    policy:
        Congestion policy supplying ``C``.
    opponent_probabilities:
        Per-site probability ``q`` that a single opponent selects the site.
    n_opponents:
        Number of independent opponents.

    Returns
    -------
    numpy.ndarray
        One value per site; multiplying by ``f(x)`` yields ``nu(x)``.
    """
    # Imported here: repro.batch builds on repro.core at import time.
    from repro.batch.payoffs import occupancy_congestion_factor_batch

    q = np.asarray(opponent_probabilities, dtype=float)
    return occupancy_congestion_factor_batch(policy, q[None], n_opponents)[0]


def site_values(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> np.ndarray:
    """The value ``nu_p(x)`` of every site against ``k - 1`` opponents playing ``strategy``.

    This is Eq. (2) of the paper: the expected payoff of a focal player that
    deterministically selects site ``x`` while each of the ``k - 1`` opponents
    independently selects a site according to ``strategy``.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    p = strategy_array(strategy)
    if f.shape != p.shape:
        raise ValueError("values and strategy must cover the same number of sites")
    return f * occupancy_congestion_factor(policy, p, k - 1)


def expected_payoff(
    values: SiteValues | np.ndarray,
    focal: Strategy | np.ndarray,
    opponents: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """Expected payoff ``E(focal; opponents^(k-1))`` of a focal mixed strategy.

    The focal player draws its site from ``focal`` and each of the ``k - 1``
    opponents independently from ``opponents``.  A focal entry outside
    ``[0, 1]`` (NaN included) is refused, as in
    :func:`~repro.batch.payoffs.expected_payoff_batch`.
    """
    rho = check_unit_interval(strategy_array(focal), "focal strategy")
    nu = site_values(values, opponents, k, policy)
    if rho.shape != nu.shape:
        raise ValueError("focal strategy and values must cover the same number of sites")
    return float(np.dot(rho, nu))


def mixture_payoff(
    values: SiteValues | np.ndarray,
    focal: Strategy | np.ndarray,
    resident: Strategy,
    mutant: Strategy,
    epsilon: float,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """The population payoff ``U[focal; (1 - eps) resident + eps mutant]`` (Eq. 3).

    Because a co-visitor's site choice only depends on its marginal law, the
    payoff against a random ``(1 - eps, eps)`` mixture of residents and
    mutants equals the payoff against ``k - 1`` opponents that each play the
    mixed strategy ``(1 - eps) * resident + eps * mutant``.
    """
    return expected_payoff(values, focal, resident.mix(mutant, epsilon), k, policy)


def best_response_value(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """Highest achievable payoff of a unilateral deviator: ``max_x nu_p(x)``."""
    return float(np.max(site_values(values, strategy, k, policy)))


def best_response_sites(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
    *,
    atol: float = 1e-10,
) -> np.ndarray:
    """0-based indices of the sites attaining the best-response value."""
    nu = site_values(values, strategy, k, policy)
    return np.nonzero(nu >= nu.max() - atol)[0]


def exploitability(
    values: SiteValues | np.ndarray,
    strategy: Strategy,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """Gain available to a unilateral deviator from the symmetric profile ``strategy``.

    ``exploitability(p) = max_x nu_p(x) - sum_x p(x) nu_p(x)``.  It is zero
    exactly at a symmetric Nash equilibrium (the IFD) and positive otherwise.
    """
    nu = site_values(values, strategy, k, policy)
    p = strategy.as_array()
    return float(nu.max() - np.dot(p, nu))
