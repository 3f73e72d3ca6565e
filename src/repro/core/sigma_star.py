"""The closed-form IFD under the exclusive policy: algorithm ``sigma_star``.

Section 2.1 of the paper derives the unique strategy satisfying the IFD
conditions under the exclusive reward policy ``I_exc(x, l) = f(x) * C_exc(l)``::

    sigma*(x) = 1 - alpha / f(x)**(1/(k-1))     for x <= W,   0 otherwise

    W     = largest y such that  sum_{x <= y} (1 - (f(y)/f(x))**(1/(k-1))) <= 1
    alpha = (W - 1) / sum_{x <= W} f(x)**(-1/(k-1))

``sigma_star`` is simultaneously

* the unique symmetric Nash equilibrium under the exclusive policy
  (Observation 2 + Claim 7),
* an evolutionary stable strategy (Theorem 3), and
* the unique maximiser of the coverage among **all** symmetric strategies
  (Theorem 4), which is what makes the exclusive policy's symmetric price of
  anarchy equal to one (Corollary 5).

It also coincides with the first round of the ``A*`` algorithm of Korman &
Rodeh for parallel Bayesian search (see :mod:`repro.search`).

The closed form is evaluated by
:func:`repro.batch.solvers.sigma_star_batch`; the functions here are its
one-instance views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import values_array
from repro.utils.numerics import safe_power
from repro.utils.validation import check_positive_integer

__all__ = ["SigmaStarResult", "sigma_star", "support_size", "normalization_constant"]


@dataclass(frozen=True)
class SigmaStarResult:
    """Closed-form description of ``sigma_star`` for one game instance.

    Attributes
    ----------
    strategy:
        The distribution ``sigma_star`` itself.
    support_size:
        The prefix length ``W`` of the support.
    alpha:
        The normalisation constant of the Pareto-like form.
    equilibrium_value:
        The common site value ``nu(x) = alpha**(k-1)`` on the support (the
        expected payoff of every player at equilibrium).
    k:
        Number of players the instance was solved for.
    """

    strategy: Strategy
    support_size: int
    alpha: float
    equilibrium_value: float
    k: int

    @property
    def probabilities(self) -> np.ndarray:
        """Shortcut for ``strategy.as_array()``."""
        return self.strategy.as_array()


def _instance(values: SiteValues | np.ndarray):
    """``values`` as a batch of one; raw arrays must already be non-increasing."""
    # Imported here: repro.batch builds on repro.core at import time.
    from repro.batch.solvers import as_padded

    return as_padded([values if isinstance(values, SiteValues) else values_array(values)])


def support_size(values: SiteValues | np.ndarray, k: int) -> int:
    """The support prefix length ``W`` of ``sigma_star``.

    ``W`` is the largest ``y`` such that
    ``sum_{x <= y} (1 - (f(y)/f(x))**(1/(k-1))) <= 1``.  The left-hand side is
    non-decreasing in ``y`` so the admissible ``y`` form a prefix.
    """
    return sigma_star(values, k).support_size


def normalization_constant(values: SiteValues | np.ndarray, k: int, w: int | None = None) -> float:
    """The constant ``alpha = (W - 1) / sum_{x <= W} f(x)**(-1/(k-1))``.

    ``w`` defaults to the support size of ``sigma_star``.
    """
    if w is None:
        return sigma_star(values, k).alpha
    k = check_positive_integer(k, "k")
    f = _instance(values).values[0]
    if w < 1 or w > f.size:
        raise ValueError(f"support size {w} out of range for M={f.size}")
    if k == 1:
        return 0.0
    return float((w - 1) / safe_power(f[:w], -1.0 / (k - 1)).sum())


def sigma_star(values: SiteValues | np.ndarray, k: int) -> SigmaStarResult:
    """Compute ``sigma_star`` (the paper's Algorithm ``sigma*``) for ``k`` players.

    Parameters
    ----------
    values:
        Site values, non-increasing (use :class:`~repro.core.values.SiteValues`
        to sort arbitrary positive vectors).
    k:
        Number of players (``k >= 1``).

    Returns
    -------
    SigmaStarResult
        Strategy, support size ``W``, normalisation ``alpha`` and the common
        equilibrium value ``alpha**(k-1)``.

    Notes
    -----
    * ``k = 1``: a single player simply exploits the most valuable site, so the
      result is a point mass on site 1 with equilibrium value ``f(1)``.
    * For ``M >= 2`` and ``k >= 2`` the support always contains at least two
      sites (the condition at ``y = 2`` is ``1 - (f(2)/f(1))**(1/(k-1)) < 1``).
    """
    from repro.batch.solvers import sigma_star_batch

    k = check_positive_integer(k, "k")
    return sigma_star_batch(_instance(values), [k]).result(0, 0)
