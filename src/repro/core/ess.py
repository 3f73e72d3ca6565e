"""Evolutionary stable strategies in the k-player dispersal game.

The paper adopts the generalisation of ESS to an infinite population whose
members are matched uniformly at random in groups of ``k`` (Section 1.4).  A
strategy ``sigma`` is an ESS when, for every mutant ``pi != sigma``, playing
``sigma`` does strictly better than playing ``pi`` once the mutant share of
the population is small enough.

Two equivalent tools are provided:

* the *characterisation* check (Broom & Rychtar): for each mutant ``pi`` there
  must exist an index ``m_pi`` with equal payoffs for every mixed-opponent
  composition below ``m_pi`` and a strict advantage at ``m_pi``.
  :func:`ess_report` stacks its mutants into one ``(B, M)`` matrix and gets
  every mutant's gap at every composition from one pass over the
  compositions, each contracting a resident binomial law and a stacked
  mutant law against the congestion table (``2k`` laws per audit, whatever
  the number of mutants); :func:`ess_conditions_against` is its one-mutant
  view;
* the *invasion-barrier* check: the payoff difference
  ``U[sigma; (1-eps) sigma + eps pi] - U[pi; (1-eps) sigma + eps pi]`` must be
  positive for all sufficiently small ``eps``.

Theorem 3 states that ``sigma_star`` is an ESS under the exclusive policy;
the tests and benchmarks verify this numerically on random instances and
random mutants, and verify that the *stronger* stability property proved in
Section 3 (strict advantage for every composition with at least one mutant)
also holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.payoffs import expected_payoff, exploitability
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import strategy_array, values_array
from repro.utils.numerics import binomial_pmf_tensor
from repro.utils.validation import check_positive_integer, check_probability

__all__ = [
    "ESSComparison",
    "ESSReport",
    "is_symmetric_nash",
    "ess_conditions_against",
    "invasion_barrier",
    "ess_report",
]


@dataclass(frozen=True)
class ESSComparison:
    """Outcome of the ESS characterisation against one specific mutant.

    Attributes
    ----------
    resists:
        Whether the resident strategy resists invasion by the mutant.
    m_index:
        The index ``m_pi`` at which the strict advantage appears (``None`` when
        the mutant is not resisted).
    payoff_differences:
        ``E(sigma; sigma^{k-l-1}, pi^l) - E(pi; sigma^{k-l-1}, pi^l)`` for
        ``l = 0 .. k-1`` (the resident-vs-mutant payoff gap as the number of
        mutant co-players grows).
    """

    resists: bool
    m_index: int | None
    payoff_differences: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ESSReport:
    """Aggregated ESS audit over a collection of mutants."""

    is_ess: bool
    n_mutants: int
    n_resisted: int
    worst_margin: float
    failures: tuple[int, ...]


def is_symmetric_nash(
    values: SiteValues | np.ndarray,
    strategy: Strategy,
    k: int,
    policy: CongestionPolicy,
    *,
    atol: float = 1e-8,
) -> bool:
    """``True`` when no unilateral deviation from the symmetric profile is profitable."""
    return exploitability(values, strategy, k, policy) <= atol


def _payoff_gaps(
    f: np.ndarray,
    sigma: np.ndarray,
    mutants: np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> np.ndarray:
    """The ``(B, k)`` resident-minus-mutant payoff gaps of a ``(B, M)`` mutant stack.

    ``D[b, l] = E(sigma; sigma^(k-1-l), pi_b^l) - E(pi_b; sigma^(k-1-l), pi_b^l)``.
    A focal player at site ``x`` meets ``Bin(k-1-l, sigma_x) + Bin(l, pi_bx)``
    co-visitors, so its congestion factor ``h_l(x)`` contracts the two
    binomial laws against the Hankel table ``H[i, j] = C(1 + i + j)``.  Each
    ``l`` builds one resident law and one stacked mutant law: ``2k`` laws
    whatever ``B``, and ``O(B M k)`` memory.
    """
    if sigma.shape != f.shape or mutants.shape[1:] != f.shape:
        raise ValueError("resident, mutants and values must cover the same number of sites")
    table = np.concatenate([policy.table(k), np.zeros(k - 1)])
    hankel = table[np.add.outer(np.arange(k), np.arange(k))]  # zero past C(k), never read
    gaps = np.empty((mutants.shape[0], k))
    for ell in range(k):
        n = k - 1 - ell
        resident_side = binomial_pmf_tensor(n, sigma[None])[0] @ hankel[: n + 1, : ell + 1]
        nu = f * np.vecdot(binomial_pmf_tensor(ell, mutants), resident_side)  # (B, M)
        gaps[:, ell] = np.vecdot(nu, sigma) - np.vecdot(mutants, nu)
    return gaps


def _first_decisive(gaps: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``gaps``: whether its first entry beyond ``atol`` is positive, and that index.

    A row with no entry beyond ``atol`` (a payoff-equivalent mutant) is not
    resisted.
    """
    first = np.argmax(np.abs(gaps) > atol, axis=1)
    return np.take_along_axis(gaps, first[:, None], axis=1)[:, 0] > atol, first


def ess_conditions_against(
    values: SiteValues | np.ndarray,
    resident: Strategy,
    mutant: Strategy,
    k: int,
    policy: CongestionPolicy,
    *,
    atol: float = 1e-9,
) -> ESSComparison:
    """Evaluate the ESS characterisation of Section 1.4 against one mutant.

    For ``l = 0 .. k-1`` compute the payoff difference between the resident and
    the mutant when facing ``l`` mutant co-players and ``k - 1 - l`` resident
    co-players.  The resident resists the mutant when the first non-zero
    difference (scanning ``l`` upwards) is strictly positive.  A one-mutant
    view of the stacked audit of :func:`ess_report`.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    diffs = _payoff_gaps(f, strategy_array(resident), strategy_array(mutant)[None], k, policy)[0]
    resists, first = _first_decisive(diffs[None], atol)
    return ESSComparison(bool(resists[0]), int(first[0]) if resists[0] else None, diffs)


def invasion_barrier(
    values: SiteValues | np.ndarray,
    resident: Strategy,
    mutant: Strategy,
    k: int,
    policy: CongestionPolicy,
    *,
    epsilon_grid: np.ndarray | None = None,
) -> float:
    """Empirical invasion barrier: the largest mutant share the resident repels.

    Scans a grid of mutant proportions ``eps`` and returns the largest prefix
    of the grid on which ``U[resident] > U[mutant]`` strictly.  Returns ``0``
    when the resident is invadable at arbitrarily small mutant shares and
    ``1`` when it resists for every tested proportion.  The ``U`` of Eq. (3)
    are read off the site values against the mixed opponent
    ``(1 - eps) resident + eps mutant``, for the whole grid in one
    :func:`~repro.batch.payoffs.occupancy_congestion_factor_batch` call.
    """
    # Imported here: repro.batch builds on repro.core at import time.
    from repro.batch.payoffs import occupancy_congestion_factor_batch

    k = check_positive_integer(k, "k")
    f = values_array(values)
    if epsilon_grid is None:
        epsilon_grid = np.concatenate(
            [np.logspace(-6, -1, 16), np.linspace(0.15, 0.99, 18)]
        )
    eps = np.sort([check_probability(e, "epsilon") for e in np.ravel(epsilon_grid)])
    if eps.size == 0:
        return 0.0
    sigma, pi = resident.as_array(), mutant.as_array()
    mixed = (1.0 - eps)[:, None] * sigma + eps[:, None] * pi  # (E, M) opponents
    nu = f * occupancy_congestion_factor_batch(policy, mixed, k - 1)
    prefix = int(np.logical_and.accumulate(nu @ sigma > nu @ pi).sum())
    return float(eps[prefix - 1]) if prefix else 0.0


def ess_report(
    values: SiteValues | np.ndarray,
    resident: Strategy,
    k: int,
    policy: CongestionPolicy,
    *,
    mutants: list[Strategy] | None = None,
    n_random_mutants: int = 50,
    rng: np.random.Generator | int | None = 0,
    atol: float = 1e-9,
) -> ESSReport:
    """Audit ``resident`` against a battery of mutants and summarise the outcome.

    The mutant pool contains, unless overridden: every pure strategy, the
    uniform strategy, value-proportional strategies, local perturbations of
    the resident, and ``n_random_mutants`` Dirichlet-random strategies.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    m = f.size
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    if mutants is None:
        mutants = [Strategy.point_mass(m, x) for x in range(m)]
        mutants.append(Strategy.uniform(m))
        mutants.append(Strategy.proportional(f))
        mutants.extend(resident.perturbed(generator, scale=s) for s in (0.01, 0.1, 0.5))
        mutants.extend(Strategy.random(m, generator) for _ in range(n_random_mutants))

    # A mutant identical to the resident is not a mutant: it counts as resisted.
    live = [i for i, mutant in enumerate(mutants) if mutant.total_variation(resident) > 1e-10]
    worst_margin, failures = 0.0, []
    if live:
        stack = np.stack([strategy_array(mutants[i]) for i in live])
        gaps = _payoff_gaps(f, strategy_array(resident), stack, k, policy)
        resists, first = _first_decisive(gaps, atol)
        failures = [i for i, ok in zip(live, resists) if not ok]
        if resists.any():
            worst_margin = float(gaps[resists, first[resists]].min())
    return ESSReport(
        is_ess=len(failures) == 0,
        n_mutants=len(mutants),
        n_resisted=len(mutants) - len(failures),
        worst_margin=worst_margin,
        failures=tuple(failures),
    )


def equilibrium_payoff(
    values: SiteValues | np.ndarray,
    strategy: Strategy,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """Expected payoff of a player in the symmetric profile ``strategy`` (``E(sigma; sigma^{k-1})``)."""
    f = values_array(values)
    return expected_payoff(f, strategy, strategy, k, policy)
