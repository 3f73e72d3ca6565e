"""Individual welfare of symmetric strategies and its maximisation.

The *welfare* of a symmetric strategy ``p`` under a reward policy is the
expected total payoff collected by the ``k`` players::

    Welfare(p) = k * sum_x p(x) * nu_p(x)

Figure 1 of the paper plots, next to the ESS coverage and the optimal
coverage, the coverage of the symmetric strategy that maximises the players'
individual payoffs (equivalently the welfare, since players are symmetric).
This module computes that strategy.

For two sites the problem is one-dimensional and solved by dense grid search
with local refinement; the general case uses multi-start projected gradient
ascent (welfare is generally non-concave, so several restarts are used).
Both evaluate whole stacks of profiles — a grid, or a point with its ``M``
finite-difference neighbours — in one
:func:`~repro.batch.payoffs.occupancy_congestion_factor_batch` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage import coverage
from repro.core.payoffs import site_values
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import values_array
from repro.utils.numerics import simplex_projection
from repro.utils.validation import check_positive_integer

__all__ = ["WelfareOptimum", "expected_welfare", "individual_payoff", "welfare_optimal_strategy"]


@dataclass(frozen=True)
class WelfareOptimum:
    """A welfare-maximising symmetric strategy with its welfare and coverage."""

    strategy: Strategy
    welfare: float
    individual_payoff: float
    coverage: float
    method: str


def individual_payoff(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """Expected payoff of a single player in the symmetric profile ``strategy``."""
    k = check_positive_integer(k, "k")
    p = strategy.as_array() if isinstance(strategy, Strategy) else np.asarray(strategy, dtype=float)
    nu = site_values(values, p, k, policy)
    return float(np.dot(p, nu))


def expected_welfare(
    values: SiteValues | np.ndarray,
    strategy: Strategy | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> float:
    """Total expected payoff of all ``k`` players: ``k *`` :func:`individual_payoff`."""
    return k * individual_payoff(values, strategy, k, policy)


def _welfare_rows(
    f: np.ndarray, profiles: np.ndarray, k: int, policy: CongestionPolicy
) -> np.ndarray:
    """Welfare ``k * sum_x p(x) nu_p(x)`` of every row of an ``(R, M)`` profile stack."""
    # Imported here: repro.batch builds on repro.core at import time.
    from repro.batch.payoffs import occupancy_congestion_factor_batch

    factors = occupancy_congestion_factor_batch(policy, profiles, k - 1)
    return k * np.sum(profiles * f * factors, axis=1)


def _two_site_grid_search(
    f: np.ndarray, k: int, policy: CongestionPolicy, grid_points: int
) -> np.ndarray:
    """Dense 1-D grid search (with refinement) for ``M = 2`` instances."""
    def welfare_of_p1(p1: np.ndarray) -> np.ndarray:
        return _welfare_rows(f, np.stack([p1, 1.0 - p1], axis=1), k, policy)

    grid = np.linspace(0.0, 1.0, grid_points)
    best = int(np.argmax(welfare_of_p1(grid)))
    fine = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, grid_points - 1)], grid_points)
    p1 = float(fine[int(np.argmax(welfare_of_p1(fine)))])
    return np.array([p1, 1.0 - p1])


def welfare_optimal_strategy(
    values: SiteValues | np.ndarray,
    k: int,
    policy: CongestionPolicy,
    *,
    grid_points: int = 2001,
    restarts: int = 8,
    max_iter: int = 3000,
    step_size: float = 0.05,
    rng: np.random.Generator | int | None = 0,
) -> WelfareOptimum:
    """Find the symmetric strategy maximising the players' expected payoff.

    Parameters
    ----------
    values, k, policy:
        Game instance.
    grid_points:
        Resolution of the 1-D grid search used for two-site instances.
    restarts, max_iter, step_size:
        Parameters of the multi-start projected gradient ascent used for
        ``M > 2`` (welfare is not concave in general, hence the restarts).
        Each step evaluates the proposal and its ``M`` forward-difference
        neighbours in one kernel call, which also gives the next step's
        gradient.
    rng:
        Seed / generator for the random restarts.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    policy.validate(k)
    m = f.size

    if m <= 2:
        p = np.ones(1) if m == 1 else _two_site_grid_search(f, k, policy, grid_points)
        strategy = Strategy(p)
        welfare = float(_welfare_rows(f, p[None], k, policy)[0])
        method = "trivial" if m == 1 else "grid-search"
        return WelfareOptimum(strategy, welfare, welfare / k, coverage(f, strategy, k), method)

    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    candidates: list[np.ndarray] = [np.full(m, 1.0 / m), f / f.sum()]
    candidates.extend(generator.dirichlet(np.ones(m)) for _ in range(restarts))

    def welfare_and_gradient(p: np.ndarray, h: float = 1e-6) -> tuple[float, np.ndarray]:
        # Row 0 is p, row 1 + i is p with h added to site i, renormalised.
        bumped = p + h * np.eye(m)
        rows = np.vstack([p, bumped / bumped.sum(axis=1, keepdims=True)])
        welfare = _welfare_rows(f, rows, k, policy)
        return float(welfare[0]), (welfare[1:] - welfare[0]) / h

    best_vec: np.ndarray | None = None
    best_welfare = -np.inf
    for start in candidates:
        p = start.copy()
        current, grad = welfare_and_gradient(p)
        for _ in range(max_iter):
            proposal = simplex_projection(p + step_size * grad)
            value, proposal_grad = welfare_and_gradient(proposal)
            if value <= current + 1e-14:
                break
            p, current, grad = proposal, value, proposal_grad
        if current > best_welfare:
            best_welfare, best_vec = current, p

    assert best_vec is not None
    strategy = Strategy(best_vec)
    return WelfareOptimum(
        strategy,
        best_welfare,
        best_welfare / k,
        coverage(f, strategy, k),
        "projected-gradient",
    )
