"""Equilibrium tooling: best responses, exploitability, and pure equilibria.

The paper restricts attention to *symmetric* (mixed) equilibria — the IFD —
but also points out that the game has exponentially many pure, non-symmetric
equilibria that require coordination to reach.  For small instances this
module enumerates them, which makes that observation concrete and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from repro.core.ifd import IFDResult, ideal_free_distribution
from repro.core.payoffs import site_values
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import values_array
from repro.utils.validation import check_positive_integer

__all__ = [
    "EquilibriumReport",
    "symmetric_equilibrium",
    "verify_symmetric_equilibrium",
    "pure_equilibrium_occupancies",
    "count_pure_equilibria",
]


@dataclass(frozen=True)
class EquilibriumReport:
    """Diagnostics of a candidate symmetric equilibrium."""

    is_equilibrium: bool
    exploitability: float
    best_response_sites: tuple[int, ...]
    support_size: int
    equilibrium_payoff: float


def symmetric_equilibrium(
    values: SiteValues | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> IFDResult:
    """The (unique) symmetric Nash equilibrium — a thin wrapper around the IFD solver."""
    return ideal_free_distribution(values, k, policy)


def verify_symmetric_equilibrium(
    values: SiteValues | np.ndarray,
    strategy: Strategy,
    k: int,
    policy: CongestionPolicy,
    *,
    atol: float = 1e-8,
) -> EquilibriumReport:
    """Check whether ``strategy`` is a symmetric Nash equilibrium of the game."""
    k = check_positive_integer(k, "k")
    nu = site_values(values, strategy, k, policy)
    payoff = float(np.dot(strategy.as_array(), nu))
    gap = float(nu.max() - payoff)
    return EquilibriumReport(
        is_equilibrium=gap <= atol,
        exploitability=gap,
        best_response_sites=tuple(int(i) for i in np.nonzero(nu >= nu.max() - 1e-10)[0]),
        support_size=strategy.support_size,
        equilibrium_payoff=payoff,
    )


def _occupancy_vectors(m: int, k: int) -> Iterator[np.ndarray]:
    """Yield every occupancy vector (n_1, ..., n_M) with sum k (multisets of sites)."""
    for combo in combinations_with_replacement(range(m), k):
        occupancy = np.zeros(m, dtype=int)
        for site in combo:
            occupancy[site] += 1
        yield occupancy


def pure_equilibrium_occupancies(
    values: SiteValues | np.ndarray,
    k: int,
    policy: CongestionPolicy,
    *,
    atol: float = 1e-12,
) -> list[np.ndarray]:
    """Enumerate occupancy vectors of pure Nash equilibria (small instances only).

    A pure profile is described (up to player identities) by how many players
    occupy each site.  It is a Nash equilibrium when no occupant of any site
    ``x`` prefers to move to another site ``y``:
    ``f(x) * C(n_x) >= f(y) * C(n_y + 1)`` for all occupied ``x`` and all ``y``.

    The enumeration is ``O(C(M + k - 1, k))`` and intended for the small
    instances used to illustrate the paper's remark that pure equilibria are
    numerous; it raises for instances that would be too large.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    m = f.size
    from math import comb

    if comb(m + k - 1, k) > 2_000_000:
        raise ValueError("instance too large for exhaustive pure-equilibrium enumeration")

    c_table = policy.table(k + 1)  # need C up to k+1 occupants after a move... C(n_y + 1) <= C(k)
    equilibria: list[np.ndarray] = []
    for occupancy in _occupancy_vectors(m, k):
        occupied = occupancy > 0
        current = f * np.where(occupied, c_table[np.maximum(occupancy, 1) - 1], np.inf)
        # Payoff a mover would get at each destination (occupancy there + 1).
        after_move = f * c_table[np.minimum(occupancy + 1, k) - 1]
        # For each occupied origin x, the best alternative must not beat staying.
        best_alternative = np.empty(m)
        for x in range(m):
            if not occupied[x]:
                continue
            others = after_move.copy()
            others[x] = -np.inf  # moving to the same site is not a deviation
            best_alternative[x] = others.max()
        stable = True
        for x in range(m):
            if occupied[x] and current[x] < best_alternative[x] - atol:
                stable = False
                break
        if stable:
            equilibria.append(occupancy)
    return equilibria


def count_pure_equilibria(
    values: SiteValues | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> int:
    """Number of pure Nash equilibria counted as occupancy vectors (player-anonymous)."""
    return len(pure_equilibrium_occupancies(values, k, policy))
