"""Two-group competition over the same patches (Section 5.2 discussion).

The paper's informal discussion asks: if two species (or groups) exploit the
same patch set but differ in how aggressively individuals treat conspecifics,
which one wins?  The apparent waste of within-group aggression (collisions
destroy value) must be weighed against the better *coverage* it induces, which
leaves less food for the competitor.

Model implemented here: the patch set is exploited in two waves (e.g. the two
species feed at different times of day).  The first group disperses according
to the symmetric equilibrium (IFD) of *its own* congestion rule and removes the
value of every patch it visits; the second group then disperses — again at the
IFD of its own rule — over what is left.  The group-level score is the expected
total value consumed; the individual-level score is the expected equilibrium
payoff of a group member.

This makes the paper's qualitative prediction testable: the group whose
internal rule is the exclusive policy consumes the optimal-coverage share of
the environment, so it weakly dominates any other internal rule when playing
first, and loses the least when playing second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage import site_coverage_probabilities
from repro.core.ifd import ideal_free_distribution
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.validation import check_positive_integer

__all__ = ["GroupCompetitionResult", "two_group_competition"]


@dataclass(frozen=True)
class GroupCompetitionResult:
    """Outcome of a sequential two-group competition.

    Attributes
    ----------
    first_consumption, second_consumption:
        Expected total value consumed by each group.
    first_strategy, second_strategy:
        The equilibrium dispersal distribution each group uses (the second
        group's equilibrium is computed on the expected leftover values).
    first_individual_payoff, second_individual_payoff:
        Expected equilibrium payoff per group member under each group's own
        congestion rule (the within-group "selfish" score).
    leftover_value:
        Expected value remaining after both groups fed.
    """

    first_consumption: float
    second_consumption: float
    first_strategy: Strategy
    second_strategy: Strategy
    first_individual_payoff: float
    second_individual_payoff: float
    leftover_value: float

    @property
    def first_share(self) -> float:
        """Fraction of the consumed value captured by the first group."""
        total = self.first_consumption + self.second_consumption
        return float(self.first_consumption / total) if total > 0 else float("nan")


def two_group_competition(
    values: SiteValues | np.ndarray,
    first_policy: CongestionPolicy,
    second_policy: CongestionPolicy,
    k_first: int,
    k_second: int | None = None,
) -> GroupCompetitionResult:
    """Sequential competition: ``first`` group feeds, then ``second`` feeds on leftovers.

    Both groups play the symmetric equilibrium of their own within-group
    congestion rule; the second group's equilibrium is computed on the expected
    leftover values ``f(x) * (1 - p_visit_first(x))``.

    Parameters
    ----------
    values:
        Patch values.
    first_policy, second_policy:
        Within-group congestion rules of the two groups.
    k_first, k_second:
        Group sizes (``k_second`` defaults to ``k_first``).
    """
    k_first = check_positive_integer(k_first, "k_first")
    k_second = k_first if k_second is None else check_positive_integer(k_second, "k_second")
    f = values.as_array() if isinstance(values, SiteValues) else np.asarray(values, dtype=float)

    # First wave: equilibrium of the first group's rule on the full values.
    first_eq = ideal_free_distribution(f, k_first, first_policy)
    visit_first = site_coverage_probabilities(first_eq.strategy, k_first)
    first_consumption = float(np.dot(f, visit_first))

    # Expected leftovers define the second wave's game.  Clamp to a tiny floor:
    # the solver requires positive values, and a patch visited with probability
    # one contributes (numerically) nothing either way.
    leftovers = np.maximum(f * (1.0 - visit_first), 1e-12)
    order = np.argsort(-leftovers, kind="stable")
    second_eq_sorted = ideal_free_distribution(leftovers[order], k_second, second_policy)
    second_probs = np.empty_like(leftovers)
    second_probs[order] = second_eq_sorted.strategy.as_array()
    second_strategy = Strategy(second_probs)
    visit_second = site_coverage_probabilities(second_strategy, k_second)
    second_consumption = float(np.dot(leftovers, visit_second))

    leftover_value = float(np.dot(leftovers, 1.0 - visit_second))
    return GroupCompetitionResult(
        first_consumption=first_consumption,
        second_consumption=second_consumption,
        first_strategy=first_eq.strategy,
        second_strategy=second_strategy,
        first_individual_payoff=float(first_eq.value),
        second_individual_payoff=float(second_eq_sorted.value),
        leftover_value=leftover_value,
    )
