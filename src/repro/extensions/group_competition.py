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
    leftover values ``f(x) * (1 - p_visit_first(x))``.  A one-row view of
    :func:`repro.batch.scenarios.two_group_competition_batch`.

    Parameters
    ----------
    values:
        Patch values.
    first_policy, second_policy:
        Within-group congestion rules of the two groups.
    k_first, k_second:
        Group sizes (``k_second`` defaults to ``k_first``).
    """
    from repro.batch.scenarios import two_group_competition_batch

    k_first = check_positive_integer(k_first, "k_first")
    k_second = k_first if k_second is None else check_positive_integer(k_second, "k_second")
    f = values.as_array() if isinstance(values, SiteValues) else np.asarray(values, dtype=float)
    # A (1, M) matrix keeps the caller's site order for the strategies.
    batch = two_group_competition_batch(f[None, :], first_policy, second_policy, k_first, k_second)
    return batch.result(0)
