"""Round strategies for parallel Bayesian search.

A *round strategy* is a distribution over boxes from which each searcher
samples independently in every round (memoryless searchers — the regime in
which the dispersal-game analysis applies round by round).  The strategies
provided here are the natural baselines plus the ``sigma_star``-derived one,
which maximises the single-round success probability (Theorem 4 applied with
the prior as the value function).
"""

from __future__ import annotations

import numpy as np

from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.search.boxes import BayesianSearchProblem
from repro.utils.validation import check_positive_integer

__all__ = [
    "sigma_star_strategy",
    "uniform_strategy",
    "proportional_strategy",
    "greedy_top_k_strategy",
    "SEARCH_STRATEGY_FACTORIES",
]


def _expand_to_all_boxes(problem: BayesianSearchProblem, positive_probs: np.ndarray) -> Strategy:
    """Lift a distribution over the positive-prior boxes back to all boxes."""
    probs = np.zeros(problem.m)
    positive_indices = np.nonzero(problem.prior > 0)[0]
    probs[positive_indices] = positive_probs
    return Strategy(probs)


def sigma_star_strategy(problem: BayesianSearchProblem, k: int) -> Strategy:
    """The first round of the Korman-Rodeh ``A*`` algorithm.

    Computes ``sigma_star`` with the prior as the value function; this is the
    round strategy maximising the probability that *some* searcher opens the
    treasure box in a single round.
    """
    k = check_positive_integer(k, "k")
    values = problem.as_site_values()
    result = sigma_star(values, k)
    return _expand_to_all_boxes(problem, result.strategy.as_array())


def uniform_strategy(problem: BayesianSearchProblem) -> Strategy:
    """Uniform sampling over the boxes with positive prior probability."""
    positive = problem.prior > 0
    probs = positive / positive.sum()
    return Strategy(probs)


def proportional_strategy(problem: BayesianSearchProblem) -> Strategy:
    """Sampling proportional to the prior (a common greedy-in-expectation baseline)."""
    return Strategy(problem.prior.copy())


def greedy_top_k_strategy(problem: BayesianSearchProblem, k: int) -> Strategy:
    """Uniform over the ``k`` most likely boxes (the coordination-free analogue of 'split the top k')."""
    k = check_positive_integer(k, "k")
    width = min(k, problem.n_possible_boxes)
    probs = np.zeros(problem.m)
    probs[:width] = 1.0 / width
    return Strategy(probs)


#: Named round-strategy factories of the ``search`` and ``coverage-times``
#: experiments (stable identifiers used in specs and reports); each maps
#: ``(problem, k)`` to a :class:`~repro.core.strategy.Strategy` over the
#: problem's boxes.
SEARCH_STRATEGY_FACTORIES = {
    "sigma_star": sigma_star_strategy,
    "uniform": lambda problem, k: uniform_strategy(problem),
    "proportional": lambda problem, k: proportional_strategy(problem),
    "greedy_top_k": greedy_top_k_strategy,
}
