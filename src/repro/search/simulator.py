"""Success probabilities, discovery times, and Monte-Carlo search simulation.

For memoryless round strategies the relevant quantities have closed forms:

* the single-round success probability of a round strategy ``p`` is exactly
  the coverage of ``p`` with the prior as value function;
* when the same round strategy is replayed until the treasure is found, the
  number of rounds is geometric conditionally on the treasure location, so the
  expected discovery time is ``sum_x q(x) / (1 - (1 - p(x))**k)`` (infinite if
  some possible box is never searched).

Since the batched stochastic layer landed, the formulas and the simulator
live in :mod:`repro.batch.search` — one tensor pass (or one vectorised
whole-search simulation) per ``(B,)`` batch of problems — and the public
entry points here are thin ``B = 1`` wrappers with their original
signatures.  The simulator plays whole searches (censored at ``max_rounds``)
and reports the empirical distribution of discovery times, which tests
compare against the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.batch.search import (
    expected_discovery_time_batch,
    simulate_search_batch,
    success_probability_batch,
)
from repro.core.strategy import Strategy
from repro.search.boxes import BayesianSearchProblem
from repro.search.strategies import (
    greedy_top_k_strategy,
    proportional_strategy,
    sigma_star_strategy,
    uniform_strategy,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer

__all__ = [
    "SearchOutcome",
    "single_round_success_probability",
    "expected_discovery_time",
    "simulate_search",
    "compare_search_strategies",
]


@dataclass(frozen=True)
class SearchOutcome:
    """Empirical summary of a batch of simulated searches.

    ``rounds`` holds one entry per trial; ``max_rounds + 1`` marks a
    **censored** trial whose treasure was not found within ``max_rounds``
    rounds, and ``n_censored`` counts them explicitly.
    ``mean_rounds_when_found`` conditions on the uncensored trials
    only, so it under-estimates the true
    :func:`expected_discovery_time` whenever ``success_rate < 1`` (and in
    particular whenever the closed form is infinite) — exact-vs-empirical
    comparisons must skip outcomes with ``n_censored > 0``.
    """

    n_trials: int
    k: int
    max_rounds: int
    success_rate: float
    mean_rounds_when_found: float
    round_one_success_rate: float
    n_censored: int
    rounds: np.ndarray


def single_round_success_probability(
    problem: BayesianSearchProblem, strategy: Strategy, k: int
) -> float:
    """Probability that at least one of ``k`` searchers opens the treasure box in one round.

    Thin ``B = 1`` wrapper over
    :func:`repro.batch.search.success_probability_batch`.
    """
    k = check_positive_integer(k, "k")
    p = strategy.as_array()  # the batch staging checks it covers the boxes
    return float(
        success_probability_batch(problem.prior[None, :], p[None, :], k)[0]
    )


def expected_discovery_time(
    problem: BayesianSearchProblem, strategy: Strategy, k: int
) -> float:
    """Expected number of rounds until discovery for a memoryless round strategy.

    Returns ``inf`` when some box with positive prior probability is never
    searched (the treasure might be there forever); the unreachable boxes are
    where-masked out of the division, so no floating-point warnings are
    emitted on the way to ``inf``.  Thin ``B = 1`` wrapper over
    :func:`repro.batch.search.expected_discovery_time_batch`.
    """
    k = check_positive_integer(k, "k")
    p = strategy.as_array()
    return float(
        expected_discovery_time_batch(problem.prior[None, :], p[None, :], k)[0]
    )


def simulate_search(
    problem: BayesianSearchProblem,
    strategy: Strategy,
    k: int,
    n_trials: int,
    *,
    max_rounds: int = 200,
    rng: np.random.Generator | int | None = None,
) -> SearchOutcome:
    """Simulate complete searches with a memoryless round strategy.

    Each trial hides the treasure according to the prior, then repeats rounds
    in which each of the ``k`` searchers independently samples a box from
    ``strategy``, until the treasure is found or ``max_rounds`` is exhausted.
    The per-trial round counts are returned (``max_rounds + 1`` marks a
    censored, unfound trial — see :class:`SearchOutcome`).

    Thin ``B = 1`` wrapper over
    :func:`repro.batch.search.simulate_search_batch` with the default
    ``"geometric"`` method (each trial's round count is geometric
    conditionally on the treasure's box, so inverting that law is equivalent
    to simulating every individual box opening).
    """
    k = check_positive_integer(k, "k")
    p = strategy.as_array()
    batch = simulate_search_batch(
        problem.prior[None, :],
        p[None, :],
        k,
        n_trials,
        max_rounds=max_rounds,
        rng=as_generator(rng),
    )
    return SearchOutcome(
        n_trials=batch.n_trials,
        k=k,
        max_rounds=batch.max_rounds,
        success_rate=float(batch.success_rates[0]),
        mean_rounds_when_found=float(batch.mean_rounds_when_found[0]),
        round_one_success_rate=float(batch.round_one_success_rates[0]),
        n_censored=int(batch.censored_counts[0]),
        rounds=np.asarray(batch.rounds[0], dtype=int),
    )


def compare_search_strategies(
    problem: BayesianSearchProblem,
    k: int,
    *,
    extra_strategies: Mapping[str, Strategy] | None = None,
) -> dict[str, dict[str, float]]:
    """Closed-form comparison of the standard round strategies on one problem.

    Returns a mapping ``name -> {"success_probability", "expected_rounds"}``
    covering ``sigma_star``, uniform, prior-proportional and greedy-top-k
    (plus any extra strategies supplied by the caller).  Both quantities for
    all strategies come from one batched pass each
    (:func:`~repro.batch.search.success_probability_batch` /
    :func:`~repro.batch.search.expected_discovery_time_batch` with the
    strategy roster as the batch axis).
    """
    k = check_positive_integer(k, "k")
    strategies: dict[str, Strategy] = {
        "sigma_star": sigma_star_strategy(problem, k),
        "uniform": uniform_strategy(problem),
        "proportional": proportional_strategy(problem),
        "greedy_top_k": greedy_top_k_strategy(problem, k),
    }
    if extra_strategies:
        strategies.update(extra_strategies)
    names = list(strategies)
    priors = np.tile(problem.prior, (len(names), 1))
    matrix = np.stack([strategies[name].as_array() for name in names])
    successes = success_probability_batch(priors, matrix, k)
    rounds = expected_discovery_time_batch(priors, matrix, k)
    return {
        name: {
            "success_probability": float(successes[index]),
            "expected_rounds": float(rounds[index]),
        }
        for index, name in enumerate(names)
    }
