"""Bayesian parallel search: the Korman-Rodeh connection.

Section 2.1 of the paper notes that ``sigma_star`` coincides with the first
round of the ``A*`` algorithm of Korman & Rodeh (SIROCCO 2017) for the setting
in which ``k`` searchers, unable to coordinate, look for a treasure hidden in
one of ``M`` boxes according to a known prior.  This subpackage implements
that substrate: the search problem, round strategies (including the
``sigma_star``-derived one), the exact success/discovery-time formulas for
memoryless strategies, a Monte-Carlo search simulator, and the exact
coverage-time laws (Von Schelling generalized coupon collector) of a round
strategy replayed until every site has been visited.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "BayesianSearchProblem": ".boxes",
    "sigma_star_strategy": ".strategies",
    "uniform_strategy": ".strategies",
    "proportional_strategy": ".strategies",
    "greedy_top_k_strategy": ".strategies",
    "SearchOutcome": ".simulator",
    "single_round_success_probability": ".simulator",
    "expected_discovery_time": ".simulator",
    "simulate_search": ".simulator",
    "compare_search_strategies": ".simulator",
    "expected_coverage_time": ".coverage_times",
    "coverage_time_cdf": ".coverage_times",
    "partial_coverage_time": ".coverage_times",
})
