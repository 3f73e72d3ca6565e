"""Monte-Carlo simulation of the one-shot dispersal game.

The analytic formulas of :mod:`repro.core` (coverage, site values, mixture
payoffs) are all expectations over the players' independent site choices.
This subpackage samples those choices directly — fully vectorised over trials
— so every analytic quantity has an empirical counterpart that tests and
benchmarks can cross-check.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "DispersalSimulator": ".engine",
    "SimulationResult": ".engine",
    "ProfileSimulationResult": ".engine",
    "simulate_dispersal": ".engine",
    "simulate_profile": ".engine",
    "empirical_coverage": ".estimators",
    "empirical_individual_payoff": ".estimators",
    "empirical_site_values": ".estimators",
    "standard_error": ".estimators",
    "spawn_generators": "repro.utils.rng",
})
