"""Core model of the dispersal game: values, strategies, policies, equilibria.

This subpackage contains the paper's primary contribution — the dispersal
game, its congestion reward policies, the Ideal Free Distribution, the
closed-form ``sigma_star``, coverage/welfare optimisation, ESS machinery, and
the symmetric price of anarchy.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    # values / strategies / facade
    "SiteValues": ".values",
    "Strategy": ".strategy",
    "DispersalGame": ".game",
    # policies
    "CongestionPolicy": ".policies",
    "ExclusivePolicy": ".policies",
    "SharingPolicy": ".policies",
    "ConstantPolicy": ".policies",
    "TwoLevelPolicy": ".policies",
    "PowerLawPolicy": ".policies",
    "ExponentialPolicy": ".policies",
    "AggressivePolicy": ".policies",
    "CooperativeSharingPolicy": ".policies",
    "TabulatedPolicy": ".policies",
    "CallablePolicy": ".policies",
    # coverage
    "coverage": ".coverage",
    "missed_value": ".coverage",
    "coverage_gradient": ".coverage",
    "site_coverage_probabilities": ".coverage",
    "expected_sites_visited": ".coverage",
    "full_coordination_coverage": ".coverage",
    # payoffs
    "site_values": ".payoffs",
    "expected_payoff": ".payoffs",
    "mixture_payoff": ".payoffs",
    "best_response_value": ".payoffs",
    "best_response_sites": ".payoffs",
    "exploitability": ".payoffs",
    # sigma_star / ifd
    "SigmaStarResult": ".sigma_star",
    "sigma_star": ".sigma_star",
    "support_size": ".sigma_star",
    "IFDResult": ".ifd",
    "IFDReport": ".ifd",
    "ideal_free_distribution": ".ifd",
    "verify_ifd": ".ifd",
    # optimisation
    "CoverageOptimum": ".optimal_coverage",
    "optimal_coverage": ".optimal_coverage",
    "optimal_coverage_strategy": ".optimal_coverage",
    "observation1_lower_bound": ".optimal_coverage",
    "observation1_holds": ".optimal_coverage",
    "WelfareOptimum": ".welfare",
    "expected_welfare": ".welfare",
    "individual_payoff": ".welfare",
    "welfare_optimal_strategy": ".welfare",
    # ess / equilibrium
    "ESSComparison": ".ess",
    "ESSReport": ".ess",
    "ess_conditions_against": ".ess",
    "ess_report": ".ess",
    "invasion_barrier": ".ess",
    "is_symmetric_nash": ".ess",
    "equilibrium_payoff": ".ess",
    "EquilibriumReport": ".equilibrium",
    "symmetric_equilibrium": ".equilibrium",
    "verify_symmetric_equilibrium": ".equilibrium",
    "pure_equilibrium_occupancies": ".equilibrium",
    "count_pure_equilibria": ".equilibrium",
    # spoa
    "SPoAInstance": ".spoa",
    "spoa_instance": ".spoa",
    "spoa_search": ".spoa",
    "adversarial_values": ".spoa",
    "spoa_lower_bound_certificate": ".spoa",
})
