"""Shared utilities: numerics, validation, formatting and lightweight I/O.

These helpers are deliberately dependency-free (NumPy only) and are used by
every other subpackage.  Nothing in here is specific to the dispersal game.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "strategy_array": ".coercion",
    "values_array": ".coercion",
    "available_cpus": ".envinfo",
    "environment_metadata": ".envinfo",
    "canonical_distribution": ".canonical",
    "canonical_k_grid": ".canonical",
    "canonical_times": ".canonical",
    "canonical_values": ".canonical",
    "content_key": ".canonical",
    "PlanMemo": ".memo",
    "cached_binomial_pmf_plan": ".memo",
    "plan_memo": ".memo",
    "as_generator": ".rng",
    "spawn_generators": ".rng",
    "spawn_seed_sequences": ".rng",
    "binomial_pmf_tensor": ".numerics",
    "inverse_cdf_sample": ".sampling",
    "inverse_cdf_sample_stacked": ".sampling",
    "stacked_cdfs": ".sampling",
    "strategy_cdf": ".sampling",
    "is_non_increasing": ".numerics",
    "safe_power": ".numerics",
    "simplex_projection": ".numerics",
    "check_integer": ".validation",
    "check_positive_integer": ".validation",
    "check_probability": ".validation",
    "check_probability_vector": ".validation",
    "check_value_vector": ".validation",
    "format_table": ".tables",
    "write_csv": ".io",
    "read_csv": ".io",
})
