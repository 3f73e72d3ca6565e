"""Shared utilities: numerics, validation, formatting and lightweight I/O.

These helpers are deliberately dependency-free (NumPy only) and are used by
every other subpackage.  Nothing in here is specific to the dispersal game.
"""

from repro.utils.canonical import (
    canonical_distribution,
    canonical_k_grid,
    canonical_times,
    canonical_values,
    content_key,
)
from repro.utils.coercion import strategy_array, values_array
from repro.utils.envinfo import available_cpus, environment_metadata
from repro.utils.memo import PlanMemo, cached_binomial_pmf_plan, plan_memo
from repro.utils.numerics import (
    assert_shape,
    binomial_pmf_matrix,
    binomial_pmf_tensor,
    clip_probability,
    is_non_increasing,
    safe_power,
    simplex_projection,
)
from repro.utils.validation import (
    check_integer,
    check_positive_integer,
    check_probability,
    check_probability_vector,
    check_value_vector,
)
from repro.utils.rng import as_generator, spawn_generators, spawn_seed_sequences
from repro.utils.sampling import (
    inverse_cdf_sample,
    inverse_cdf_sample_stacked,
    stacked_cdfs,
    strategy_cdf,
)
from repro.utils.tables import format_table
from repro.utils.io import write_csv, read_csv

__all__ = [
    "strategy_array",
    "values_array",
    "available_cpus",
    "environment_metadata",
    "canonical_distribution",
    "canonical_k_grid",
    "canonical_times",
    "canonical_values",
    "content_key",
    "PlanMemo",
    "cached_binomial_pmf_plan",
    "plan_memo",
    "as_generator",
    "spawn_generators",
    "spawn_seed_sequences",
    "binomial_pmf_tensor",
    "inverse_cdf_sample",
    "inverse_cdf_sample_stacked",
    "stacked_cdfs",
    "strategy_cdf",
    "assert_shape",
    "binomial_pmf_matrix",
    "clip_probability",
    "is_non_increasing",
    "safe_power",
    "simplex_projection",
    "check_integer",
    "check_positive_integer",
    "check_probability",
    "check_probability_vector",
    "check_value_vector",
    "format_table",
    "write_csv",
    "read_csv",
]
