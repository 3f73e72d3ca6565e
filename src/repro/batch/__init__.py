"""Batched instance solvers: whole ``(instances x k-grid)`` grids per call.

The scalar solvers of :mod:`repro.core` operate on one ``(f, k)`` instance at
a time, which makes large experiment grids dominated by Python-loop overhead.
This subpackage solves entire grids in a handful of NumPy passes:

* :class:`~repro.batch.padding.PaddedValues` — a ragged collection of value
  profiles packed into one padded ``(B, M_max)`` matrix plus a validity mask;
* :func:`~repro.batch.solvers.sigma_star_batch` /
  :func:`~repro.batch.solvers.support_size_batch` — the closed-form
  exclusive-policy equilibrium for every instance and every ``k`` at once
  (shared cumulative-sum support computation across the ``k`` grid);
* :func:`~repro.batch.solvers.coverage_batch` /
  :func:`~repro.batch.solvers.optimal_coverage_batch` — the coverage
  functional and its optimum over the same grid;
* :func:`~repro.batch.ifd.ifd_batch` — the general IFD over the same grid,
  every ``(instance, k)`` cell one row of the fixed-budget water-filling
  solver :func:`~repro.batch.ifd.water_filling_batch`;
* :func:`~repro.batch.spoa.spoa_batch` — per-instance symmetric price of
  anarchy over the grid;
* :mod:`repro.batch.payoffs` — the batched payoff kernel: ``nu``, expected
  payoffs, best-response values and exploitability for ``(B, M)`` strategy
  matrices with per-row player counts;
* :mod:`repro.batch.dynamics` — the unified :class:`DynamicsEngine` stepping
  whole populations of game states under pluggable update rules (replicator,
  logit, smoothed best response, invasion), with per-row convergence masking
  and strided trajectory recording;
* :mod:`repro.batch.extensions` — batched kernels for the model extensions
  (capacity-constrained coverage and its exact gradient over ``(B, M)``
  profile batches);
* :mod:`repro.batch.scenarios` — the one implementation of the Section-5
  scenario extensions: cost-adjusted IFDs with per-row cost vectors, two-group
  competition over ``(B,)`` policy-pair rosters, and repeated dispersal with
  depletion;
* :mod:`repro.batch.mechanism` — batched mechanism design: the Theorems 4-6
  congestion-policy roster sweeps (``compare_policies_batch`` /
  ``best_two_level_batch``) and the Kleinberg-Oren reward-design pipeline
  (``design_rewards_batch`` / ``optimal_grant_design_batch``) over whole
  ``(instances x k x policy)`` grids;
* :mod:`repro.batch.simulation` — batched Monte-Carlo dispersal: one
  ``(n_trials, B, k)`` inverse-CDF draw and one segment-sum ``bincount`` per
  memory chunk simulates every instance of a batch at once, with a
  ``max_chunk_draws`` cap bounding peak memory;
* :mod:`repro.batch.search` — batched Bayesian search: closed-form success
  probabilities and (where-masked, ``inf``-aware) expected discovery times,
  plus a whole-search Monte-Carlo simulator that inverts the geometric law
  of the discovery round;
* :mod:`repro.batch.coverage_times` — exact coverage-time laws (Von
  Schelling generalized coupon collector): full-coverage CDF and
  expectation plus partial (``j``-of-``M``) coverage expectations via
  signed log-sum-exp inclusion-exclusion, with a Monte-Carlo
  cross-validator that samples each row's exponential race.

Every kernel body is pure Array-API code against the backend resolved by
:mod:`repro.backend` (``numpy`` by default; ``array_api_strict`` / ``torch``
when installed): activate an alternative with
``repro.backend.use_backend(...)``, the ``REPRO_BACKEND`` environment
variable, or the CLI's ``--backend`` flag.  Public results always come back
as host NumPy arrays; intermediates between kernels stay backend-native.

The closed-form kernels are the one implementation of their formulas: the
scalar ``sigma_star``, ``optimal_coverage`` and ``spoa_instance`` are
batch-of-one views of them, and the scenario kernels have no scalar front (a
single instance is the one-row call on ``f[None, :]``).  The batch layer is what the experiment runner of
:mod:`repro.experiments` builds on.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "PaddedValues": ".padding",
    "SigmaStarBatch": ".solvers",
    "sigma_star_batch": ".solvers",
    "support_size_batch": ".solvers",
    "coverage_batch": ".solvers",
    "optimal_coverage_batch": ".solvers",
    "IFDBatch": ".ifd",
    "ifd_batch": ".ifd",
    "WaterFilling": ".ifd",
    "water_filling_batch": ".ifd",
    "SPoABatch": ".spoa",
    "spoa_batch": ".spoa",
    "congestion_table_batch": ".payoffs",
    "occupancy_congestion_factor_batch": ".payoffs",
    "site_values_batch": ".payoffs",
    "expected_payoff_batch": ".payoffs",
    "best_response_value_batch": ".payoffs",
    "exploitability_batch": ".payoffs",
    "DynamicsEngine": ".dynamics",
    "DynamicsBatchResult": ".dynamics",
    "make_rule": ".dynamics",
    "replicator_batch": ".dynamics",
    "logit_batch": ".dynamics",
    "best_response_batch": ".dynamics",
    "invasion_batch": ".dynamics",
    "capacity_coverage_batch": ".extensions",
    "capacity_coverage_gradient_batch": ".extensions",
    "CostAdjustedIFDBatch": ".scenarios",
    "cost_adjusted_site_values_batch": ".scenarios",
    "cost_adjusted_ifd_batch": ".scenarios",
    "TwoGroupCompetitionBatch": ".scenarios",
    "two_group_competition_batch": ".scenarios",
    "RepeatedDispersalBatch": ".scenarios",
    "repeated_dispersal_batch": ".scenarios",
    "PolicyComparisonBatch": ".mechanism",
    "compare_policies_batch": ".mechanism",
    "BestTwoLevelBatch": ".mechanism",
    "best_two_level_batch": ".mechanism",
    "GrantDesignBatch": ".mechanism",
    "design_rewards_batch": ".mechanism",
    "optimal_grant_design_batch": ".mechanism",
    "DispersalSimulationBatch": ".simulation",
    "ProfileSimulationBatch": ".simulation",
    "as_strategy_batch": ".simulation",
    "simulate_dispersal_batch": ".simulation",
    "simulate_profile_batch": ".simulation",
    "SearchSimulationBatch": ".search",
    "as_prior_batch": ".search",
    "as_search_strategy_batch": ".search",
    "success_probability_batch": ".search",
    "expected_discovery_time_batch": ".search",
    "simulate_search_batch": ".search",
    "DEFAULT_MAX_EXACT_SITES": ".coverage_times",
    "CoverageTimeEstimate": ".coverage_times",
    "as_visit_distribution_batch": ".coverage_times",
    "coverage_time_cdf_batch": ".coverage_times",
    "expected_coverage_time_batch": ".coverage_times",
    "partial_coverage_time_batch": ".coverage_times",
    "estimate_coverage_time_mc": ".coverage_times",
})
