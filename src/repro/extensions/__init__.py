"""Extensions beyond the paper's core model.

Section 5.1 of the paper lists several generalisations left for future work;
this subpackage implements the ones that stay within laptop-scale numerics so
that they can be explored with the same tooling as the core model:

* :mod:`repro.extensions.travel_costs` — per-site visiting costs (the
  "energetic cost consumed while traveling to x" the paper explicitly defers);
* :mod:`repro.extensions.capacity` — per-individual consumption capacity,
  i.e. a site may need several visitors to be fully exploited (a relaxation of
  the "a single player suffices to consume f(x)" assumption);
* :mod:`repro.extensions.repeated` — multi-round dispersal with depletion
  (a concrete "other form of repetition");
* :mod:`repro.extensions.group_competition` — two groups with different
  internal congestion rules competing over the same patches (the
  aggressive-vs-peaceful-species thought experiment of Section 5.2).

Each module documents how its model reduces to the paper's when the new
parameter is switched off, and the test-suite verifies those reductions.

Every scenario here also has a batched, backend-agnostic entry point:
:func:`repro.batch.extensions.capacity_coverage_batch` (and its exact
gradient) evaluates whole ``(B, M)`` profile batches, and
:mod:`repro.batch.scenarios` provides ``cost_adjusted_ifd_batch``,
``two_group_competition_batch`` and ``repeated_dispersal_batch`` — whole
instance batches per call through the Array-API backend layer of
:mod:`repro.backend`, elementwise equal to the scalar models in this
subpackage.  The registered ``travel-costs`` / ``group-competition`` /
``repeated`` experiments (and the matching ``repro-dispersal`` CLI
sub-commands) run on those batched paths.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "CostAdjustedEquilibrium": ".travel_costs",
    "cost_adjusted_site_values": ".travel_costs",
    "cost_adjusted_ifd": ".travel_costs",
    "capacity_coverage": ".capacity",
    "capacity_coverage_gradient": ".capacity",
    "maximize_capacity_coverage": ".capacity",
    "ExpectedDispersalResult": ".repeated",
    "RepeatedDispersalResult": ".repeated",
    "simulate_repeated_dispersal": ".repeated",
    "expected_repeated_dispersal": ".repeated",
    "adaptive_sigma_star_schedule": ".repeated",
    "constant_schedule": ".repeated",
    "GroupCompetitionResult": ".group_competition",
    "two_group_competition": ".group_competition",
})
