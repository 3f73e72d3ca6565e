"""Experiment harness: regenerate the paper's figure and theorem-level checks.

Each module corresponds to one experiment family of ``docs/experiments.md``, and
each is a thin client of the :mod:`repro.experiments` registry/runner (the
heavy lifting happens in the batched solvers of :mod:`repro.batch`).  A
module contributes a spec builder, its task and row types, and helpers that
fold rows into series; the one way to run an experiment is
``repro.experiments.run_registered(name, **options)``:

* :mod:`repro.analysis.figure1` — the coverage-vs-competition curves of
  Figure 1 (one panel per second-site value); registered as ``figure1``;
* :mod:`repro.analysis.observation1` — the ``(1 - 1/e)`` coverage bound;
  registered as ``observation1``;
* :mod:`repro.analysis.spoa_experiments` — Corollary 5 / Theorem 6 /
  the sharing-policy ``SPoA <= 2`` bound; registered as ``spoa``;
* :mod:`repro.analysis.ess_experiments` — Theorem 3 audits; registered as
  ``ess``;
* :mod:`repro.analysis.sweeps` — generic parameter sweeps over ``(M, k, C)``;
  registered as ``sweep`` and ``dynamics``;
* :mod:`repro.analysis.scenario_experiments` — the Section-5 scenario sweeps
  on the batched kernels of :mod:`repro.batch.scenarios`; registered as
  ``travel-costs``, ``group-competition`` and ``repeated``;
* :mod:`repro.analysis.stochastic_experiments` — the batched stochastic
  layer's sweeps (:mod:`repro.batch.search` / :mod:`repro.batch.mechanism`);
  registered as ``search`` and ``mechanism``;
* :mod:`repro.analysis.reporting` / :mod:`repro.analysis.ascii_plot` — text
  tables and ASCII plots (the offline environment has no plotting backend).

Each module registers its experiments when it is imported; the registry
imports all of them on its first lookup, so
``repro.experiments.run_registered("spoa", quick=True)`` works from a cold
start.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "Figure1Data": ".figure1",
    "write_panels_csv": ".figure1",
    "assemble_figure1_panels": ".figure1",
    "Observation1Row": ".observation1",
    "default_value_families": ".observation1",
    "SPoARow": ".spoa_experiments",
    "CertificateRow": ".spoa_experiments",
    "SharingBoundRow": ".spoa_experiments",
    "ESSRow": ".ess_experiments",
    "SweepResult": ".sweeps",
    "SweepPointRow": ".sweeps",
    "assemble_sweep": ".sweeps",
    "coverage_ratio_sweep": ".sweeps",
    "support_size_sweep": ".sweeps",
    "TravelCostRow": ".scenario_experiments",
    "build_travel_costs_spec": ".scenario_experiments",
    "GroupCompetitionRow": ".scenario_experiments",
    "build_group_competition_spec": ".scenario_experiments",
    "RepeatedDispersalRow": ".scenario_experiments",
    "build_repeated_spec": ".scenario_experiments",
    "SearchRow": ".stochastic_experiments",
    "build_search_spec": ".stochastic_experiments",
    "MechanismPolicyRow": ".stochastic_experiments",
    "GrantDesignRow": ".stochastic_experiments",
    "build_mechanism_spec": ".stochastic_experiments",
    "render_report": ".reporting",
    "ascii_line_plot": ".ascii_plot",
})
