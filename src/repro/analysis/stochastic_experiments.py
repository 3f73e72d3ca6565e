"""Registered experiments for the batched stochastic layer (search + mechanism).

Three experiments sweep the stochastic/mechanism subsystems over instance
grids, each task evaluating one *chunk* of grid cells through the batched
kernels (the same ``chunk_grid`` pattern as the ``dynamics`` and scenario
experiments, so the process-pool runner parallelises across chunks while
every task amortises its kernels over many rows):

* ``search`` — the Bayesian "treasure in M boxes" connection
  (:mod:`repro.batch.search`) over a ``(family x M x k)`` grid: for every
  round-strategy baseline the closed-form single-round success probability
  and expected discovery time (``inf`` rows mark strategies that ignore
  possible boxes) are cross-checked against one batched Monte-Carlo
  simulation of whole searches;
* ``coverage-times`` — the exact Von Schelling coverage-time laws
  (:mod:`repro.batch.coverage_times`) for the same round-strategy roster:
  expected full- and partial-coverage times and the CDF at a horizon,
  cross-validated in-row against the exponential-race Monte-Carlo
  estimator (``z_score`` reports the SEM-normalised exact-vs-empirical gap;
  ``inf`` rows mark strategies that skip sites and are excluded from
  simulation);
* ``mechanism`` — the paper's two design levers compared head to head
  (:mod:`repro.batch.mechanism`): a congestion-policy roster solved over the
  whole grid (Theorems 4-6) next to the Kleinberg-Oren reward design that
  re-prices sites under the sharing rule (Section 1.6), reporting both
  levers' coverage against the per-cell optimum.

The matching ``repro-dispersal search / coverage-times / mechanism`` CLI
sub-commands are thin clients of these builders, sharing the common
``--seed/--json/--workers/--backend`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.observation1 import make_family
from repro.batch import (
    PaddedValues,
    as_visit_distribution_batch,
    compare_policies_batch,
    coverage_time_cdf_batch,
    estimate_coverage_time_mc,
    expected_coverage_time_batch,
    expected_discovery_time_batch,
    partial_coverage_time_batch,
    simulate_search_batch,
    success_probability_batch,
)
from repro.batch.search import as_prior_batch, as_search_strategy_batch
from repro.core.policies import policy_from_name
from repro.experiments.registry import register_experiment
from repro.experiments.executors import chunk_grid
from repro.experiments.runner import resolve_batch_rows
from repro.experiments.spec import ExperimentSpec
from repro.search.boxes import BayesianSearchProblem
from repro.search.strategies import SEARCH_STRATEGY_FACTORIES
from repro.utils.validation import check_positive_integer

__all__ = [
    "SearchRow",
    "search_task",
    "build_search_spec",
    "CoverageTimeRow",
    "coverage_times_task",
    "build_coverage_times_spec",
    "MechanismPolicyRow",
    "GrantDesignRow",
    "mechanism_task",
    "build_mechanism_spec",
]

# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchRow:
    """One round strategy on one ``(family, M, k)`` search problem.

    ``expected_rounds`` is the closed-form expected discovery time —
    ``inf`` when the strategy ignores a box the prior allows (greedy-top-k
    does this whenever ``k < M``); the empirical columns come from the
    batched whole-search simulation, whose ``max_rounds`` censoring makes
    ``empirical_mean_rounds`` a conditional (found-trials-only) mean.
    """

    strategy: str
    family: str
    m: int
    k: int
    success_probability: float
    expected_rounds: float
    empirical_success_rate: float
    empirical_mean_rounds: float
    empirical_round_one_rate: float
    n_trials: int
    max_rounds: int


def search_task(params: Mapping[str, Any], rng: np.random.Generator) -> list[SearchRow]:
    """Runner task: one chunk of cells through the batched search kernels.

    Every cell — a ``(family, M, k)`` tuple — becomes one row of the
    ``(B,)`` problem batch; each strategy of the roster is evaluated with
    one closed-form pass and one batched simulation over the whole chunk.
    """
    cells = tuple(params["cells"])
    roster = tuple(params["strategies"])
    n_trials = int(params["n_trials"])
    max_rounds = int(params["max_rounds"])

    problems = [
        BayesianSearchProblem.from_weights(make_family(str(family), int(m), rng).as_array())
        for family, m, _ in cells
    ]
    priors = as_prior_batch(problems)
    ks = np.asarray([int(k) for _, _, k in cells], dtype=np.int64)

    rows: list[SearchRow] = []
    for name in roster:
        factory = SEARCH_STRATEGY_FACTORIES[str(name)]
        matrix = as_search_strategy_batch(
            [factory(problem, int(k)) for problem, k in zip(problems, ks)], priors
        )
        successes = success_probability_batch(priors, matrix, ks)
        expected = expected_discovery_time_batch(priors, matrix, ks)
        simulated = simulate_search_batch(
            priors, matrix, ks, n_trials, max_rounds=max_rounds, rng=rng
        )
        rows.extend(
            SearchRow(
                strategy=str(name),
                family=str(family),
                m=int(m),
                k=int(k),
                success_probability=float(successes[index]),
                expected_rounds=float(expected[index]),
                empirical_success_rate=float(simulated.success_rates[index]),
                empirical_mean_rounds=float(simulated.mean_rounds_when_found[index]),
                empirical_round_one_rate=float(simulated.round_one_success_rates[index]),
                n_trials=n_trials,
                max_rounds=max_rounds,
            )
            for index, (family, m, k) in enumerate(cells)
        )
    return rows


@register_experiment(
    "search",
    "Bayesian box-search baselines: closed forms vs batched whole-search simulation",
)
def build_search_spec(
    *,
    strategies: Sequence[str] = ("sigma_star", "uniform", "proportional", "greedy_top_k"),
    families: Sequence[str] = ("zipf", "uniform", "geometric"),
    m_values: Sequence[int] = (8, 16),
    k_values: Sequence[int] = (2, 4, 8),
    n_trials: int = 600,
    max_rounds: int = 400,
    batch_rows: int | None = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``search`` experiment.

    The full ``(family, M, k)`` grid is flattened into cells and chunked into
    one task per ``batch_rows`` rows; each task packs its chunk into one
    problem batch and runs every roster strategy through one closed-form and
    one Monte-Carlo batched pass.
    """
    roster = [str(name) for name in strategies]
    for name in roster:
        if name not in SEARCH_STRATEGY_FACTORIES:
            available = ", ".join(sorted(SEARCH_STRATEGY_FACTORIES))
            raise ValueError(f"unknown search strategy {name!r}; available: {available}")
    cells = [
        (str(family), check_positive_integer(int(m), "m"), check_positive_integer(int(k), "k"))
        for family in families
        for m in m_values
        for k in k_values
    ]
    batch_rows = resolve_batch_rows(batch_rows, len(cells))
    grid = [
        {
            "cells": chunk,
            "strategies": tuple(roster),
            "n_trials": check_positive_integer(n_trials, "n_trials"),
            "max_rounds": check_positive_integer(max_rounds, "max_rounds"),
        }
        for chunk in chunk_grid(cells, batch_rows)
    ]
    return ExperimentSpec(
        name="search",
        description=(
            f"Parallel Bayesian search, {len(roster)} strategies on {len(cells)} problems"
        ),
        task=search_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "strategies": tuple(roster),
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "n_trials": int(n_trials),
            "max_rounds": int(max_rounds),
            "batch_rows": int(batch_rows),
            "n_cells": len(cells),
        },
    )


# --------------------------------------------------------------------------
# coverage-times
# --------------------------------------------------------------------------


#: The Monte-Carlo estimator behind the empirical columns.  Every grid cell
#: carries it as a param, so store keys written under another estimator
#: never serve this one's rows on resume.
_COVERAGE_TIME_SAMPLER = "race"


@dataclass(frozen=True)
class CoverageTimeRow:
    """One round strategy's coverage-time law on one ``(family, M, k)`` cell.

    The exact columns come from the Von Schelling inclusion-exclusion
    kernels: expected rounds until *all* sites are visited
    (``expected_rounds``, ``inf`` when the strategy skips a site), until any
    ``ceil(M / 2)`` distinct sites are visited (``expected_partial_rounds``),
    and ``P(T <= horizon)`` (``cdf_at_horizon``).  The empirical columns come
    from :func:`~repro.batch.coverage_times.estimate_coverage_time_mc`;
    ``z_score`` is the SEM-normalised exact-vs-empirical gap (``nan`` for
    uncoverable or censored rows, whose trials the estimator flags through
    ``censored_trials`` instead of silently biasing the mean).
    """

    strategy: str
    family: str
    m: int
    k: int
    expected_rounds: float
    expected_partial_rounds: float
    partial_j: int
    cdf_at_horizon: float
    horizon: int
    empirical_mean_rounds: float
    empirical_sem: float
    z_score: float
    censored_trials: int
    n_trials: int
    max_rounds: int


def coverage_times_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[CoverageTimeRow]:
    """Runner task: one chunk of cells through the coverage-time kernels.

    Every cell — a ``(family, M, k)`` tuple — becomes one row of the
    ``(B,)`` visit-distribution batch; each strategy of the roster is
    evaluated with one exact pass (expectation, partial expectation, CDF at
    the horizon) and one exponential-race Monte-Carlo estimate over the
    whole chunk.  Uncoverable rows (strategies that skip sites) report ``inf``
    exact times and ``nan`` empirical columns; the estimator itself skips
    their simulation.
    """
    cells = tuple(params["cells"])
    roster = tuple(params["strategies"])
    n_trials = int(params["n_trials"])
    max_rounds = int(params["max_rounds"])
    horizon = int(params["horizon"])

    problems = [
        BayesianSearchProblem.from_weights(make_family(str(family), int(m), rng).as_array())
        for family, m, _ in cells
    ]
    ks = np.asarray([int(k) for _, _, k in cells], dtype=np.int64)
    js = np.asarray([-(-int(m) // 2) for _, m, _ in cells], dtype=np.int64)

    rows: list[CoverageTimeRow] = []
    for name in roster:
        factory = SEARCH_STRATEGY_FACTORIES[str(name)]
        probs, sizes = as_visit_distribution_batch(
            [factory(problem, int(k)) for problem, k in zip(problems, ks)]
        )
        expected = expected_coverage_time_batch(probs, ks, sizes=sizes)
        partial = partial_coverage_time_batch(probs, ks, js, sizes=sizes)
        cdf = coverage_time_cdf_batch(probs, ks, horizon, sizes=sizes)
        estimate = estimate_coverage_time_mc(
            probs, ks, n_trials, sizes=sizes, max_rounds=max_rounds, rng=rng
        )
        with np.errstate(invalid="ignore"):
            z_scores = np.abs(expected - estimate.means) / estimate.sems
        rows.extend(
            CoverageTimeRow(
                strategy=str(name),
                family=str(family),
                m=int(m),
                k=int(k),
                expected_rounds=float(expected[index]),
                expected_partial_rounds=float(partial[index]),
                partial_j=int(js[index]),
                cdf_at_horizon=float(cdf[index]),
                horizon=horizon,
                empirical_mean_rounds=float(estimate.means[index]),
                empirical_sem=float(estimate.sems[index]),
                z_score=float(z_scores[index]),
                censored_trials=int(estimate.censored_counts[index]),
                n_trials=n_trials,
                max_rounds=max_rounds,
            )
            for index, (family, m, k) in enumerate(cells)
        )
    return rows


@register_experiment(
    "coverage-times",
    "Exact Von Schelling coverage-time laws vs the exponential-race Monte-Carlo estimator",
)
def build_coverage_times_spec(
    *,
    strategies: Sequence[str] = ("sigma_star", "uniform", "proportional", "greedy_top_k"),
    families: Sequence[str] = ("zipf", "uniform", "geometric"),
    m_values: Sequence[int] = (4, 6),
    k_values: Sequence[int] = (1, 2, 4),
    n_trials: int = 400,
    max_rounds: int = 4000,
    horizon: int = 64,
    batch_rows: int | None = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``coverage-times`` experiment.

    The full ``(family, M, k)`` grid is flattened into cells and chunked into
    one task per ``batch_rows`` rows; each task packs its chunk into one
    visit-distribution batch per strategy and runs one exact and one
    Monte-Carlo pass.  ``m_values`` should stay within the exact kernels'
    enumeration cap (:data:`repro.batch.coverage_times.DEFAULT_MAX_EXACT_SITES`).
    """
    roster = [str(name) for name in strategies]
    for name in roster:
        if name not in SEARCH_STRATEGY_FACTORIES:
            available = ", ".join(sorted(SEARCH_STRATEGY_FACTORIES))
            raise ValueError(f"unknown search strategy {name!r}; available: {available}")
    cells = [
        (str(family), check_positive_integer(int(m), "m"), check_positive_integer(int(k), "k"))
        for family in families
        for m in m_values
        for k in k_values
    ]
    batch_rows = resolve_batch_rows(batch_rows, len(cells))
    grid = [
        {
            "cells": chunk,
            "strategies": tuple(roster),
            "n_trials": check_positive_integer(n_trials, "n_trials"),
            "max_rounds": check_positive_integer(max_rounds, "max_rounds"),
            "horizon": check_positive_integer(horizon, "horizon"),
            "sampler": _COVERAGE_TIME_SAMPLER,
        }
        for chunk in chunk_grid(cells, batch_rows)
    ]
    return ExperimentSpec(
        name="coverage-times",
        description=(
            f"Coverage-time laws, {len(roster)} strategies on {len(cells)} problems"
        ),
        task=coverage_times_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "strategies": tuple(roster),
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "n_trials": int(n_trials),
            "max_rounds": int(max_rounds),
            "horizon": int(horizon),
            "sampler": _COVERAGE_TIME_SAMPLER,
            "batch_rows": int(batch_rows),
            "n_cells": len(cells),
        },
    )


# --------------------------------------------------------------------------
# mechanism
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MechanismPolicyRow:
    """One congestion policy on one ``(family, M, k)`` cell (the paper's lever)."""

    policy_name: str
    family: str
    m: int
    k: int
    equilibrium_coverage: float
    optimal_coverage: float
    spoa: float
    equilibrium_payoff: float
    support_size: int


@dataclass(frozen=True)
class GrantDesignRow:
    """The reward-design lever on one cell (the Kleinberg-Oren baseline).

    ``coverage_gap`` is ``optimal_coverage - induced_coverage`` — how much of
    the optimum the re-priced sharing game fails to reach (ideally ~0, at the
    cost of knowing ``k`` and being allowed to re-price sites).
    """

    family: str
    m: int
    k: int
    design_policy: str
    induced_coverage: float
    optimal_coverage: float
    coverage_gap: float
    max_deviation: float


def mechanism_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[MechanismPolicyRow | GrantDesignRow]:
    """Runner task: one chunk of cells through the batched mechanism kernels.

    One :func:`~repro.batch.mechanism.compare_policies_batch` call covers the
    whole ``(chunk x k x policy)`` grid and designs grants for every cell
    with its own ``k``, all in one water-filling loop.
    """
    cells = tuple(params["cells"])
    roster = [str(name) for name in params["policies"]]
    design_name = str(params["design_policy"])

    instances = [make_family(str(family), int(m), rng) for family, m, _ in cells]
    padded = PaddedValues.from_instances(instances)
    ks = np.asarray([int(k) for _, _, k in cells], dtype=np.int64)
    unique_ks, columns = np.unique(ks, return_inverse=True)
    take = np.arange(padded.batch_size)

    policies = [policy_from_name(name) for name in roster]
    comparisons = compare_policies_batch(
        padded, unique_ks, policies, grant_design=(policy_from_name(design_name), ks)
    )
    grants = comparisons.grants

    rows: list[MechanismPolicyRow | GrantDesignRow] = []
    for policy_index, name in enumerate(roster):
        rows.extend(
            MechanismPolicyRow(
                policy_name=str(name),
                family=str(family),
                m=int(m),
                k=int(k),
                equilibrium_coverage=float(
                    comparisons.equilibrium_coverages[policy_index, index, columns[index]]
                ),
                optimal_coverage=float(
                    comparisons.optimal_coverages[index, columns[index]]
                ),
                spoa=float(comparisons.spoa[policy_index, index, columns[index]]),
                equilibrium_payoff=float(
                    comparisons.equilibrium_payoffs[policy_index, index, columns[index]]
                ),
                support_size=int(
                    comparisons.support_sizes[policy_index, index, columns[index]]
                ),
            )
            for index, (family, m, k) in enumerate(cells)
        )
    optimal = comparisons.optimal_coverages[take, columns]
    rows.extend(
        GrantDesignRow(
            family=str(family),
            m=int(m),
            k=int(k),
            design_policy=design_name,
            induced_coverage=float(grants.induced_coverages[index]),
            optimal_coverage=float(optimal[index]),
            coverage_gap=float(optimal[index] - grants.induced_coverages[index]),
            max_deviation=float(grants.max_deviations[index]),
        )
        for index, (family, m, k) in enumerate(cells)
    )
    return rows


@register_experiment(
    "mechanism",
    "Congestion-rule design vs Kleinberg-Oren reward design over an instance grid",
)
def build_mechanism_spec(
    *,
    policies: Sequence[str] = ("exclusive", "sharing", "constant", "aggressive"),
    design_policy: str = "sharing",
    families: Sequence[str] = ("zipf", "uniform", "geometric"),
    m_values: Sequence[int] = (6, 12),
    k_values: Sequence[int] = (2, 4, 8),
    batch_rows: int | None = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``mechanism`` experiment.

    The paper's prediction (Theorems 4-6 / Section 1.6): the exclusive
    congestion rule reaches the coverage optimum without re-pricing, matching
    what the reward-design lever achieves only with per-``k`` grants.
    """
    roster = [str(name) for name in policies]
    for name in (*roster, str(design_policy)):
        policy_from_name(name)  # fail fast on unknown names
    cells = [
        (str(family), check_positive_integer(int(m), "m"), check_positive_integer(int(k), "k"))
        for family in families
        for m in m_values
        for k in k_values
    ]
    batch_rows = resolve_batch_rows(batch_rows, len(cells))
    grid = [
        {"cells": chunk, "policies": tuple(roster), "design_policy": str(design_policy)}
        for chunk in chunk_grid(cells, batch_rows)
    ]
    return ExperimentSpec(
        name="mechanism",
        description=(
            f"Mechanism comparison: {len(roster)} congestion rules vs "
            f"{design_policy}-policy grant design ({len(cells)} cells)"
        ),
        task=mechanism_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "policies": tuple(roster),
            "design_policy": str(design_policy),
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "batch_rows": int(batch_rows),
            "n_cells": len(cells),
        },
    )
