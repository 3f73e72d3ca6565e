"""Registered experiments for the Section-5 scenario extensions.

Three experiments sweep the scenario models over instance grids, each task
evaluating one *chunk* of grid cells in a single batched kernel call (the
same ``chunk_grid`` pattern as the ``dynamics`` experiment, so the
process-pool runner parallelises across chunks while every task amortises
its kernel over many rows):

* ``travel-costs`` — cost-adjusted equilibria
  (:func:`repro.batch.scenarios.cost_adjusted_ifd_batch`) over a
  ``(family x M x k x cost-scale)`` grid, reporting how visiting costs erode
  the equilibrium coverage relative to the cost-free optimum;
* ``group-competition`` — sequential two-group contests
  (:func:`repro.batch.scenarios.two_group_competition_batch`) over every
  ordered pair of a congestion-rule roster, quantifying the paper's
  "aggression can pay at the group level" discussion;
* ``repeated`` — expected multi-round depletion horizons
  (:func:`repro.batch.scenarios.repeated_dispersal_batch`) comparing the
  constant and adaptive ``sigma_star`` schedules across depletion factors.

The matching ``repro-dispersal travel-costs / group-competition / repeated``
CLI sub-commands are thin clients of these builders, sharing the common
``--seed/--json/--workers/--backend`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.observation1 import make_family
from repro.batch import (
    PaddedValues,
    cost_adjusted_ifd_batch,
    coverage_batch,
    optimal_coverage_batch,
    repeated_dispersal_batch,
    two_group_competition_batch,
)
from repro.core.policies import CongestionPolicy, policy_from_name
from repro.experiments.registry import register_experiment
from repro.experiments.executors import chunk_grid
from repro.experiments.runner import resolve_batch_rows
from repro.experiments.spec import ExperimentSpec
from repro.utils.validation import check_positive_integer

__all__ = [
    "TravelCostRow",
    "travel_cost_task",
    "build_travel_costs_spec",
    "GroupCompetitionRow",
    "group_competition_task",
    "build_group_competition_spec",
    "RepeatedDispersalRow",
    "repeated_dispersal_task",
    "build_repeated_spec",
]

# --------------------------------------------------------------------------
# travel costs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TravelCostRow:
    """Cost-adjusted equilibrium of one ``(family, M, k, cost-scale)`` cell.

    ``coverage_ratio`` is the equilibrium coverage divided by the cost-free
    coverage optimum of the same ``(f, k)`` — it equals the plain coverage
    ratio when ``cost_scale == 0`` and generally drops below it as visiting
    gets expensive.
    """

    policy_name: str
    family: str
    m: int
    k: int
    cost_scale: float
    equilibrium_value: float
    support_size: int
    coverage: float
    optimal_coverage: float
    coverage_ratio: float
    converged: bool


def travel_cost_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[TravelCostRow]:
    """Runner task: one chunk of cells through one ``cost_adjusted_ifd_batch``.

    Every cell — a ``(family, M, k, cost_scale)`` tuple — becomes one row of
    a ragged, mixed-``k`` batch; costs are drawn uniformly in
    ``[0, cost_scale * mean(f)]`` per site from the task's deterministic
    generator.
    """
    policy: CongestionPolicy = params["policy"]
    cells = tuple(params["cells"])

    instances = [make_family(str(family), int(m), rng) for family, m, _, _ in cells]
    padded = PaddedValues.from_instances(instances)
    ks = np.asarray([int(k) for _, _, k, _ in cells], dtype=np.int64)
    scales = np.asarray([float(scale) for _, _, _, scale in cells])
    costs = np.zeros(padded.values.shape)
    for index, values in enumerate(instances):
        ceiling = scales[index] * float(values.as_array().mean())
        costs[index, : values.m] = rng.uniform(0.0, max(ceiling, 0.0), values.m)

    batch = cost_adjusted_ifd_batch(padded, costs, ks, policy)

    # Coverage of the cost-adjusted equilibrium against the cost-free optimum:
    # both solved for the distinct player counts in one batched pass, then
    # each row gathers its own k column.
    unique_ks, columns = np.unique(ks, return_inverse=True)
    take = np.arange(padded.batch_size)
    optimal = optimal_coverage_batch(padded, unique_ks)[take, columns]
    coverages = coverage_batch(padded, batch.probabilities, unique_ks)[take, columns]

    rows = []
    for index, (values, (family, _, k, scale)) in enumerate(zip(instances, cells)):
        best = float(optimal[index])
        cover = float(coverages[index])
        rows.append(
            TravelCostRow(
                policy_name=policy.name,
                family=str(family),
                m=values.m,
                k=int(k),
                cost_scale=float(scale),
                equilibrium_value=float(batch.values[index]),
                support_size=int(batch.support_sizes[index]),
                coverage=cover,
                optimal_coverage=best,
                coverage_ratio=cover / best if best > 0 else float("nan"),
                converged=bool(batch.converged[index]),
            )
        )
    return rows


@register_experiment(
    "travel-costs",
    "Cost-adjusted equilibria over a (family, M, k, cost-scale) grid (Section 5.1)",
)
def build_travel_costs_spec(
    *,
    policy: CongestionPolicy | str = "sharing",
    families: Sequence[str] = ("zipf", "uniform", "geometric"),
    m_values: Sequence[int] = (6, 12),
    k_values: Sequence[int] = (2, 4, 8),
    cost_scales: Sequence[float] = (0.0, 0.1, 0.3),
    batch_rows: int | None = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``travel-costs`` experiment.

    The full grid is flattened into cells and chunked into one task per
    ``batch_rows`` rows; each task solves its chunk in a single batched
    water-filling call.  ``cost_scales`` always deserves a ``0.0`` entry —
    those rows certify the reduction to the cost-free core model.
    """
    resolved = policy_from_name(policy) if isinstance(policy, str) else policy
    cells = [
        (str(family), check_positive_integer(int(m), "m"), check_positive_integer(int(k), "k"), float(scale))
        for family in families
        for m in m_values
        for k in k_values
        for scale in cost_scales
    ]
    batch_rows = resolve_batch_rows(batch_rows, len(cells))
    grid = [
        {"policy": resolved, "cells": chunk}
        for chunk in chunk_grid(cells, batch_rows)
    ]
    return ExperimentSpec(
        name="travel-costs",
        description=f"Cost-adjusted IFD under the {resolved.name} policy ({len(cells)} cells)",
        task=travel_cost_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "policy": resolved.name,
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "cost_scales": tuple(float(s) for s in cost_scales),
            "batch_rows": int(batch_rows),
            "n_cells": len(cells),
        },
    )


# --------------------------------------------------------------------------
# two-group competition
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupCompetitionRow:
    """Outcome of one sequential contest between two within-group rules."""

    first_policy: str
    second_policy: str
    family: str
    m: int
    k_first: int
    k_second: int
    first_consumption: float
    second_consumption: float
    first_share: float
    first_payoff: float
    second_payoff: float
    leftover_value: float


def group_competition_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[GroupCompetitionRow]:
    """Runner task: one chunk of policy-pair matchups in one batched call.

    Every cell — a ``(first, second, family, M)`` tuple of policy names and
    an instance family — becomes one row of the ``(B,)`` roster handed to
    :func:`~repro.batch.scenarios.two_group_competition_batch`; rows sharing
    a rule are solved in grouped :func:`~repro.batch.ifd.ifd_batch` passes.
    """
    cells = tuple(params["cells"])
    k_first = int(params["k_first"])
    k_second = int(params["k_second"])

    instances = [make_family(str(family), int(m), rng) for _, _, family, m in cells]
    padded = PaddedValues.from_instances(instances)
    # One policy object per distinct name, so the batch groups rows by rule.
    names = {name for first, second, _, _ in cells for name in (first, second)}
    policies = {name: policy_from_name(name) for name in names}
    firsts = [policies[first] for first, _, _, _ in cells]
    seconds = [policies[second] for _, second, _, _ in cells]

    batch = two_group_competition_batch(padded, firsts, seconds, k_first, k_second)
    return [
        GroupCompetitionRow(
            first_policy=str(first),
            second_policy=str(second),
            family=str(family),
            m=values.m,
            k_first=k_first,
            k_second=k_second,
            first_consumption=float(batch.first_consumption[index]),
            second_consumption=float(batch.second_consumption[index]),
            first_share=float(batch.first_shares[index]),
            first_payoff=float(batch.first_individual_payoffs[index]),
            second_payoff=float(batch.second_individual_payoffs[index]),
            leftover_value=float(batch.leftover_values[index]),
        )
        for index, (values, (first, second, family, _)) in enumerate(zip(instances, cells))
    ]


@register_experiment(
    "group-competition",
    "Sequential two-group contests over every ordered policy pair (Section 5.2)",
)
def build_group_competition_spec(
    *,
    policies: Sequence[str] = ("exclusive", "sharing", "aggressive"),
    families: Sequence[str] = ("zipf", "uniform"),
    m_values: Sequence[int] = (8, 16),
    k: int = 6,
    k_second: int | None = None,
    batch_rows: int | None = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``group-competition`` experiment.

    The grid crosses every *ordered* pair of distinct policies with the
    instance families; the paper's prediction is that the exclusive rule
    weakly dominates when feeding first and concedes the least when second.
    """
    k = check_positive_integer(k, "k")
    k_second = k if k_second is None else check_positive_integer(k_second, "k_second")
    roster = [str(name) for name in policies]
    for name in roster:
        policy_from_name(name)  # fail fast on unknown names
    cells = [
        (first, second, str(family), check_positive_integer(int(m), "m"))
        for first in roster
        for second in roster
        if first != second
        for family in families
        for m in m_values
    ]
    batch_rows = resolve_batch_rows(batch_rows, len(cells))
    grid = [
        {"cells": chunk, "k_first": int(k), "k_second": int(k_second)}
        for chunk in chunk_grid(cells, batch_rows)
    ]
    return ExperimentSpec(
        name="group-competition",
        description=f"Two-group contests, k={k} vs k={k_second} ({len(cells)} matchups)",
        task=group_competition_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "policies": tuple(roster),
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_first": int(k),
            "k_second": int(k_second),
            "batch_rows": int(batch_rows),
            "n_matchups": len(cells),
        },
    )


# --------------------------------------------------------------------------
# repeated dispersal
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RepeatedDispersalRow:
    """Expected horizon outcome of one ``(schedule, depletion, family, M, k)`` cell."""

    schedule: str
    family: str
    m: int
    k: int
    rounds: int
    depletion: float
    cumulative_consumption: float
    remaining_value: float
    first_round: float
    last_round: float


def repeated_dispersal_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[RepeatedDispersalRow]:
    """Runner task: one chunk of horizons (single schedule) in one batched call."""
    schedule = str(params["schedule"])
    rounds = int(params["rounds"])
    cells = tuple(params["cells"])

    instances = [make_family(str(family), int(m), rng) for family, m, _, _ in cells]
    padded = PaddedValues.from_instances(instances)
    ks = np.asarray([int(k) for _, _, k, _ in cells], dtype=np.int64)
    depletions = np.asarray([float(d) for _, _, _, d in cells])

    batch = repeated_dispersal_batch(
        padded, ks, rounds=rounds, depletion=depletions, schedule=schedule
    )
    return [
        RepeatedDispersalRow(
            schedule=schedule,
            family=str(family),
            m=values.m,
            k=int(k),
            rounds=rounds,
            depletion=float(depletion),
            cumulative_consumption=float(batch.cumulative_consumption[index]),
            remaining_value=float(batch.remaining_values[index]),
            first_round=float(batch.per_round_consumption[index, 0]),
            last_round=float(batch.per_round_consumption[index, -1]),
        )
        for index, (values, (family, _, k, depletion)) in enumerate(zip(instances, cells))
    ]


@register_experiment(
    "repeated",
    "Expected multi-round depletion horizons, constant vs adaptive sigma_star",
)
def build_repeated_spec(
    *,
    schedules: Sequence[str] = ("adaptive", "constant"),
    families: Sequence[str] = ("zipf", "uniform"),
    m_values: Sequence[int] = (8, 16),
    k_values: Sequence[int] = (3, 6),
    depletions: Sequence[float] = (0.0, 0.25, 0.5),
    rounds: int = 6,
    batch_rows: int | None = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``repeated`` experiment.

    Cells are chunked *per schedule* (the batched kernel evolves one schedule
    mode per call), so a task never mixes adaptive and constant rows.
    """
    rounds = check_positive_integer(rounds, "rounds")
    for schedule in schedules:
        if str(schedule) not in ("adaptive", "constant"):
            raise ValueError(f"unknown schedule {schedule!r} (adaptive or constant)")
    grid: list[dict[str, Any]] = []
    n_cells = 0
    for schedule in schedules:
        cells = [
            (str(family), check_positive_integer(int(m), "m"), check_positive_integer(int(k), "k"), float(d))
            for family in families
            for m in m_values
            for k in k_values
            for d in depletions
        ]
        n_cells += len(cells)
        # Same cell count per schedule, so the resolved value is loop-stable.
        batch_rows = resolve_batch_rows(batch_rows, len(cells))
        grid.extend(
            {"schedule": str(schedule), "rounds": int(rounds), "cells": chunk}
            for chunk in chunk_grid(cells, batch_rows)
        )
    return ExperimentSpec(
        name="repeated",
        description=f"Repeated dispersal over {rounds} rounds ({n_cells} horizons)",
        task=repeated_dispersal_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "schedules": tuple(str(s) for s in schedules),
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "depletions": tuple(float(d) for d in depletions),
            "rounds": int(rounds),
            "batch_rows": int(batch_rows),
            "n_horizons": n_cells,
        },
    )
