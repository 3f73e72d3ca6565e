"""Generic parameter sweeps over the dispersal game.

Three reusable sweeps back several benchmarks and examples:

* :func:`coverage_ratio_sweep` — for a roster of congestion policies, how the
  equilibrium coverage (relative to the optimum) changes with the number of
  players ``k``;
* :func:`support_size_sweep` — how the support ``W`` of ``sigma_star`` grows
  with ``k`` for different value-function shapes (the "how widely does intense
  competition spread the population" question);
* the registered ``dynamics`` experiment (:func:`build_dynamics_spec`) —
  evolutionary-dynamics trajectories over a whole
  ``(family x M x k x initial condition)`` grid, evolved together by the
  batched :class:`~repro.batch.dynamics.DynamicsEngine`.

The closed-form sweeps evaluate their whole ``k`` grid in one
:mod:`repro.batch` pass per policy/family; the dynamics sweep chunks its row
grid into runner tasks (``repro.experiments.chunk_grid``) and each task steps
its chunk in a single engine run.  The registered ``sweep`` and ``dynamics``
experiments back the matching ``repro-dispersal`` CLI commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.batch import (
    DynamicsEngine,
    PaddedValues,
    exploitability_batch,
    make_rule,
    sigma_star_batch,
    spoa_batch,
)
from repro.core.policies import (
    CongestionPolicy,
    ConstantPolicy,
    ExclusivePolicy,
    SharingPolicy,
)
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.analysis.observation1 import make_family
from repro.experiments.registry import register_experiment
from repro.experiments.executors import chunk_grid
from repro.experiments.runner import resolve_batch_rows
from repro.experiments.spec import ExperimentSpec
from repro.utils.validation import check_positive_integer

__all__ = [
    "SweepResult",
    "SweepPointRow",
    "DynamicsGridRow",
    "coverage_ratio_sweep",
    "support_size_sweep",
    "coverage_ratio_task",
    "build_sweep_spec",
    "assemble_sweep",
    "dynamics_grid_task",
    "build_dynamics_spec",
]


@dataclass(frozen=True)
class SweepResult:
    """A labelled family of curves over a shared x-axis."""

    x_label: str
    x_values: np.ndarray
    curves: dict[str, np.ndarray] = field(default_factory=dict)

    def as_series(self) -> dict[str, np.ndarray]:
        """Column view (x first) suitable for CSV output."""
        series = {self.x_label: self.x_values}
        series.update(self.curves)
        return series


@dataclass(frozen=True)
class SweepPointRow:
    """One ``(policy, k)`` point of a coverage-ratio sweep.

    ``task_index`` is the position of the policy in the spec grid; the
    assembler groups rows by it, so curves never have to be re-inferred from
    the (possibly duplicated) policy names or ``k`` values.
    """

    policy_name: str
    m: int
    k: int
    ratio: float
    task_index: int = 0


def _coverage_ratio_curve(
    values: SiteValues, policy: CongestionPolicy, ks: np.ndarray
) -> np.ndarray:
    """Equilibrium/optimal coverage for one policy over a whole ``k`` grid."""
    batch = spoa_batch([values], ks, policy)
    optimal = batch.optimal_coverages[0]
    equilibrium = batch.equilibrium_coverages[0]
    return np.where(optimal > 0, equilibrium / np.where(optimal > 0, optimal, 1.0), 0.0)


def coverage_ratio_task(params: Mapping[str, Any], rng: np.random.Generator) -> list[SweepPointRow]:
    """Runner task: one policy's coverage-ratio curve over the ``k`` grid."""
    policy: CongestionPolicy = params["policy"]
    values = SiteValues.from_values(np.asarray(params["values"], dtype=float))
    ks = np.asarray([int(k) for k in params["k_values"]], dtype=np.int64)
    task_index = int(params.get("task_index", 0))
    ratios = _coverage_ratio_curve(values, policy, ks)
    return [
        SweepPointRow(
            policy_name=policy.name,
            m=values.m,
            k=int(k),
            ratio=float(r),
            task_index=task_index,
        )
        for k, r in zip(ks, ratios)
    ]


@register_experiment("sweep", "Coverage-ratio sweep over k for a roster of policies")
def build_sweep_spec(
    *,
    policies: Sequence[CongestionPolicy] | None = None,
    values: SiteValues | Sequence[float] | None = None,
    m: int = 20,
    k_values: Sequence[int] = (2, 3, 4, 6, 8, 12, 16),
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``sweep`` experiment (one task per policy).

    ``policies`` defaults to the three policies the paper names explicitly.
    """
    if policies is None:
        policies = [ExclusivePolicy(), SharingPolicy(), ConstantPolicy()]
    if values is None:
        values = SiteValues.zipf(check_positive_integer(m, "m"), exponent=1.0)
    f = values if isinstance(values, SiteValues) else SiteValues.from_values(np.asarray(values))
    raw = tuple(float(v) for v in f.as_array())
    k_tuple = tuple(check_positive_integer(int(k), "k") for k in k_values)
    grid = [
        {"policy": policy, "values": raw, "k_values": k_tuple, "task_index": index}
        for index, policy in enumerate(policies)
    ]
    return ExperimentSpec(
        name="sweep",
        description=f"Equilibrium coverage / optimal coverage (M={f.m})",
        task=coverage_ratio_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "policies": tuple(policy.name for policy in policies),
            "m": f.m,
            "k_values": k_tuple,
        },
    )


def assemble_sweep(rows: Sequence[SweepPointRow]) -> SweepResult:
    """Fold per-point rows into the labelled-curves view.

    Curves are grouped by the rows' ``task_index`` (the exact per-policy task
    boundary recorded by the spec builder); a second policy with the same
    display name is disambiguated with a suffix, matching
    :func:`coverage_ratio_sweep`.
    """
    groups: dict[int, list[SweepPointRow]] = {}
    for row in rows:
        groups.setdefault(row.task_index, []).append(row)
    curves: dict[str, np.ndarray] = {}
    k_axis: np.ndarray = np.empty(0)
    for task_index in sorted(groups):
        points = groups[task_index]
        name = points[0].policy_name
        if name in curves:
            name = f"{name}-{len(curves)}"
        curves[name] = np.asarray([p.ratio for p in points])
        if not k_axis.size:
            # Every task shares the spec's k grid (duplicates preserved).
            k_axis = np.asarray([p.k for p in points], dtype=float)
    return SweepResult(x_label="k", x_values=k_axis, curves=curves)


def coverage_ratio_sweep(
    values: SiteValues | np.ndarray,
    policies: Sequence[CongestionPolicy],
    *,
    k_values: Sequence[int] = (2, 3, 4, 6, 8, 12, 16),
) -> SweepResult:
    """Equilibrium coverage / optimal coverage, per policy, as ``k`` grows."""
    f = values if isinstance(values, SiteValues) else SiteValues.from_values(values)
    ks = np.asarray([check_positive_integer(k, "k") for k in k_values], dtype=np.int64)
    curves: dict[str, np.ndarray] = {}
    for policy in policies:
        name = policy.name
        if name in curves:
            name = f"{name}-{len(curves)}"
        curves[name] = _coverage_ratio_curve(f, policy, ks)
    return SweepResult(x_label="k", x_values=ks.astype(float), curves=curves)


@dataclass(frozen=True)
class DynamicsGridRow:
    """Outcome of one dynamics trajectory of a batched grid run.

    ``exploitability`` is the deviation gain at the final state (zero at an
    exact equilibrium); ``support_size`` counts the sites that retained
    non-negligible mass.
    """

    rule: str
    policy_name: str
    family: str
    m: int
    k: int
    init: str
    converged: bool
    iterations: int
    exploitability: float
    support_size: int


def _initial_state(init: str, values: SiteValues, rng: np.random.Generator) -> np.ndarray:
    """Materialise a named initial condition for one grid row."""
    if init == "uniform":
        return np.full(values.m, 1.0 / values.m)
    if init == "proportional":
        return Strategy.proportional(values.as_array()).as_array()
    if init == "random":
        return rng.dirichlet(np.ones(values.m))
    raise ValueError(f"unknown initial condition {init!r}")


def dynamics_grid_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[DynamicsGridRow]:
    """Runner task: evolve one chunk of grid rows in a single engine run.

    Every cell of the chunk — a ``(family, M, k, init)`` tuple — becomes one
    row of a ragged, mixed-``k`` batch; the :class:`DynamicsEngine` steps them
    all together and a single :func:`exploitability_batch` pass scores the
    final states.
    """
    rule_name = str(params["rule"])
    policy: CongestionPolicy = params["policy"]
    cells = tuple(params["cells"])
    max_iter = int(params["max_iter"])
    tol = float(params["tol"])

    instances = [make_family(str(family), int(m), rng) for family, m, _, _ in cells]
    padded = PaddedValues.from_instances(instances)
    ks = np.asarray([int(k) for _, _, k, _ in cells], dtype=np.int64)
    initial = np.zeros(padded.values.shape)
    for index, (values, (_, _, _, init)) in enumerate(zip(instances, cells)):
        initial[index, : values.m] = _initial_state(str(init), values, rng)

    engine = DynamicsEngine(
        padded, ks, policy, make_rule(rule_name), max_iter=max_iter, tol=tol
    )
    result = engine.run(initial)
    states = np.clip(result.states, 0.0, None)
    states /= states.sum(axis=1, keepdims=True)
    gaps = exploitability_batch(padded, states, ks, policy)

    return [
        DynamicsGridRow(
            rule=rule_name,
            policy_name=policy.name,
            family=str(family),
            m=values.m,
            k=int(k),
            init=str(init),
            converged=bool(result.converged[index]),
            iterations=int(result.iterations[index]),
            exploitability=float(gaps[index]),
            support_size=int(np.count_nonzero(states[index, : values.m] > 1e-9)),
        )
        for index, (values, (family, _, k, init)) in enumerate(zip(instances, cells))
    ]


@register_experiment("dynamics", "Batched dynamics sweep over (family, M, k, init) grids")
def build_dynamics_spec(
    *,
    rule: str = "discrete",
    policy: CongestionPolicy | None = None,
    families: Sequence[str] = ("uniform", "zipf", "geometric"),
    m_values: Sequence[int] = (6, 12),
    k_values: Sequence[int] = (2, 3, 5),
    inits: Sequence[str] = ("uniform", "proportional", "random"),
    batch_rows: int | None = None,
    max_iter: int = 20_000,
    tol: float = 1e-10,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``dynamics`` experiment.

    The full ``(family x M x k x init)`` grid is flattened into rows and
    chunked into one task per ``batch_rows`` rows, so a parallel runner
    parallelises across chunks while each task amortises the batched payoff
    kernel over its whole chunk.  ``batch_rows=None`` (the default)
    auto-tunes the chunk size from the grid length and the machine's CPU
    count (:func:`~repro.experiments.runner.auto_chunk_size`); pass the
    resolved value recorded in the result metadata to pin the chunking —
    and bit-identical results — across machines.
    """
    if policy is None:
        policy = SharingPolicy()
    make_rule(rule)  # fail fast on unknown rule names
    cells = [
        (str(family), check_positive_integer(int(m), "m"), check_positive_integer(int(k), "k"), str(init))
        for family in families
        for m in m_values
        for k in k_values
        for init in inits
    ]
    batch_rows = resolve_batch_rows(batch_rows, len(cells))
    grid = [
        {
            "rule": str(rule),
            "policy": policy,
            "cells": chunk,
            "max_iter": int(max_iter),
            "tol": float(tol),
        }
        for chunk in chunk_grid(cells, batch_rows)
    ]
    return ExperimentSpec(
        name="dynamics",
        description=f"{rule} dynamics under the {policy.name} policy ({len(cells)} trajectories)",
        task=dynamics_grid_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "rule": str(rule),
            "policy": policy.name,
            "families": tuple(str(f) for f in families),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "inits": tuple(str(i) for i in inits),
            "batch_rows": int(batch_rows),
            "n_trajectories": len(cells),
        },
    )


def support_size_sweep(
    value_families: dict[str, SiteValues],
    *,
    k_values: Sequence[int] = (2, 3, 5, 8, 13, 21, 34),
) -> SweepResult:
    """Support size ``W`` of ``sigma_star`` as a function of ``k`` for each family.

    Solved for every ``(family, k)`` cell in a single batched pass.
    """
    ks = np.asarray([check_positive_integer(k, "k") for k in k_values], dtype=np.int64)
    names = list(value_families)
    supports = sigma_star_batch(list(value_families.values()), ks).support_sizes
    curves = {
        name: supports[index].astype(float) for index, name in enumerate(names)
    }
    return SweepResult(x_label="k", x_values=ks.astype(float), curves=curves)
