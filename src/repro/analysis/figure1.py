"""Regeneration of Figure 1: coverage as a function of the competition extent.

The paper's Figure 1 considers two players competing over two sites with
``f = (1, 0.3)`` (left panel) and ``f = (1, 0.5)`` (right panel).  The x-axis
parameterises the congestion function ``C_c`` (``C_c(1) = 1``,
``C_c(2) = c``) over ``c in [-0.5, 0.5]``; ``c = 0`` is the exclusive policy
and ``c = 0.5`` the sharing policy.  Three curves are plotted:

* the coverage of the ESS (the IFD of ``C_c``) — red in the paper;
* the optimum coverage over all symmetric strategies — green (constant in
  ``c`` since the coverage functional does not depend on the policy);
* the coverage of the symmetric strategy maximising the players' payoffs
  ("welfare optimum") — blue.

The qualitative claims the reproduction checks: the ESS curve touches the
optimum exactly at ``c = 0`` and lies strictly below it elsewhere, and the
welfare-optimal curve coincides with the optimum for ``c <= 0`` and drops
below it as soon as colliding players keep a positive share.

Structured as a thin client of :mod:`repro.experiments`: each grid point
``(panel, c)`` is one task of the registered ``figure1`` experiment, and the
parallel runner carries the load.  The equilibria could be solved per panel
as one policy roster, but the welfare optimum has no batch kernel, and the
``sweep`` benchmark workload counts figure1's cells, so the one-task-per-point
granularity stays.  :func:`assemble_figure1_panels` folds the task rows back
into :class:`Figure1Data` series, and :func:`write_panels_csv` writes them::

    result = run_registered("figure1", second_values=(0.3,), points=51)
    panels = assemble_figure1_panels(result.rows)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.coverage import coverage
from repro.core.ifd import ideal_free_distribution
from repro.core.optimal_coverage import optimal_coverage
from repro.core.policies import TwoLevelPolicy
from repro.core.values import SiteValues
from repro.core.welfare import welfare_optimal_strategy
from repro.experiments.registry import register_experiment
from repro.experiments.spec import ExperimentSpec
from repro.utils.io import write_series
from repro.utils.validation import check_positive_integer

__all__ = [
    "Figure1Data",
    "Figure1PointRow",
    "write_panels_csv",
    "figure1_point_task",
    "build_figure1_spec",
    "assemble_figure1_panels",
]


@dataclass(frozen=True)
class Figure1Data:
    """The three numeric series of one Figure 1 panel."""

    values: SiteValues
    k: int
    c_grid: np.ndarray
    ess_coverage: np.ndarray
    optimal_coverage: float
    welfare_optimum_coverage: np.ndarray

    def as_series(self) -> dict[str, np.ndarray]:
        """Column view suitable for CSV output."""
        return {
            "c": self.c_grid,
            "ess_coverage": self.ess_coverage,
            "optimal_coverage": np.full_like(self.c_grid, self.optimal_coverage),
            "welfare_optimum_coverage": self.welfare_optimum_coverage,
        }

    @property
    def argmax_c(self) -> float:
        """Competition extent at which the ESS coverage peaks."""
        return float(self.c_grid[int(np.argmax(self.ess_coverage))])

    @property
    def peak_gap(self) -> float:
        """Distance between the peak ESS coverage and the optimum (should be ~0 at c=0)."""
        return float(self.optimal_coverage - self.ess_coverage.max())


@dataclass(frozen=True)
class Figure1PointRow:
    """One ``(panel, c)`` grid point of the Figure 1 experiment.

    ``panel_index`` records which panel of the spec grid the point belongs
    to, so the assembler groups exactly (names may repeat when two panels
    share a ``second`` value; later same-name panels then win).
    """

    panel: str
    values: tuple[float, ...]
    k: int
    c: float
    ess_coverage: float
    optimal_coverage: float
    welfare_optimum_coverage: float
    panel_index: int = 0


def figure1_point_task(params: Mapping[str, Any], rng: np.random.Generator) -> Figure1PointRow:
    """Evaluate the three Figure 1 series at a single competition extent ``c``."""
    values = SiteValues.from_values(np.asarray(params["values"], dtype=float))
    k = int(params["k"])
    c = float(params["c"])
    welfare_grid_points = int(params["welfare_grid_points"])

    policy = TwoLevelPolicy(c)
    equilibrium = ideal_free_distribution(values, k, policy)
    welfare = welfare_optimal_strategy(values, k, policy, grid_points=welfare_grid_points)
    return Figure1PointRow(
        panel=str(params["panel"]),
        values=tuple(float(v) for v in values.as_array()),
        k=k,
        c=c,
        ess_coverage=float(coverage(values, equilibrium.strategy, k)),
        optimal_coverage=float(optimal_coverage(values, k)),
        welfare_optimum_coverage=float(welfare.coverage),
        panel_index=int(params.get("panel_index", 0)),
    )


def _panel_grid(
    panel: str,
    values: SiteValues,
    k: int,
    c_grid: np.ndarray,
    welfare_grid_points: int,
    panel_index: int,
) -> list[dict[str, Any]]:
    if np.any(c_grid > 1.0):
        raise ValueError("collision payoffs c must be <= 1 to define a congestion policy")
    raw = tuple(float(v) for v in values.as_array())
    return [
        {
            "panel": panel,
            "values": raw,
            "k": int(k),
            "c": float(c),
            "welfare_grid_points": int(welfare_grid_points),
            "panel_index": int(panel_index),
        }
        for c in c_grid
    ]


@register_experiment("figure1", "Regenerate the two panels of Figure 1")
def build_figure1_spec(
    *,
    c_grid: np.ndarray | Sequence[float] | None = None,
    points: int = 101,
    second_values: Sequence[float] = (0.3, 0.5),
    k: int = 2,
    welfare_grid_points: int = 2001,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``figure1`` experiment (one task per panel point)."""
    k = check_positive_integer(k, "k")
    if c_grid is None:
        c_grid = np.linspace(-0.5, 0.5, check_positive_integer(points, "points"))
    c_grid = np.asarray(c_grid, dtype=float)
    grid: list[dict[str, Any]] = []
    for panel_index, second in enumerate(second_values):
        grid.extend(
            _panel_grid(
                f"f2={second:g}",
                SiteValues.two_sites(float(second)),
                k,
                c_grid,
                welfare_grid_points,
                panel_index,
            )
        )
    return ExperimentSpec(
        name="figure1",
        description="Figure 1: coverage vs competition extent",
        task=figure1_point_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "second_values": tuple(float(s) for s in second_values),
            "k": int(k),
            "points": int(c_grid.size),
        },
    )


def assemble_figure1_panels(rows: Sequence[Figure1PointRow]) -> dict[str, Figure1Data]:
    """Fold per-point task rows back into per-panel series.

    Points are grouped by their ``panel_index`` (the exact panel boundary
    recorded by the spec builder); when two panels share a display name
    (duplicate ``second_values``) the later one wins.
    """
    groups: dict[int, list[Figure1PointRow]] = {}
    for row in rows:
        groups.setdefault(row.panel_index, []).append(row)
    panels: dict[str, list[Figure1PointRow]] = {}
    for panel_index in sorted(groups):
        panels[groups[panel_index][0].panel] = groups[panel_index]
    assembled: dict[str, Figure1Data] = {}
    for name, points in panels.items():
        assembled[name] = Figure1Data(
            values=SiteValues.from_values(np.asarray(points[0].values)),
            k=points[0].k,
            c_grid=np.array([p.c for p in points]),
            ess_coverage=np.array([p.ess_coverage for p in points]),
            optimal_coverage=float(points[0].optimal_coverage),
            welfare_optimum_coverage=np.array([p.welfare_optimum_coverage for p in points]),
        )
    return assembled


def write_panels_csv(panels: Mapping[str, Figure1Data], output_dir: str | Path) -> list[Path]:
    """Write one CSV per assembled panel into ``output_dir`` and return the paths."""
    directory = Path(output_dir)
    paths: list[Path] = []
    for name, panel in panels.items():
        safe = name.replace("=", "_").replace(".", "p")
        paths.append(write_series(directory / f"figure1_{safe}.csv", panel.as_series()))
    return paths

