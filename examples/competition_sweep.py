#!/usr/bin/env python
"""Reproduce Figure 1: coverage as a function of the competition extent.

Two players compete over two sites (``f = (1, 0.3)`` and ``f = (1, 0.5)``); the
collision payoff ``c`` of the congestion family ``C_c`` ranges over
``[-0.5, 0.5]``.  The script prints the three curves of the paper's Figure 1
(ESS coverage, optimal coverage, welfare-optimal coverage) as an ASCII plot,
reports the key qualitative facts, and writes the numeric series to CSV.

Run with::

    python examples/competition_sweep.py [--points 51] [output_dir]

``--points`` controls the resolution of the ``c`` grid (the paper-quality
default is 51; the test suite runs a coarse grid for speed).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.figure1 import assemble_figure1_panels, write_panels_csv
from repro.analysis.reporting import figure1_report
from repro.experiments import run_registered


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Reproduce Figure 1.")
    parser.add_argument(
        "output_dir", nargs="?", type=Path, default=Path("results"),
        help="Directory the CSV series are written to.",
    )
    parser.add_argument(
        "--points", type=int, default=51, help="Grid points on c in [-0.5, 0.5]."
    )
    parser.add_argument(
        "--welfare-grid-points", type=int, default=1001,
        help="Resolution of the welfare-optimum search.",
    )
    args = parser.parse_args(argv)

    c_grid = np.linspace(-0.5, 0.5, args.points)
    result = run_registered(
        "figure1", c_grid=c_grid, welfare_grid_points=args.welfare_grid_points
    )
    panels = assemble_figure1_panels(result.rows)

    print(figure1_report(panels))

    print("\nKey facts reproduced from the paper:")
    for name, panel in panels.items():
        print(
            f"  panel {name}: ESS coverage peaks at c = {panel.argmax_c:+.3f} "
            f"with gap {panel.peak_gap:.2e} to the optimum "
            f"(optimum coverage {panel.optimal_coverage:.4f})"
        )

    paths = write_panels_csv(panels, args.output_dir)
    print("\nNumeric series written to:")
    for path in paths:
        print(f"  {path}")


if __name__ == "__main__":
    main()
