"""Batched symmetric price of anarchy over whole instance grids.

``SPoA(C, f, k) = Cover(p_star) / Cover(IFD)`` per instance; this module
evaluates the ratio for every cell of an ``(instances x k-grid)`` in a few
tensor passes: one :func:`~repro.batch.solvers.sigma_star_batch` call for the
coverage optimum (Theorem 4), one :func:`~repro.batch.ifd.ifd_batch` call for
the equilibria, and one :func:`~repro.batch.solvers.coverage_batch` call each.

This is an orchestration layer: the heavy tensor work happens inside the
sub-kernels on whichever backend is resolved (the ``backend`` keyword is
forwarded), and the final ratio assembly runs on the host results they
return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend import Backend, resolve_backend
from repro.batch.ifd import ifd_batch
from repro.batch.padding import PaddedValues
from repro.batch.solvers import as_padded, coverage_batch, sigma_star_batch
from repro.core.policies import CongestionPolicy
from repro.core.spoa import SPoAInstance
from repro.utils.validation import check_counts

__all__ = ["SPoABatch", "spoa_batch"]


@dataclass(frozen=True)
class SPoABatch:
    """Per-instance SPoA for every ``(instance, k)`` cell of a grid.

    Attributes
    ----------
    ratios:
        ``(B, K)`` matrix ``Cover(p_star) / Cover(IFD)`` (``inf`` when the
        equilibrium coverage is non-positive).
    optimal_coverages, equilibrium_coverages:
        The two coverages entering each ratio.
    k_grid, padded:
        Axes of the grid.
    """

    ratios: np.ndarray
    optimal_coverages: np.ndarray
    equilibrium_coverages: np.ndarray
    k_grid: np.ndarray
    padded: PaddedValues

    def instance(self, index: int, k_index: int) -> SPoAInstance:
        """Hydrate one grid cell into the scalar :class:`SPoAInstance`."""
        return SPoAInstance(
            ratio=float(self.ratios[index, k_index]),
            optimal_coverage=float(self.optimal_coverages[index, k_index]),
            equilibrium_coverage=float(self.equilibrium_coverages[index, k_index]),
            k=int(self.k_grid[k_index]),
            m=int(self.padded.sizes[index]),
        )

    def argmax(self) -> tuple[int, int]:
        """Grid indices ``(instance, k_index)`` of the largest ratio."""
        flat = int(np.argmax(self.ratios))
        return flat // self.ratios.shape[1], flat % self.ratios.shape[1]


def spoa_batch(
    values: PaddedValues | Sequence,
    k_grid: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    backend: Backend | str | None = None,
) -> SPoABatch:
    """Per-instance SPoA of ``policy`` on every ``(instance, k)`` cell.

    :func:`repro.core.spoa.spoa_instance` is its one-cell view.  The
    ``backend`` choice is forwarded to every sub-kernel.
    """
    be = resolve_backend(backend)
    padded = as_padded(values)
    ks = check_counts(k_grid, "k_grid")
    star = sigma_star_batch(padded, ks, backend=be)
    optimal = coverage_batch(padded, star.probabilities, ks, backend=be)
    # Reuse the closed-form solve for the equilibria of exclusive columns
    # instead of solving the same grid twice.
    equilibrium = ifd_batch(padded, ks, policy, closed_form=star, backend=be)
    eq_coverage = coverage_batch(padded, equilibrium.probabilities, ks, backend=be)
    positive = eq_coverage > 0
    ratios = np.where(positive, optimal / np.where(positive, eq_coverage, 1.0), np.inf)
    return SPoABatch(
        ratios=ratios,
        optimal_coverages=optimal,
        equilibrium_coverages=eq_coverage,
        k_grid=ks,
        padded=padded,
    )
