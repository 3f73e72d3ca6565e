"""Packing ragged collections of value profiles into padded matrices.

A batch of game instances rarely shares one site count ``M``.  The batch
solvers therefore operate on a :class:`PaddedValues`: all profiles stacked
into a single ``(B, M_max)`` matrix, short rows padded with their own smallest
value (so logarithms and negative powers stay finite) and a boolean mask
marking the real entries.  Padding never leaks into results — every solver
masks it out of support computations and zeroes it in returned strategies.

Packed profiles are sorted non-increasing; a ``(B, M)`` matrix keeps the
caller's order (see :attr:`PaddedValues.descending`).

``PaddedValues`` is deliberately a **host-side** container: packing ragged
Python iterables, validating positivity and sorting rows is staging work, not
kernel work, so the canonical storage is NumPy.  Kernels running on another
backend fetch device copies through :meth:`PaddedValues.values_for` /
:meth:`PaddedValues.mask_for`, which cache one transfer per backend so a grid
of kernel calls ships the batch to the device exactly once.

Thread-safety of the transfer cache
-----------------------------------
The per-backend cache is a plain dict keyed by ``(backend name, device, field)``.
The canonical host arrays are immutable (read-only flags), cached transfers
are pure functions of them, and dict get/set are single atomic bytecode
operations under the GIL — so concurrent readers (worker threads, or
requests held across asyncio event-loop turns by the serving scheduler) can
race at worst into building the *same* transfer twice, with last-writer-wins
on the slot; never into observing a partially built entry.  Long-lived
holders that migrate a batch off an accelerator can drop the cached copies
with :meth:`clear_device_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.backend import Backend, ensure_numpy, from_numpy
from repro.core.values import SiteValues
from repro.utils.validation import check_counts

__all__ = ["PaddedValues", "sorted_padded", "unsort_rows"]


@dataclass(frozen=True)
class PaddedValues:
    """A batch of ``B`` value profiles padded to a common width ``M_max``.

    Attributes
    ----------
    values:
        ``(B, M_max)`` float matrix; row ``b`` holds its ``sizes[b]`` site
        values, then padding (copies of its smallest value when packed by
        :meth:`from_instances`).
    sizes:
        ``(B,)`` integer vector of true site counts.
    mask:
        Read-only boolean ``(B, M_max)`` matrix; ``True`` on real sites.
    descending:
        Whether every row, padding included, is non-increasing (packed rows
        are; the closed-form solvers sort other rows and answer them in the
        caller's order).
    """

    values: np.ndarray
    sizes: np.ndarray
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    descending: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(ensure_numpy(self.values), dtype=float))
        if values.ndim != 2:
            raise ValueError("values must be a 2-D (B, M_max) matrix")
        sizes = np.ascontiguousarray(check_counts(self.sizes, "sizes", size=values.shape[0]))
        if (sizes > values.shape[1]).any():
            raise ValueError("sizes must lie in [1, M_max]")
        if values.size and not (values.min() > 0 and values.max() < np.inf):  # NaN fails too
            raise ValueError("site values (including padding) must be finite and strictly positive")
        mask = np.arange(values.shape[1])[None, :] < sizes[:, None]
        for name, array in (("values", values), ("sizes", sizes), ("mask", mask)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        # A rise in the padding too only sends the rows through a sort.
        object.__setattr__(self, "descending", not (values[:, 1:] > values[:, :-1]).any())
        object.__setattr__(self, "_device_cache", {})

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_instances(
        cls,
        instances: Iterable[SiteValues | Sequence[float] | np.ndarray],
        *,
        width: int | None = None,
    ) -> "PaddedValues":
        """Pack an iterable of value profiles (ragged ``M`` allowed).

        Raw arrays are routed through :class:`~repro.core.values.SiteValues`
        so they inherit its validation and non-increasing sort.  ``width``
        forces a padded width beyond the longest row: reduction trees over
        the site axis depend on the padded length, so callers that must get
        bit-identical results across different batchings of the same row
        (the serving scheduler) pin the width per request instead of letting
        it float with the batch.
        """
        rows = [
            (item if isinstance(item, SiteValues) else SiteValues.from_values(np.asarray(item)))
            .as_array()
            for item in instances
        ]
        if not rows:
            raise ValueError("cannot pack an empty batch of instances")
        longest = max(row.size for row in rows)
        if width is None:
            width = longest
        elif width < longest:
            raise ValueError(f"width={width} is narrower than the longest instance ({longest})")
        values = np.empty((len(rows), width), dtype=float)
        for index, row in enumerate(rows):
            values[index, : row.size] = row
            values[index, row.size :] = row[-1]
        return cls(values, np.array([row.size for row in rows], dtype=np.int64))

    # ----------------------------------------------------------------- basics
    @property
    def batch_size(self) -> int:
        """Number of instances ``B``."""
        return int(self.values.shape[0])

    @property
    def width(self) -> int:
        """Padded width ``M_max``."""
        return int(self.values.shape[1])

    # --------------------------------------------------------- device copies
    def _cached(self, backend: Backend, key: str, build) -> Any:
        """One transfer per ``(backend, device, field)``; NumPy short-circuits entirely."""
        cache = self._device_cache
        slot_key = (backend.name, str(backend.device), key)
        slot = cache.get(slot_key)
        if slot is None:
            slot = build()
            cache[slot_key] = slot
        return slot

    def values_for(self, backend: Backend) -> Any:
        """The ``(B, M_max)`` value matrix in ``backend``'s namespace (cached)."""
        if backend.is_numpy:
            return self.values
        return self._cached(
            backend, "values", lambda: from_numpy(backend, self.values, dtype=backend.float_dtype)
        )

    def mask_for(self, backend: Backend) -> Any:
        """The boolean validity mask in ``backend``'s namespace (cached)."""
        if backend.is_numpy:
            return self.mask
        return self._cached(backend, "mask", lambda: from_numpy(backend, self.mask))

    def fmask_for(self, backend: Backend) -> Any:
        """The validity mask as a float ``0/1`` matrix (cached; used as a multiplier)."""
        return self._cached(
            backend,
            "fmask",
            lambda: from_numpy(backend, self.mask.astype(float), dtype=backend.float_dtype),
        )

    def clear_device_cache(self) -> None:
        """Drop every cached per-backend transfer (host arrays are untouched).

        The cache repopulates lazily on the next ``*_for`` call; clearing is
        only needed by long-lived holders (e.g. a serving process) that want
        to release device memory for batches they are done with.
        """
        self._device_cache.clear()

    def row(self, index: int) -> SiteValues:
        """Recover instance ``index`` as a :class:`~repro.core.values.SiteValues`."""
        size = int(self.sizes[index])
        return SiteValues.from_values(self.values[index, :size])

    def check_strategies(self, strategies: Any) -> Any:
        """Return ``strategies`` after checking it holds one row per padded instance."""
        if tuple(strategies.shape) != self.values.shape:
            raise ValueError(
                f"strategies shape {tuple(strategies.shape)} must match the padded batch "
                f"{self.values.shape}"
            )
        return strategies

    def __len__(self) -> int:
        return self.batch_size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PaddedValues(B={self.batch_size}, M_max={self.width})"


def sorted_padded(
    values_matrix: np.ndarray, padded: PaddedValues
) -> tuple[PaddedValues, np.ndarray]:
    """Re-sort each row of a (strictly positive) value matrix non-increasing.

    Solvers assume padded rows are sorted; kernels that derive new per-site
    values mid-computation (expected leftovers, designed rewards, depleted
    tracks) re-pack them through this helper before re-entering a solver.
    Returns the re-padded batch (padding columns overwritten with each row's
    last real value, so :class:`PaddedValues` validation holds) plus the
    ``(B, M)`` sort permutation; :func:`unsort_rows` inverts it.  Padding
    positions sort last (their key is ``-inf``).
    """
    mask = padded.mask
    sort_key = np.where(mask, values_matrix, -np.inf)
    order = np.argsort(-sort_key, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values_matrix, order, axis=1)
    last_real = sorted_vals[np.arange(padded.batch_size), padded.sizes - 1]
    sorted_vals = np.where(mask, sorted_vals, last_real[:, None])
    return PaddedValues(sorted_vals, padded.sizes), order


def unsort_rows(sorted_matrix: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Scatter per-row results back to the pre-:func:`sorted_padded` order."""
    out = np.zeros_like(sorted_matrix)
    np.put_along_axis(out, order, sorted_matrix, axis=1)
    return out
