"""Closed-form batch solvers for the exclusive policy and the coverage functional.

The solvers here are the one implementation of the paper's closed form
``sigma_star`` (Section 2.1), evaluated as ``(B, K, M)`` tensor passes: ``B``
instances (ragged site counts padded by
:class:`~repro.batch.padding.PaddedValues`), ``K`` player counts, ``M`` sites.
:func:`repro.core.sigma_star.sigma_star` and its siblings are views of one
``(instance, k)`` cell.

The support computation is shared across the ``k`` grid: one cumulative sum of
``f(x)^(-1/(k-1))`` per ``k`` column yields both the support condition
``h(y) <= 1`` and the normalisation constant ``alpha`` for every instance
simultaneously — no per-instance Python loops anywhere.

Every kernel body is pure Array-API code against the namespace resolved by
:func:`repro.backend.resolve_backend` (``numpy`` by default; see
:mod:`repro.backend`): the compute runs on whichever backend is active, and
the public results come back as host NumPy arrays — grid artifacts are host
objects by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.backend import (
    Backend,
    asarray_float,
    ensure_numpy,
    from_numpy,
    resolve_backend,
    to_numpy,
)
from repro.batch.padding import PaddedValues, sorted_padded
from repro.core.sigma_star import SigmaStarResult
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.validation import check_counts, check_value_vector

__all__ = [
    "SigmaStarBatch",
    "sigma_star_batch",
    "support_size_batch",
    "coverage_batch",
    "optimal_coverage_batch",
]

#: Numerical slack of the support condition ``h(y) <= 1``.
_SUPPORT_ATOL = 1e-12

#: Default ceiling on the number of (B, K, M) tensor elements materialised at
#: once; larger batches are processed in chunks of instances.
_DEFAULT_MAX_ELEMENTS = 1 << 24


def as_padded(values: PaddedValues | Sequence | np.ndarray) -> PaddedValues:
    """Coerce a batch argument into :class:`~repro.batch.padding.PaddedValues`.

    Arrays native to a non-NumPy backend are brought back to the host first —
    the padded container is host-canonical and re-ships device copies on
    demand (:meth:`~repro.batch.padding.PaddedValues.values_for`).
    """
    if isinstance(values, PaddedValues):
        return values
    if not isinstance(values, np.ndarray) and hasattr(values, "__array_namespace__"):
        values = ensure_numpy(values)
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return PaddedValues(values, np.full(values.shape[0], values.shape[1], dtype=np.int64))
    if isinstance(values, (SiteValues, np.ndarray)):
        values = [values]
    # Sorting a raw row here would leave per-site arrays riding on the batch
    # (strategies, requirements) in the caller's order, so it is refused.
    return PaddedValues.from_instances(
        row if isinstance(row, SiteValues)
        else check_value_vector(ensure_numpy(row), "raw value arrays", require_sorted=True)
        for row in values
    )


@dataclass(frozen=True)
class SigmaStarBatch:
    """Closed-form ``sigma_star`` for every ``(instance, k)`` pair of a grid.

    Attributes
    ----------
    probabilities:
        ``(B, K, M_max)`` strategy tensor; padding columns are exactly zero.
    support_sizes:
        ``(B, K)`` integer matrix of support prefix lengths ``W``.
    alpha:
        ``(B, K)`` normalisation constants.
    equilibrium_values:
        ``(B, K)`` equilibrium payoffs (``alpha**(k-1)``; ``f(1)`` for
        ``k = 1``; ``0`` for a single-site instance with several players).
    k_grid:
        The player counts of the ``K`` axis.
    padded:
        The packed instance batch of the ``B`` axis.

    All array attributes are host NumPy arrays whatever backend computed
    them (converted once at the kernel boundary).
    """

    probabilities: np.ndarray
    support_sizes: np.ndarray
    alpha: np.ndarray
    equilibrium_values: np.ndarray
    k_grid: np.ndarray
    padded: PaddedValues

    def result(self, instance: int, k_index: int) -> SigmaStarResult:
        """Hydrate one grid cell into the scalar :class:`SigmaStarResult`."""
        size = int(self.padded.sizes[instance])
        return SigmaStarResult(
            strategy=Strategy(self.probabilities[instance, k_index, :size]),
            support_size=int(self.support_sizes[instance, k_index]),
            alpha=float(self.alpha[instance, k_index]),
            equilibrium_value=float(self.equilibrium_values[instance, k_index]),
            k=int(self.k_grid[k_index]),
        )


def _int_power_columns(be: Backend, base, exponents: np.ndarray):
    """``base ** exponents`` per column, for host integer ``exponents >= 0``.

    Binary exponentiation over the bits of every column at once: at each bit
    the accumulator takes one more multiply by the current power where the
    bit is set (a bit every column shares is a plain multiply, one no column
    has is skipped), then the power is squared.  Plain multiplies are
    correctly rounded on every backend, so unlike ``**`` — whose inner-loop
    dispatch (and last-ulp rounding) can depend on how the operands are
    shaped and strided — the result is independent of the batch shape.  The
    serving layer's bit-identity contract relies on this for the equilibrium
    values.  Powers past a column's top bit may overflow; they are never
    selected.
    """
    xp = be.xp
    columns = exponents.tolist()
    top = max(columns).bit_length()
    bits = [[column >> bit & 1 == 1 for column in columns] for bit in range(top)]
    is_set, one = from_numpy(be, bits), xp.asarray(1.0, dtype=be.float_dtype)
    result = None
    with np.errstate(over="ignore"):
        for bit, chosen in enumerate(bits):
            if bit:
                base = base * base
            if any(chosen):
                factor = base if all(chosen) else xp.where(is_set[bit, :], base, one)
                result = factor if result is None else result * factor
    return xp.ones_like(base) if result is None else result


def _sigma_star_chunk(F, positions, neg_exponents, ks_host: np.ndarray, be: Backend):
    """Solve one chunk of instances for the whole k grid (pure Array-API body).

    ``positions`` holds real sites' 1-based positions (padding ``0``);
    ``neg_exponents`` is ``-1/(k-1)`` (``-1`` for ``k = 1``, overwritten).
    """
    xp = be.xp
    fdt = be.float_dtype
    M = F.shape[1]
    zero, one = xp.asarray(0.0, dtype=fdt), xp.asarray(1.0, dtype=fdt)
    # One log of the (B, M) value matrix is shared by the whole k grid, and
    # f^(1/(k-1)) is recovered as the reciprocal of f^(-1/(k-1)) — a single
    # transcendental pass over the (B, K, M) tensor instead of 2 K of them.
    inv_pow = xp.exp(xp.log(F)[:, None, :] * neg_exponents[None, :, None])  # f^(-1/(k-1))
    cumulative = xp.cumulative_sum(inv_pow, axis=2)
    # h(y) = y - f(y)^(1/(k-1)) * sum_{x<=y} f(x)^(-1/(k-1)); the support is
    # the last real position with h(y) <= 1 (1 when there is none).
    h = xp.arange(1, M + 1, dtype=fdt)[None, None, :] - cumulative / inv_pow
    first = xp.asarray(1, dtype=be.int_dtype)
    support = xp.max(xp.where(h <= 1.0 + _SUPPORT_ATOL, positions[:, None, :], first), axis=2)
    # k = 1: one player exploits the most valuable site, a single-site support.
    solo = from_numpy(be, ks_host == 1)[None, :] if 1 in ks_host.tolist() else None  # (1, K)
    if solo is not None:
        support = xp.where(solo, first, support)
    prefix = xp.arange(1, M + 1, dtype=be.int_dtype)[None, None, :] <= support[:, :, None]
    # The cumulative sum grows along the row, so its largest prefix entry is
    # the one at the support's end.
    alpha = xp.astype(support - 1, fdt) / xp.max(xp.where(prefix, cumulative, zero), axis=2)

    probabilities = xp.where(prefix, xp.maximum(1.0 - alpha[:, :, None] * inv_pow, zero), zero)
    totals = xp.sum(probabilities, axis=2)
    probabilities = probabilities / xp.where(totals > 0, totals, one)[:, :, None]

    # Single-site supports (alpha = 0): all mass on the top site, the prefix;
    # several colliding players earn zero, a lone one the top site's value.
    single = support == 1
    probabilities = xp.where(single[:, :, None], xp.astype(prefix, fdt), probabilities)
    equilibrium = xp.where(single, zero, _int_power_columns(be, alpha, ks_host - 1))
    if solo is not None:
        equilibrium = xp.where(solo, F[:, :1], equilibrium)
    return probabilities, support, alpha, equilibrium


def sigma_star_batch(
    values: PaddedValues | Sequence,
    k_grid: Sequence[int] | np.ndarray | int,
    *,
    max_elements: int = _DEFAULT_MAX_ELEMENTS,
    backend: Backend | str | None = None,
) -> SigmaStarBatch:
    """Solve ``sigma_star`` for a whole ``(instances x k-grid)`` in tensor passes.

    Parameters
    ----------
    values:
        A :class:`~repro.batch.padding.PaddedValues`, a 2-D matrix of equal-
        length profiles, or any iterable of profiles (ragged ``M`` allowed).
        Rows of a matrix that are not non-increasing are solved on a sorted
        copy and answered in the caller's site order.
    k_grid:
        Player counts to solve for (each ``>= 1``).
    max_elements:
        Peak-memory knob: instances are processed in chunks so no intermediate
        tensor exceeds roughly this many elements.
    backend:
        Array backend to compute on — a name, a resolved
        :class:`~repro.backend.Backend`, or ``None`` for the active one
        (see :func:`repro.backend.use_backend`).

    Returns
    -------
    SigmaStarBatch
        Strategies, supports, normalisation constants and equilibrium values
        for every ``(instance, k)`` cell.
    """
    return _sigma_star(
        as_padded(values), check_counts(k_grid, "k_grid"), resolve_backend(backend), max_elements
    )


def _sigma_star(
    padded: PaddedValues, ks: np.ndarray, be: Backend, max_elements: int = _DEFAULT_MAX_ELEMENTS
) -> SigmaStarBatch:
    """:func:`sigma_star_batch` on arguments its callers have already checked."""
    xp = be.xp
    if not padded.descending:
        ordered, order = sorted_padded(padded.values, padded)
        star = _sigma_star(ordered, ks, be, max_elements)
        inverse = np.argsort(order, axis=1)[:, None, :]
        probabilities = np.take_along_axis(star.probabilities, inverse, axis=2)
        return replace(star, probabilities=probabilities, padded=padded)
    B, M, K = padded.batch_size, padded.width, ks.size

    F = padded.values_for(be)
    index = xp.arange(1, M + 1, dtype=be.int_dtype)
    positions = xp.where(padded.mask_for(be), index[None, :], xp.asarray(0, dtype=be.int_dtype))
    denominators = [float(max(k - 1, 1)) for k in ks.tolist()]
    neg_exponents = -1.0 / from_numpy(be, denominators, dtype=be.float_dtype)

    chunk = max(1, int(max_elements // max(K * M, 1)))
    parts = []
    for start in range(0, B, chunk):
        stop = min(start + chunk, B)
        parts.append(
            _sigma_star_chunk(F[start:stop, :], positions[start:stop, :], neg_exponents, ks, be)
        )

    p, w, a, eq = parts[0] if len(parts) == 1 else (
        xp.concat([part[field] for part in parts], axis=0) for field in range(4)
    )

    return SigmaStarBatch(
        probabilities=to_numpy(p),
        support_sizes=to_numpy(w).astype(np.int64, copy=False),
        alpha=to_numpy(a),
        equilibrium_values=to_numpy(eq),
        k_grid=ks,
        padded=padded,
    )


def support_size_batch(
    values: PaddedValues | Sequence,
    k_grid: Sequence[int] | np.ndarray | int,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """The ``(B, K)`` matrix of ``sigma_star`` support sizes ``W``."""
    return sigma_star_batch(values, k_grid, backend=backend).support_sizes


def coverage_batch(
    values: PaddedValues | Sequence,
    strategies: np.ndarray,
    k_grid: Sequence[int] | np.ndarray | int,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Weighted coverage of every ``(instance, k)`` cell in one pass.

    Parameters
    ----------
    values:
        Instance batch (see :func:`sigma_star_batch`).
    strategies:
        Either a ``(B, K, M_max)`` tensor (one strategy per grid cell, e.g.
        ``SigmaStarBatch.probabilities``) or a ``(B, M_max)`` matrix (one
        strategy per instance, evaluated at every ``k``).
    k_grid:
        Player counts of the ``K`` axis.
    backend:
        Array backend to compute on (``None`` = active backend).

    Returns
    -------
    numpy.ndarray
        ``(B, K)`` matrix ``Cover(p) = sum_x f(x) * (1 - (1 - p(x))**k)``.
    """
    be = resolve_backend(backend)
    xp = be.xp
    padded = as_padded(values)
    ks = check_counts(k_grid, "k_grid")
    P = asarray_float(be, strategies)
    if P.ndim == 2:
        P = P[:, None, :]
    if P.shape[0] != padded.batch_size or P.shape[2] != padded.width:
        raise ValueError(
            f"strategies shape {tuple(P.shape)} incompatible with batch "
            f"({padded.batch_size}, {ks.size}, {padded.width})"
        )
    ksf = from_numpy(be, ks.astype(float), dtype=be.float_dtype)
    missed = (1.0 - P) ** ksf[None, :, None]
    zero = xp.asarray(0.0, dtype=be.float_dtype)
    real = xp.where(padded.mask_for(be), padded.values_for(be), zero)
    return to_numpy(xp.sum((1.0 - missed) * real[:, None, :], axis=2))


def optimal_coverage_batch(
    values: PaddedValues | Sequence,
    k_grid: Sequence[int] | np.ndarray | int,
    *,
    max_elements: int = _DEFAULT_MAX_ELEMENTS,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """``Cover(p_star)`` for every grid cell: the batched Theorem 4 optimum."""
    be = resolve_backend(backend)
    padded = as_padded(values)
    ks = check_counts(k_grid, "k_grid")
    star = _sigma_star(padded, ks, be, max_elements)
    return coverage_batch(padded, star.probabilities, ks, backend=be)
