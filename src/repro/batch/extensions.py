"""Batched kernels for the model extensions: capacity-constrained coverage.

The paper's coverage assumes a single visitor consumes the full value of a
site (Section 5.1 lists relaxing this as future work).  Here each visitor
consumes at most ``1 / r(x)`` of site ``x``, so site ``x`` needs ``r(x)``
visitors to be fully exploited, and ``r == 1`` recovers the paper's
coverage.  :func:`capacity_coverage_batch` evaluates this coverage for a
whole ``(B, M)`` batch of strategy profiles in one pass through the shared
:func:`~repro.utils.numerics.binomial_pmf_tensor` — with per-row player
counts and per-row (or shared) visitor requirements — and
:func:`capacity_coverage_gradient_batch` returns the exact gradient for every
row.  The objective is concave in each ``p(x)``, so projected gradient
ascent on the gradient kernel finds its optimum (``tests/oracles.py`` runs
that ascent row-batched); there is no closed form in general.  A single
profile is the one-row call on ``f[None, :]``.

Like every batch kernel, the bodies are pure Array-API code on the backend
resolved through :mod:`repro.backend`, and results come back as host NumPy
arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import (
    Backend,
    asarray_float,
    from_numpy,
    is_native,
    resolve_backend,
    to_numpy,
)
from repro.batch.padding import PaddedValues
from repro.batch.payoffs import as_k_vector
from repro.batch.solvers import as_padded
from repro.utils.numerics import binomial_pmf_tensor
from repro.utils.validation import check_site_parameters

__all__ = [
    "as_requirements_batch",
    "capacity_coverage_batch",
    "capacity_coverage_gradient_batch",
]


def as_requirements_batch(
    requirements: np.ndarray | Sequence | int, batch_size: int, width: int
) -> np.ndarray:
    """Validate requirements into a host ``(B, M_max)`` integer matrix.

    Accepts a scalar (every site of every row), an ``(M_max,)`` vector
    (shared by every row) or a full ``(B, M_max)`` matrix.  Padding columns
    may carry any requirement ``>= 1``; they never contribute (their strategy
    mass is zero).  Entries follow the count rule of
    :func:`~repro.utils.validation.check_counts`: bools are refused and
    integral floats are accepted exactly (``1.5`` is refused, not truncated).
    """
    return check_site_parameters(
        requirements, "requirements", (batch_size, width), minimum=1, integer=True
    )


def capacity_coverage_batch(
    values: PaddedValues | Sequence | np.ndarray,
    strategies: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    requirements: np.ndarray | Sequence | int,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Capacity-constrained coverage for a whole batch of symmetric profiles.

    ``CapCover_b = sum_x f_b(x) * E[min(1, N_x / r_b(x))]`` with
    ``N_x ~ Binomial(k_b, p_b(x))``.

    Parameters
    ----------
    values:
        Instance batch (ragged ``M`` allowed; see
        :func:`~repro.batch.solvers.as_padded`).
    strategies:
        ``(B, M_max)`` strategy matrix riding on the padded batch (padding
        columns must carry zero probability).
    k:
        Player count — scalar or per-row ``(B,)`` vector.
    requirements:
        Visitors needed to fully consume each site: scalar, ``(M_max,)`` or
        ``(B, M_max)``.  ``r == 1`` recovers the paper's coverage exactly.
    backend:
        Array backend to compute on (``None`` = active backend).

    Returns
    -------
    numpy.ndarray
        ``(B,)`` coverage vector.
    """
    be = resolve_backend(backend)
    xp = be.xp
    native = is_native(be, strategies)
    padded = as_padded(values)
    ks = as_k_vector(k, padded.batch_size)
    P = padded.check_strategies(asarray_float(be, strategies))
    r = as_requirements_batch(requirements, padded.batch_size, padded.width)
    r_dev = from_numpy(be, r.astype(float), dtype=be.float_dtype)

    pmf = binomial_pmf_tensor(ks, P, backend=be)  # (B, M, k_max + 1)
    counts = xp.astype(xp.arange(pmf.shape[2], dtype=be.int_dtype), be.float_dtype)
    fractions = xp.minimum(
        xp.asarray(1.0, dtype=be.float_dtype), counts[None, None, :] / r_dev[:, :, None]
    )
    consumed = xp.sum(pmf * fractions, axis=2)  # (B, M)
    covered = xp.sum(padded.values_for(be) * consumed * padded.fmask_for(be), axis=1)
    return covered if native else to_numpy(covered)


def capacity_coverage_gradient_batch(
    values: PaddedValues | Sequence | np.ndarray,
    strategies: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    requirements: np.ndarray | Sequence | int,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Exact per-row gradient of :func:`capacity_coverage_batch` w.r.t. ``p``.

    Uses the binomial identity ``d/dp E[h(Bin(k, p))] = k * E[h(Bin(k-1, p)
    + 1) - h(Bin(k-1, p))]`` evaluated from the ``Binomial(k_b - 1, p_b)``
    PMFs — one tensor pass for the whole batch.  Rows with ``k_b = 1`` reduce
    to the deterministic single-visitor gradient.

    Returns the ``(B, M_max)`` gradient matrix (zero on padding columns).
    """
    be = resolve_backend(backend)
    xp = be.xp
    fdt = be.float_dtype
    native = is_native(be, strategies)
    padded = as_padded(values)
    ks = as_k_vector(k, padded.batch_size)
    P = padded.check_strategies(asarray_float(be, strategies))
    r = as_requirements_batch(requirements, padded.batch_size, padded.width)
    r_dev = from_numpy(be, r.astype(float), dtype=fdt)

    # Binomial(k_b - 1, p) PMFs, zero-padded per row (k_b = 1 rows collapse to
    # the deterministic j = 0 column).
    pmf = binomial_pmf_tensor(ks - 1, P, backend=be)  # (B, M, J)
    counts = xp.astype(xp.arange(pmf.shape[2], dtype=be.int_dtype), fdt)
    one = xp.asarray(1.0, dtype=fdt)
    h_plus = xp.minimum(one, (counts[None, None, :] + 1.0) / r_dev[:, :, None])
    h = xp.minimum(one, counts[None, None, :] / r_dev[:, :, None])
    increment = xp.sum(pmf * (h_plus - h), axis=2)  # (B, M)
    ksf = from_numpy(be, ks.astype(float), dtype=fdt)
    grad = ksf[:, None] * padded.values_for(be) * increment * padded.fmask_for(be)
    return grad if native else to_numpy(grad)
