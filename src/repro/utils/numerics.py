"""Numerical helper routines used throughout the library.

The functions here follow the vectorisation guidance of the scientific-Python
performance guides: array-level operations, broadcasting instead of Python
loops, and in-place updates where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.utils.validation import check_counts, check_unit_interval

__all__ = [
    "BinomialPmfPlan",
    "binomial_pmf_tensor",
    "is_non_increasing",
    "make_binomial_pmf_plan",
    "safe_power",
    "simplex_projection",
    "log_factorial",
]

#: Default absolute tolerance used by verification helpers across the library.
DEFAULT_ATOL = 1e-9


def is_non_increasing(values: Sequence[float] | np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Return ``True`` when ``values`` is non-increasing up to tolerance ``atol``."""
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return True
    return bool(np.all(np.diff(arr) <= atol))


def safe_power(base: np.ndarray | float, exponent: float) -> np.ndarray:
    """Compute ``base ** exponent`` for non-negative ``base`` without warnings.

    ``0 ** negative`` is mapped to ``+inf`` and ``0 ** 0`` to ``1`` which is the
    convention the closed-form IFD formulas rely on (a zero-valued site is
    never part of the support).
    """
    arr = np.atleast_1d(np.asarray(base, dtype=float))
    if np.any(arr < 0):
        raise ValueError("safe_power expects non-negative bases")
    out = np.empty_like(arr)
    positive = arr > 0
    out[positive] = np.power(arr[positive], exponent)
    if exponent < 0:
        out[~positive] = np.inf
    elif exponent == 0:
        out[~positive] = 1.0
    else:
        out[~positive] = 0.0
    if np.isscalar(base) or np.asarray(base).ndim == 0:
        return out.reshape(())
    return out


def log_factorial(n: int) -> np.ndarray:
    """Return an array ``lf`` with ``lf[i] = log(i!)`` for ``i = 0 .. n``.

    Each entry is an independent ``lgamma`` value, so the table stays
    accurate to a few ulp for large ``n`` (a running sum of logarithms would
    accumulate its rounding errors).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)], dtype=float)


#: Finite stand-in for ``log 0``: ``0 * LOG_ZERO == 0`` and ``exp`` of any
#: multiple of it underflows to exactly ``0``.
LOG_ZERO = -1e300


def _log_binomial_terms(xp, p, log_coeffs, jf, restf):
    """``log C(n, j) + j log p + (n - j) log(1 - p)`` with ``0 * log 0 = 0``."""
    one, zero, log_zero = xp.ones_like(p), xp.zeros_like(p), xp.full_like(p, LOG_ZERO)
    log_p = xp.where(p > 0, xp.log(xp.where(p > 0, p, one)), log_zero)
    log_q = xp.where(p < 1, xp.log1p(-xp.where(p < 1, p, zero)), log_zero)
    return log_coeffs + jf * log_p[..., None] + restf * log_q[..., None]


@dataclass(frozen=True)
class BinomialPmfPlan:
    """Precomputed constants for repeated :func:`binomial_pmf_tensor` calls.

    A plan freezes everything that depends only on the per-row trial counts
    and the backend — the log binomial coefficients and the exponent tables
    — as device-resident tensors, staged
    **once** under an expected-transfer boundary.  Hot loops (dynamics
    stepping) then call ``binomial_pmf_tensor(..., plan=plan)`` with zero
    per-call host transfers and zero host synchronisations, which also keeps
    the body traceable by graph compilers.
    """

    backend: Any
    trials: np.ndarray
    """Host ``(B,)`` trial counts the plan was built for."""
    n_max: int
    jf: Any
    """Device ``(1, 1, J)`` float exponents ``j``."""
    restf: Any
    """Device ``(B, 1, J)`` float exponents ``n_b - j`` (clipped at 0)."""
    log_coeffs: Any
    """Device ``(B, 1, J)`` ``log C(n_b, j)``, ``-inf`` where ``j > n_b``."""


def make_binomial_pmf_plan(
    n: np.ndarray | int, *, batch_size: int | None = None, backend=None
) -> BinomialPmfPlan:
    """Build a :class:`BinomialPmfPlan` for trial counts ``n``.

    ``n`` is a scalar or ``(B,)`` vector exactly as accepted by
    :func:`binomial_pmf_tensor`; a scalar requires ``batch_size`` to fix the
    row count.  All combinatorics run on the host (they are staging work) and
    the resulting tables are uploaded in a single expected-transfer block.
    """
    from repro.backend import expected_transfer, from_numpy, resolve_backend

    be = resolve_backend(backend)
    if np.ndim(n) == 0 and batch_size is None:
        raise ValueError("a scalar n requires batch_size")
    trials = np.ascontiguousarray(check_counts(n, "n", minimum=0, size=batch_size))
    n_max = int(trials.max(initial=0))

    j = np.arange(n_max + 1, dtype=np.int64)
    rest = np.clip(trials[:, None] - j[None, :], 0, None)
    valid = j[None, :] <= trials[:, None]
    lf = log_factorial(n_max)
    log_coeffs = np.where(valid, lf[trials][:, None] - lf[j][None, :] - lf[rest], -np.inf)

    fdt = be.float_dtype
    with expected_transfer():
        return BinomialPmfPlan(
            backend=be,
            trials=trials,
            n_max=n_max,
            jf=from_numpy(be, j.astype(float)[None, None, :], dtype=fdt),
            restf=from_numpy(be, rest.astype(float)[:, None, :], dtype=fdt),
            log_coeffs=from_numpy(be, log_coeffs[:, None, :], dtype=fdt),
        )


def binomial_pmf_tensor(
    n: np.ndarray | int,
    probs: np.ndarray,
    *,
    backend=None,
    plan: BinomialPmfPlan | None = None,
) -> np.ndarray:
    """Binomial PMFs for a *batch* of probability rows with per-row trial counts.

    Parameters
    ----------
    n:
        Number of trials per row: a scalar or a ``(B,)`` integer vector, every
        entry ``>= 0`` (host-side; per-row counts steer control flow).
    probs:
        ``(B, M)`` matrix of success probabilities (host array or an array
        native to the active backend).
    backend:
        Backend handle or name; ``None`` uses the active backend (see
        :mod:`repro.backend`).
    plan:
        Optional :class:`BinomialPmfPlan` built by
        :func:`make_binomial_pmf_plan` for the same ``n`` and backend.  With
        a plan the call performs no host transfers and no host
        synchronisations: the trial-count validation and the range check on
        ``probs`` are skipped (the caller vouches for both) and every
        constant comes from the plan's device tensors.

    Returns
    -------
    numpy.ndarray
        Tensor of shape ``(B, M, n_max + 1)``; entry ``[b, x, j]`` is
        ``P[Binomial(n[b], probs[b, x]) = j]`` for ``j <= n[b]`` and exactly
        zero beyond (rows with a smaller trial count are zero-padded, so the
        trailing axis can be contracted against any padded table).  Returned
        in the backend's namespace when ``probs`` was backend-native, as a
        host NumPy array otherwise.

    Notes
    -----
    This is the package's one binomial law (a single law is the one-row
    call ``binomial_pmf_tensor(n, q[None])[0]``): every term is summed in
    log space and exponentiated once (overflow-free for any ``n``, where
    ``C(n, j)`` alone exceeds the float range past ``n = 1029``), rows are
    never looped over in Python, and the body is pure Array-API code.
    Without a plan the call builds one and takes the plan path, so the two
    paths agree bit for bit.
    """
    from repro.backend import asarray_float, is_native, resolve_backend, to_numpy

    be = resolve_backend(backend) if plan is None else plan.backend
    xp = be.xp
    native = is_native(be, probs)
    P = asarray_float(be, probs)
    if P.ndim != 2:
        raise ValueError("probs must be a 2-D (B, M) matrix")

    if plan is None:
        trials = check_counts(n, "n", minimum=0, size=P.shape[0])
        check_unit_interval(P, "probs", xp=xp)
        plan = make_binomial_pmf_plan(trials, backend=be)

    P = xp.clip(P, 0.0, 1.0)
    if plan.n_max == 0:
        out = xp.ones((P.shape[0], P.shape[1], 1), dtype=be.float_dtype)
        return out if native else to_numpy(out)
    terms = _log_binomial_terms(xp, P, plan.log_coeffs, plan.jf, plan.restf)
    pmf = xp.exp(terms)
    row_sums = xp.sum(pmf, axis=2, keepdims=True)
    row_sums = xp.where(row_sums > 0, row_sums, xp.ones_like(row_sums))
    pmf = pmf / row_sums
    return pmf if native else to_numpy(pmf)


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the probability simplex (Euclidean projection).

    Implements the sort-based algorithm of Held, Wolfe & Crowder (1974) /
    Duchi et al. (2008).  Runs in ``O(M log M)``.
    """
    vec = np.asarray(v, dtype=float).ravel()
    if vec.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(vec)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, vec.size + 1)
    cond = u - (css - 1.0) / idx > 0
    if not np.any(cond):
        # Degenerate numerical case: fall back to uniform.
        return np.full_like(vec, 1.0 / vec.size)
    rho = np.nonzero(cond)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    out = np.maximum(vec - theta, 0.0)
    total = out.sum()
    if total <= 0:
        return np.full_like(vec, 1.0 / vec.size)
    return out / total
