"""Batched payoff kernel: ``nu``, best responses and exploitability for whole batches.

This is the one implementation of ``g(q) = E[C(1 + Binomial(k - 1, q))]``
(Eq. 2): the scalar payoff calculus of :mod:`repro.core.payoffs` reaches it
as a one-row view of :func:`occupancy_congestion_factor_batch`.  The kernel
evaluates the formulas for ``B`` game states at once:

* strategies are ``(B, M_max)`` matrices riding on a
  :class:`~repro.batch.padding.PaddedValues` value batch (ragged ``M``
  allowed; padding columns carry zero probability and are zeroed in ``nu``);
* the player count is a scalar or a per-row ``(B,)`` vector, so one batch can
  mix instances of different ``k`` (``g_b(q) = E[C(1 + Binomial(k_b - 1,
  q))]`` comes from :func:`~repro.batch.ifd.bernstein_evaluator`, the IFD
  solver's evaluator);
* the congestion policy enters through a per-row table
  ``[C(1), ..., C(k_b)]`` broadcast as a ``(B, n_max + 1)`` matrix
  (:func:`congestion_table_batch`), which callers stepping many times — the
  :class:`~repro.batch.dynamics.DynamicsEngine` — precompute once.

Every kernel body is pure Array-API code on the backend resolved through
:mod:`repro.backend`; the policy tabulation is host-side staging.  Backend-native
strategy inputs produce backend-native ``nu`` outputs (the engine's hot
path); host inputs produce host NumPy outputs.

Every kernel refuses a probability outside ``[0, 1]`` (NaN included), focal
strategies too (:func:`~repro.utils.validation.check_unit_interval`), and
every one is tested against brute-force enumeration of the opponents' site
choices (``tests/test_batch_dynamics.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import (
    Backend,
    asarray_float,
    ensure_numpy,
    from_numpy,
    is_native,
    resolve_backend,
    to_numpy,
)
from repro.batch.padding import PaddedValues
from repro.batch.solvers import as_padded
from repro.core.policies import CongestionPolicy
from repro.utils.validation import check_counts, check_unit_interval

__all__ = [
    "as_k_vector",
    "congestion_table_batch",
    "occupancy_congestion_factor_batch",
    "site_values_batch",
    "expected_payoff_batch",
    "best_response_value_batch",
    "exploitability_batch",
]


def as_k_vector(k: Sequence[int] | np.ndarray | int, batch_size: int) -> np.ndarray:
    """A validated per-row ``(B,)`` player-count roster (``>= 1`` each).

    A scalar is broadcast to every row; a vector must have one entry per row.
    The rule is :func:`~repro.utils.validation.check_counts`: bools are
    refused and integral floats are accepted exactly.
    """
    return check_counts(k, "k", size=batch_size)


def congestion_table_batch(
    policy: CongestionPolicy, n_opponents: np.ndarray | int
) -> np.ndarray:
    """Per-row congestion tables ``[C(1), ..., C(n_b + 1)]`` as a ``(B, n_max + 1)`` matrix.

    Row ``b`` holds the table a player facing ``n_opponents[b]`` co-players
    needs; entries beyond its own width are exactly zero, matching the
    zero-padding of :func:`~repro.utils.numerics.binomial_pmf_tensor` so the
    two can be contracted along the occupancy axis for any mix of per-row
    player counts.

    Tabulating a policy is host-side staging (policies are Python objects);
    steppers transfer the result to their backend once and reuse it.
    """
    n = check_counts(n_opponents, "n_opponents", minimum=0)
    n_max = int(n.max())
    table = policy.table(n_max + 1)  # C(1), ..., C(n_max + 1)
    out = np.tile(table, (n.size, 1))
    out[np.arange(n_max + 1)[None, :] > n[:, None]] = 0.0
    return out


def occupancy_congestion_factor_batch(
    policy: CongestionPolicy,
    opponent_probabilities: np.ndarray,
    n_opponents: np.ndarray | int,
    *,
    tables: np.ndarray | None = None,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Expected congestion factors ``E[C(1 + Binomial(n_b, q))]`` for a whole batch.

    Parameters
    ----------
    policy:
        Congestion policy supplying ``C``.
    opponent_probabilities:
        ``(B, M)`` matrix; entry ``[b, x]`` is the probability that one
        opponent of row ``b`` selects site ``x``.  Entries outside
        ``[0, 1]`` by more than ``1e-12`` (or NaN) are refused.
    n_opponents:
        Number of independent opponents per row (scalar or ``(B,)``).
    tables:
        Optional precomputed :func:`congestion_table_batch` output (at least
        ``max(n_opponents) + 1`` wide; host or backend-native).
    backend:
        Array backend to compute on (``None`` = active backend).

    Returns
    -------
    ``(B, M)`` matrix from :func:`~repro.batch.ifd.bernstein_evaluator`;
    multiplying by ``f`` yields the batched ``nu``.  Backend-native when
    ``opponent_probabilities`` was backend-native, host NumPy otherwise.
    """
    from repro.batch.ifd import bernstein_evaluator  # repro.batch.ifd imports this module
    be = resolve_backend(backend)
    native = is_native(be, opponent_probabilities)
    q = asarray_float(be, opponent_probabilities)
    if q.ndim != 2:
        raise ValueError("opponent_probabilities must be a 2-D (B, M) matrix")
    check_unit_interval(q, "opponent probabilities", xp=be.xp)
    n = check_counts(n_opponents, "n_opponents", minimum=0, size=q.shape[0])
    tables = congestion_table_batch(policy, n) if tables is None else ensure_numpy(tables)
    if tables.shape[1] <= n.max():
        raise ValueError(
            f"congestion tables of width {tables.shape[1]} are too narrow for "
            f"occupancies up to {n.max() + 1}"
        )
    factor, _ = bernstein_evaluator(tables, n, be)(be.xp.clip(q, 0.0, 1.0), slope=False)
    return factor if native else to_numpy(factor)


def site_values_batch(
    values: PaddedValues | Sequence | np.ndarray,
    strategies: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    tables: np.ndarray | None = None,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Batched Eq. (2): ``nu_p(x)`` for every row's ``(f_b, p_b, k_b)`` at once.

    Padding columns come back exactly zero; callers that need a best response
    under negative payoffs must therefore mask with ``padded.mask`` rather
    than rely on the zeros (see :func:`best_response_value_batch`).
    """
    be = resolve_backend(backend)
    native = is_native(be, strategies)
    padded = as_padded(values)
    ks = as_k_vector(k, padded.batch_size)
    P = padded.check_strategies(asarray_float(be, strategies))
    factor = occupancy_congestion_factor_batch(
        policy, P, ks - 1, tables=tables, backend=be
    )
    if not is_native(be, factor):
        factor = from_numpy(be, factor, dtype=be.float_dtype)
    nu = padded.values_for(be) * factor * padded.fmask_for(be)
    return nu if native else to_numpy(nu)


def expected_payoff_batch(
    values: PaddedValues | Sequence | np.ndarray,
    focal: np.ndarray,
    opponents: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Batched ``E(focal; opponents^(k-1))``: one expected payoff per row."""
    be = resolve_backend(backend)
    xp = be.xp
    native = is_native(be, focal)
    rho = check_unit_interval(asarray_float(be, focal), "focal strategies", xp=xp)
    nu = site_values_batch(values, asarray_float(be, opponents), k, policy, backend=be)
    if tuple(rho.shape) != tuple(nu.shape):
        raise ValueError("focal strategies must match the padded batch shape")
    out = xp.sum(rho * nu, axis=1)
    return out if native else to_numpy(out)


def best_response_value_batch(
    values: PaddedValues | Sequence | np.ndarray,
    strategies: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Per-row best-response value ``max_x nu_p(x)`` (maximum over real sites only)."""
    be = resolve_backend(backend)
    xp = be.xp
    native = is_native(be, strategies)
    padded = as_padded(values)
    P = asarray_float(be, strategies)
    nu = site_values_batch(padded, P, k, policy, backend=be)
    neg_inf = xp.asarray(-xp.inf, dtype=be.float_dtype)
    best = xp.max(xp.where(padded.mask_for(be), nu, neg_inf), axis=1)
    return best if native else to_numpy(best)


def exploitability_batch(
    values: PaddedValues | Sequence | np.ndarray,
    strategies: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Per-row deviation gain ``max_x nu_p(x) - sum_x p(x) nu_p(x)``.

    One ``nu`` evaluation serves both terms (the batch analogue of the
    "compute ``nu`` once, derive best response *and* mean payoff from it"
    rule the dynamics steppers follow).  Zero exactly on the rows whose state
    is a symmetric equilibrium.
    """
    be = resolve_backend(backend)
    xp = be.xp
    native = is_native(be, strategies)
    padded = as_padded(values)
    P = asarray_float(be, strategies)
    nu = site_values_batch(padded, P, k, policy, backend=be)
    neg_inf = xp.asarray(-xp.inf, dtype=be.float_dtype)
    best = xp.max(xp.where(padded.mask_for(be), nu, neg_inf), axis=1)
    gap = best - xp.sum(P * nu, axis=1)
    return gap if native else to_numpy(gap)