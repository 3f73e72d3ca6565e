"""The water-filling solver behind every Ideal Free Distribution in the package.

Against ``k - 1`` opponents playing ``p``, a site's value in the dispersal
game with visiting costs ``d >= 0`` is ``nu_p(x) = f(x) * g(p(x)) - d(x)``,
where ``g(q) = E[C(1 + Binomial(k - 1, q))]`` (``d = 0`` is the plain game).
``g`` is the Bernstein polynomial of degree ``k - 1`` whose coefficients are
the congestion table ``C(1), ..., C(k)``; for a non-constant non-increasing
table it is strictly decreasing on ``(0, 1)``.  The IFD (= the unique
symmetric equilibrium, Observation 2) is found by water filling: for a
candidate payoff ``v`` every site takes the ``q`` that solves
``f g(q) - d = v`` (``0`` when even an empty site pays less, ``1`` when a site
visited by everyone still pays more), and ``v`` is tuned until the ``q`` sum
to one.

:func:`water_filling_batch` solves that for ``R`` independent rows at once,
each with its own player count, costs and congestion table.  Three kinds of
row have closed forms: ``k = 1`` (a point mass on the best site), a table
constant on ``{1..k}`` (uniform over the best sites) and ``k = 2``, where
``g(q) = C(1) - (C(1) - C(2)) q`` is linear, so each site's response is
linear in ``v`` between its clip points and the mass is solved exactly on
its sorted breakpoints.  Every other row runs under a fixed budget:

* ``g`` and ``g'`` come from :func:`bernstein_evaluator` (shared with the
  dynamics engine): de Casteljau's algorithm for degrees up to
  :data:`DE_CASTELJAU_MAX_DEGREE`, log-space binomial laws above.  Neither
  expands ``g`` in the power basis, whose alternating coefficients lose all
  precision past ``k ~ 30``;
* the outer solve narrows a bracket on the equilibrium payoff by 4-way
  multisection, :data:`OUTER_STEPS` steps of two bits: three candidates per
  row, solved as three stacked copies of the rows (rows past
  :data:`DE_CASTELJAU_MAX_DEGREE` bisect for :data:`BISECTION_STEPS` steps,
  so their ``O(k)`` pmf tensor does not triple).  At each candidate ``v``
  every site gets *checked* bounds
  ``lower <= q(v) <= upper``: bounds only ever move to points whose
  residual was evaluated, the search between them is Newton's method
  started from the end it cannot overshoot from, and a final pair of
  probes straddles the Newton point.  Because ``q(v)`` is monotone, the
  bounds kept at the bracket ends ``v_lo``/``v_hi`` bound every site at any
  ``v`` in between and seed every candidate of the next step;
* ``v_lo`` moves to the largest candidate whose lower bounds already carry
  mass one, ``v_hi`` to the smallest whose upper bounds carry less, so the
  bracket always holds the equilibrium whatever the Newton steps did.  A
  row that cannot tell any candidate's side yet keeps them and refines;
* both bracket ends are re-solved once at the end, and the strategy is the
  convex combination of their site vectors with mass exactly one, so every
  support site pays within the bracket (plus the bounds' slack) with no
  renormalisation;
* ``converged`` is the IFD conditions themselves, checked on the final
  strategy with one log-space binomial evaluation (the ``k = 2`` rows get
  the same check).

Every row is solved on its values and costs divided by the power of two
that brings its largest entry into ``[1/2, 1)``, and its payoffs are scaled
back.  Scaling by a power of two is exact, so an answer is the same bit for
bit in any power-of-two unit of value, and the solver's intermediate
payoffs cannot overflow.

No loop exits early and every reduction over the site axis is a sequential
(cumulative) sum, so a row's answer depends neither on the other rows (their
tables included) nor on its padding.  The one exception is an iterative row
(``k >= 3``): the largest ``k`` among those rows picks the ``g`` evaluator
and the width of the log-space sums.  Closed-form rows never depend on it.
:func:`ifd_batch`, :func:`repro.batch.mechanism.compare_policies_batch` (one
call per policy roster, grant-design rows included),
:func:`repro.batch.scenarios.cost_adjusted_ifd_batch` and
:func:`repro.core.ifd.ideal_free_distribution` are all thin callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.backend import Backend, errstate_ignore, from_numpy, resolve_backend, take_rows, to_numpy
from repro.batch.padding import PaddedValues
from repro.batch.payoffs import congestion_table_batch
from repro.batch.solvers import SigmaStarBatch, _sigma_star, as_padded
from repro.core.policies import CongestionPolicy
from repro.utils.memo import cached_binomial_pmf_plan
from repro.utils.numerics import binomial_pmf_tensor
from repro.utils.validation import check_counts

__all__ = ["IFDBatch", "WaterFilling", "bernstein_evaluator", "ifd_batch", "water_filling_batch"]

#: Outer multisection steps on the equilibrium payoff.  At two bits a step,
#: 23 shrink the bracket to ``2**-46`` of its width (the rounding floor of
#: the residuals); the rest absorb steps that had to refine their bounds.
OUTER_STEPS = 28
BISECTION_STEPS = 56  #: Outer steps of the log-space rows, which bisect (46 bits + slack).
#: Newton steps per site and outer step, between the two paired evaluations.
INNER_STEPS = 1
#: Newton steps of the final re-solve at both ends of the bracket.
POLISH_STEPS = 4
#: Relative rounding noise assumed in a payoff residual.
ROUNDING_ATOL = 1e-14
#: Highest ``k - 1`` evaluated by de Casteljau (``O(k**2)`` per point); larger
#: player counts use the ``O(k)`` log-space binomial laws.
DE_CASTELJAU_MAX_DEGREE = 24
#: Probability above which a site counts as part of the support.
SUPPORT_ATOL = 1e-12
#: Payoff tolerance of the IFD conditions behind ``converged`` (relative to
#: the payoff scale of the row, floored at one).  Rows are solved with their
#: largest value scaled into ``[1/2, 1)``, so the floor is relative to it.
CONVERGED_ATOL = 1e-9


@dataclass(frozen=True)
class WaterFilling:
    """Equilibria of ``R`` independent water-filling rows (host arrays).

    Attributes
    ----------
    probabilities:
        ``(R, M)`` equilibrium strategies; masked-out columns are zero.
    values:
        ``(R,)`` realised common payoffs (mean site value over the support).
    support_sizes:
        ``(R,)`` number of sites with probability above :data:`SUPPORT_ATOL`.
    converged:
        ``(R,)`` whether the strategy meets both IFD conditions within
        :data:`CONVERGED_ATOL`.
    closed_form:
        ``(R,)`` whether the row was resolved in closed form (``k = 1``,
        ``k = 2`` or a constant congestion table) rather than by the iteration.
    outer_steps:
        Outer steps the iteration ran (0 without iterative rows).
    """

    probabilities: np.ndarray
    values: np.ndarray
    support_sizes: np.ndarray
    converged: np.ndarray
    closed_form: np.ndarray
    outer_steps: int


def _row_sum(x, xp):
    """Sum over the site axis in index order (independent of trailing padding)."""
    return xp.cumulative_sum(x, axis=1)[:, -1]


class BernsteinEvaluator:
    """``g_b(q) = E[C_b(1 + Bin(n_b, q))]`` and ``g_b'(q)`` of a batch of rows.

    ``evaluate(q, rows=None, slope=True) -> (g, g')`` takes an ``(R', M)``
    backend array ``q`` for the host index vector ``rows`` (``None``: all
    rows); ``g'`` is ``None`` without ``slope`` and otherwise broadcasts
    against ``q``.  :meth:`restrict` stages a row subset once, for callers
    that evaluate the same subset many times.  A row's values never depend
    on the subset it is evaluated in.
    """

    def __init__(self, stage):
        self._stage = stage
        self._all = stage(None)

    def restrict(self, rows: np.ndarray | None):
        """``evaluate(q, slope=True)`` on the rows ``rows`` (``None``: all), staged once."""
        return self._all if rows is None else self._stage(rows)

    def __call__(self, q, rows: np.ndarray | None = None, slope: bool = True):
        return self.restrict(rows)(q, slope)


def bernstein_evaluator(tables: np.ndarray, degrees: np.ndarray, backend=None) -> BernsteinEvaluator:
    """The :class:`BernsteinEvaluator` of congestion tables ``tables``.

    ``tables`` are the host ``(R, W)`` congestion tables of
    :func:`~repro.batch.payoffs.congestion_table_batch`, ``degrees`` the host
    ``(R,)`` counts ``n_b < W``; both are staged once, here.  The largest
    ``n_b`` picks de Casteljau (up to :data:`DE_CASTELJAU_MAX_DEGREE`) or
    log-space binomial laws.
    """
    be = resolve_backend(backend)
    coeffs = np.asarray(tables, dtype=float)
    degrees = np.asarray(degrees, dtype=np.int64)
    if int(degrees.max()) <= DE_CASTELJAU_MAX_DEGREE:
        return BernsteinEvaluator(_de_casteljau(coeffs, degrees, be))
    return BernsteinEvaluator(_log_space(coeffs, degrees, be))


def _de_casteljau(coeffs: np.ndarray, degrees: np.ndarray, be: Backend):
    """``stage(rows) -> evaluate(q, slope=True)`` by de Casteljau (coefficient axis first).

    A row of degree ``n_b`` below the largest degree ``n`` of the rows
    evaluated sits out the first ``n - n_b`` levels, so its arithmetic is the
    same in any batch or subset.  A degree-zero row (the constant ``C(1)``) is
    run as degree one with two equal coefficients.
    """
    xp = be.xp
    fdt = be.float_dtype
    levels = np.maximum(degrees, 1)
    width = int(levels.max()) + 1
    padded = np.zeros((degrees.size, width))
    padded[:, : coeffs.shape[1]] = coeffs[:, :width]
    padded[degrees == 0, 1] = padded[degrees == 0, 0]
    by_row = from_numpy(be, padded[:, :, None], dtype=fdt)  # (R, W, 1)
    n_all = from_numpy(be, degrees[:, None].astype(float), dtype=fdt)

    def stage(rows):
        # The subset's top degree and the rows taking part in each level
        # 1 .. top - 1 (``None``: all of them).
        sub_levels = levels if rows is None else levels[rows]
        top = int(sub_levels.max())
        joins = sub_levels[None, :] >= np.arange(top, 1, -1)[:, None]
        schedule = [
            None if every else from_numpy(be, joined[:, None])
            for every, joined in zip(joins.all(axis=1), joins)
        ]
        b_top = xp.permute_dims(take_rows(be, by_row, rows), (1, 0, 2))[: top + 1]
        n = take_rows(be, n_all, rows)
        widths = {}  # b_top copied out to each width evaluated, with its differences

        def evaluate(q, slope=True):
            if q.shape[1] not in widths:
                b = xp.asarray(xp.broadcast_to(b_top, (top + 1, *q.shape)), copy=True)
                widths[q.shape[1]] = b, b[1:] - b[:-1]
            b, d = widths[q.shape[1]]
            for active in schedule:
                step = b[:-1] + q * d
                b = step if active is None else xp.where(active, step, b[:-1])
                d = b[1:] - b[:-1]
            return b[0] + q * d[0], (n * d[0] if slope else None)

        return evaluate

    return stage


def _log_space(coeffs: np.ndarray, degrees: np.ndarray, be: Backend):
    """``stage(rows) -> evaluate(q, slope=True)`` through log-space binomial laws.

    ``g(q) = sum_j C(j + 1) P[Bin(n, q) = j]`` and
    ``g'(q) = n sum_j (C(j + 2) - C(j + 1)) P[Bin(n - 1, q) = j]``.  A row
    subset keeps the full occupancy width.
    """
    xp = be.xp
    fdt = be.float_dtype
    lower = np.maximum(degrees - 1, 0)
    width = int(degrees.max()) + 1
    within = np.arange(width - 1)[None, :] < degrees[:, None]
    diffs = np.where(within, np.diff(coeffs[:, :width], axis=1), 0.0)
    table_all = from_numpy(be, coeffs[:, None, :width], dtype=fdt)
    slope_table_all = from_numpy(be, diffs[:, None, : int(lower.max()) + 1], dtype=fdt)
    n_all = from_numpy(be, degrees[:, None].astype(float), dtype=fdt)
    plan_all = cached_binomial_pmf_plan(degrees, backend=be)
    slope_plan_all = cached_binomial_pmf_plan(lower, backend=be)

    def subset(plan, rows):
        if rows is None:
            return plan
        return replace(
            plan,
            trials=plan.trials[rows],
            restf=take_rows(be, plan.restf, rows),
            log_coeffs=take_rows(be, plan.log_coeffs, rows),
        )

    def stage(rows):
        table, slope_table, n = (take_rows(be, a, rows) for a in (table_all, slope_table_all, n_all))
        plan, slope_plan = subset(plan_all, rows), subset(slope_plan_all, rows)

        def evaluate(q, slope=True):
            g = xp.sum(binomial_pmf_tensor(plan.trials, q, plan=plan) * table, axis=2)
            if not slope:
                return g, None
            slope_pmf = binomial_pmf_tensor(slope_plan.trials, q, plan=slope_plan)
            return g, n * xp.sum(slope_pmf * slope_table, axis=2)

        return evaluate

    return stage


def water_filling_batch(
    values: np.ndarray,
    costs: np.ndarray | None,
    k: np.ndarray,
    tables: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    backend: Backend | str | None = None,
) -> WaterFilling:
    """Solve ``f(x) * g_b(q_x) - d(x) = v_b``, ``sum_x q_x = 1`` for every row.

    Parameters
    ----------
    values:
        Host ``(R, M)`` positive site values; rows need not be sorted.
    costs:
        Host ``(R, M)`` non-negative visiting costs, or ``None`` for the plain
        game (``d = 0``).
    k:
        Host ``(R,)`` player counts, each ``>= 1``.
    tables:
        Host ``(R, W >= max(k))`` per-row congestion tables, as
        :func:`~repro.batch.payoffs.congestion_table_batch` builds them; rows
        may come from different policies (each validated by the caller).
    mask:
        Host ``(R, M)`` boolean matrix of real sites (``None``: all real).
        Masked-out columns get probability zero and never enter a support.
    backend:
        Array backend to compute on (``None`` = active backend).

    Returns
    -------
    WaterFilling
        Rows with ``k = 1`` are a point mass on the first best site (largest
        ``f - d``).  Rows whose congestion table is constant on
        ``{1..k}`` pay ``f - d`` whatever the others do; their mass spreads
        uniformly over the best sites.  Other rows with ``k = 2`` are solved
        exactly by :func:`_linear_water_filling`, and every other row
        numerically (see the module docstring).  ``converged`` is the IFD
        check on every row but those of the first two kinds.
    """
    be = resolve_backend(backend)
    xp = be.xp
    fdt = be.float_dtype
    f_host = np.asarray(values, dtype=float)
    r, m = f_host.shape
    d_host = np.zeros_like(f_host) if costs is None else np.asarray(costs, dtype=float)
    mask_host = np.ones((r, m), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    # Solve on the values and costs of each row divided by 2**e, e the binary
    # exponent of its largest entry (see the module docstring).
    largest = np.where(mask_host, np.maximum(np.abs(f_host), np.abs(d_host)), 0.0)
    exponent = np.frexp(largest.max(axis=1, initial=0.0))[1]
    f_host = np.ldexp(f_host, -exponent[:, None])
    d_host = np.ldexp(d_host, -exponent[:, None])
    ks = check_counts(k, "k", size=r)
    degrees = ks - 1
    tables_host = np.asarray(tables, dtype=float)
    if tables_host.ndim != 2 or tables_host.shape[0] != r or tables_host.shape[1] < ks.max():
        raise ValueError(f"tables {tables_host.shape} do not cover {r} rows up to k = {ks.max()}")
    width_mask = np.arange(tables_host.shape[1])[None, :] <= degrees[:, None]
    # Same test as np.allclose(table, table[0], atol=1e-12) row by row.
    flat_host = np.all(
        ~width_mask
        | (np.abs(tables_host - tables_host[:, :1]) <= 1e-12 + 1e-5 * np.abs(tables_host[:, :1])),
        axis=1,
    )
    solo_payoff = np.where(mask_host, f_host - d_host, -np.inf)
    best = solo_payoff.max(axis=1)

    # Closed forms: a point mass for k = 1, the best-site set for flat tables.
    top = (solo_payoff >= (best - 1e-12)[:, None]) & flat_host[:, None]
    top[ks == 1] = False
    top[np.flatnonzero(ks == 1), np.argmax(solo_payoff[ks == 1], axis=1)] = True
    support_sizes = top.sum(axis=1)
    probabilities = top / np.maximum(support_sizes, 1)[:, None]
    out_values = best.copy()
    converged = np.ones(r, dtype=bool)
    linear = ~flat_host & (ks == 2)
    closed = flat_host | linear

    def settle(rows, F, D, mask_dev, p, bound):
        """Store strategies ``p`` of ``rows`` with their realised payoffs and IFD check."""
        value, counts, ok = _ifd_check(
            p, F, D, mask_dev, tables_host[rows], degrees[rows], bound, be
        )
        probabilities[rows] = to_numpy(p)
        out_values[rows] = to_numpy(value)
        support_sizes[rows] = to_numpy(counts).astype(np.int64)
        converged[rows] = to_numpy(ok)

    def stage(rows):
        """Site values, costs and mask of ``rows`` on the backend."""
        return (
            from_numpy(be, f_host[rows], dtype=fdt),
            from_numpy(be, d_host[rows], dtype=fdt),
            from_numpy(be, mask_host[rows]),
        )

    if linear.any():
        # k = 2: g(q) = C(1) - (C(1) - C(2)) q is linear, so water filling is exact.
        rows = np.flatnonzero(linear)
        c1, c2 = tables_host[rows, :1], tables_host[rows, 1:2]
        v, p = _linear_water_filling(
            f_host[rows] * c1 - d_host[rows], f_host[rows] * (c1 - c2), mask_host[rows]
        )
        p, bound = from_numpy(be, p, dtype=fdt), from_numpy(be, np.abs(v), dtype=fdt)
        settle(rows, *stage(rows), p, bound)

    def solved(steps):
        values = np.ldexp(out_values, exponent)
        return WaterFilling(probabilities, values, support_sizes, converged, closed, steps)

    rows = np.flatnonzero(~closed)
    if rows.size == 0:
        return solved(0)

    sub_degrees = degrees[rows]
    sub_tables = tables_host[rows][:, : int(sub_degrees.max()) + 1]
    evaluator = bernstein_evaluator(sub_tables, sub_degrees, be)

    F, D, mask_dev = stage(rows)
    g_one = from_numpy(be, sub_tables[np.arange(rows.size), sub_degrees], dtype=fdt)
    zero = xp.asarray(0.0, dtype=fdt)
    neg_inf = xp.asarray(-np.inf, dtype=fdt)
    pos_inf = xp.asarray(np.inf, dtype=fdt)

    def stacked(copies):
        """``(site_bounds, idle, full)`` on ``copies`` stacked copies of the rows
        (copy ``c`` of row ``b`` is row ``c R + b``, with the arithmetic of ``b``)."""
        index = None if copies == 1 else np.tile(np.arange(rows.size), copies)
        f, d, mask, g1 = (take_rows(be, a, index) for a in (F, D, mask_dev, g_one))
        g_and_slope = evaluator.restrict(index)
        solo, crowded = f - d, f * g1[:, None] - d  # payoff when nobody else / everybody visits
        f2, d2 = xp.concat([f, f], axis=1), xp.concat([d, d], axis=1)

        def evaluate(q):
            """The triple ``(q, payoff, F g'(q))`` at ``(R, M)`` or paired ``(R, 2M)`` points."""
            fq, dq = (f, d) if q.shape[1] == m else (f2, d2)
            g, slope = g_and_slope(q)
            point = xp.empty((3, *q.shape), dtype=fdt)
            point[0], point[1], point[2] = q, fq * g - dq, fq * slope
            return point

        # A site bound is such a triple; every site starts from the
        # trivial bounds q = 0 and q = 1, evaluated once here.
        ends = evaluate(xp.concat([xp.zeros_like(f), xp.astype(mask, fdt)], axis=1))
        idle, full = ends[:, :, :m], ends[:, :, m:]

        def site_bounds(v, low, high, steps):
            """Checked bounds ``lower <= q(v) <= upper`` on every site.

            ``low``/``high`` must already be checked bounds at ``v`` (bounds
            at a larger, resp. smaller, ``v`` are).  Newton's method runs
            ``steps >= 1`` times from the end it cannot overshoot from (the
            lower one where ``g`` bends up, the upper one where it bends down;
            the other end, then the midpoint, when that step leaves the
            bounds), and a final pair of probes straddles its last point,
            twice its last step away but never closer than the rounding noise
            of a residual, nor further than halfway to a bound (so the bounds
            shrink even when Newton's method makes no progress).  Bounds only
            ever move to evaluated points, so they hold whatever Newton does.
            """
            v_col = v[:, None]
            active = mask & (solo > v_col)
            saturated = active & (crowded >= v_col)
            a, b = low[0], high[0]
            from_a = a - (low[1] - v_col) / low[2]
            from_b = b - (high[1] - v_col) / high[2]
            convex = high[2] >= low[2]
            first = xp.where(convex, from_a, from_b)
            second = xp.where(convex, from_b, from_a)
            first_ok = (first >= a) & (first <= b)
            second_ok = (second >= a) & (second <= b)
            q = xp.where(first_ok, first, xp.where(second_ok, second, 0.5 * (a + b)))
            for _ in range(steps):
                point = evaluate(q)
                above = point[1] > v_col  # q(v) lies above q
                low, high = xp.where(above, point, low), xp.where(above, high, point)
                a, b, slope = low[0], high[0], point[2]
                newton = q - (point[1] - v_col) / slope
                newton_ok = (newton >= a) & (newton <= b)
                step = xp.where(newton_ok, xp.abs(newton - q), zero)
                q = xp.where(newton_ok, newton, 0.5 * (a + b))
            reach = 2.0 * step + ROUNDING_ATOL * (f + xp.abs(d + v_col)) / xp.abs(slope)
            left = xp.maximum(q - reach, 0.5 * (a + q))
            probes = evaluate(xp.concat([left, xp.minimum(q + reach, 0.5 * (q + b))], axis=1))
            left, right = probes[:, :, :m], probes[:, :, m:]
            low = xp.where(right[1] > v_col, right, xp.where(left[1] > v_col, left, low))
            high = xp.where(left[1] <= v_col, left, xp.where(right[1] <= v_col, right, high))
            lower = xp.where(saturated, full, xp.where(active, low, idle))
            upper = xp.where(saturated, full, xp.where(active, high, idle))
            return lower, upper

        return site_bounds, idle, full

    # The bracket [v_lo, v_hi] always holds the equilibrium payoff: at_lo are
    # checked upper bounds of q(v_lo) with mass >= 1, at_hi checked lower
    # bounds of q(v_hi) with mass < 1, and both bound q(v) at any v between.
    # Each step tries C candidates at the (C + 1)-section points of the
    # bracket, candidate c on stacked copy c of the rows.  A candidate that
    # comes back unchanged (its row told no side) refines its own bounds.
    n = rows.size
    log_space = int(sub_degrees.max()) > DE_CASTELJAU_MAX_DEGREE
    sections, steps = (1, BISECTION_STEPS) if log_space else (3, OUTER_STEPS)
    polish_bounds, at_hi, at_lo = stacked(1)
    step_bounds, lower, upper = stacked(sections) if sections > 1 else (polish_bounds, at_hi, at_lo)
    spacing = from_numpy(be, np.arange(1, sections + 1)[:, None] / (sections + 1), dtype=fdt)
    v_hi = xp.max(xp.where(mask_dev, F - D, neg_inf), axis=1)
    v_lo = xp.min(xp.where(mask_dev, F * g_one[:, None] - D, pos_inf), axis=1)
    v = v_lo + spacing * (v_hi - v_lo)  # (C, R): candidate c of row b

    def tiled(end):
        return xp.concat([end] * sections, axis=1)

    hold = from_numpy(be, np.zeros((n * sections, 1), dtype=bool))
    # Newton steps divide by slopes that may vanish; site_bounds discards
    # whatever they produce outside the bounds.
    with errstate_ignore(be):
        for _ in range(steps):
            lower, upper = step_bounds(
                xp.reshape(v, (-1,)), xp.where(hold, lower, tiled(at_hi)),
                xp.where(hold, upper, tiled(at_lo)), INNER_STEPS,
            )
            # (C, R, 1) flags of ascending candidates: the largest growing one
            # moves v_lo, the smallest shrinking one v_hi.
            grow = xp.reshape(_row_sum(lower[0], xp) >= 1.0, (sections, n, 1))
            shrink = xp.reshape(_row_sum(upper[0], xp) < 1.0, (sections, n, 1))
            v_lo = xp.max(xp.where(grow[:, :, 0], v, v_lo), axis=0)  # v_lo <= v <= v_hi
            v_hi = xp.min(xp.where(shrink[:, :, 0], v, v_hi), axis=0)
            for j, i in zip(range(sections), reversed(range(sections))):
                at_lo = xp.where(grow[j], upper[:, j * n : (j + 1) * n], at_lo)
                at_hi = xp.where(shrink[i], lower[:, i * n : (i + 1) * n], at_hi)
            # A row whose bracket did not move gets the same candidates back.
            v, previous = v_lo + spacing * (v_hi - v_lo), v
            hold = xp.reshape(v == previous, (-1, 1))
        held = ~xp.any(grow | shrink, axis=0)

        # Re-solve both ends of the final bracket (an end set early keeps that
        # step's looser bounds), unless the row is still refining candidates.
        sharp_lo = polish_bounds(v_lo, at_hi, at_lo, POLISH_STEPS)[1][0]
        sharp_hi = polish_bounds(v_hi, at_hi, at_lo, POLISH_STEPS)[0][0]
    q_lo = xp.where(held, upper[0, :n], sharp_lo)
    q_hi = xp.where(held, lower[0, :n], sharp_hi)
    mass_lo, mass_hi = _row_sum(q_lo, xp), _row_sum(q_hi, xp)

    # Mass one exactly: mass_lo >= 1 > mass_hi, so t lies in [0, 1).  A
    # bracket that collapsed onto tied sites can leave both masses equal
    # (both one); the lower end then is the answer, with no division by 0.
    tied = mass_lo == mass_hi
    gap = xp.where(tied, xp.ones_like(mass_lo), mass_lo - mass_hi)
    t = xp.where(tied, xp.zeros_like(mass_lo), (mass_lo - 1.0) / gap)
    p = q_lo + t[:, None] * (q_hi - q_lo)

    settle(rows, F, D, mask_dev, p, xp.maximum(xp.abs(v_lo), xp.abs(v_hi)))
    return solved(steps)


def _linear_water_filling(s: np.ndarray, a: np.ndarray, mask: np.ndarray):
    """Exact water filling for ``k = 2`` rows: ``(v, q)`` as host arrays.

    Against one opponent a site pays ``s - a q`` with ``s = f C(1) - d`` and
    ``a = f (C(1) - C(2)) > 0``, so its response to the payoff ``v`` is
    ``q(v) = clip((s - v) / a, 0, 1)``.  The mass ``sum_x q_x(v)`` is then
    continuous, piecewise linear and non-increasing, with breakpoints where a
    site enters (``v = s_x``) and saturates (``v = s_x - a_x``).  Walking the
    sorted breakpoints down, prefix sums of the slope and intercept changes
    give the mass at each; ``v`` interpolates the piece on which it reaches
    one.  Each row is sorted and summed on its own, and masked columns sort
    last, so a row's answer depends neither on its batch nor on its padding.
    """
    r, m = s.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(mask, 1.0 / a, 0.0)
        ratio = np.where(mask, s * inv, 0.0)
        points = np.where(np.tile(mask, 2), np.concatenate([s, s - a], axis=1), -np.inf)
        order = np.argsort(-points, axis=1, kind="stable")

        def walk(enter, saturate):
            """Prefix sums, in breakpoint order, of per-site changes at entry and saturation."""
            changes = np.concatenate([enter, saturate], axis=1)
            return np.cumsum(np.take_along_axis(changes, order, axis=1), axis=1)

        points = np.take_along_axis(points, order, axis=1)
        mass = walk(ratio, np.where(mask, 1.0 - ratio, 0.0)) - points * walk(inv, -inv)
    # The mass is ~0 at the first breakpoint and the number of real sites at the
    # last one; rounding can only hide a crossing there.
    last = 2 * mask.sum(axis=1) - 1
    index = np.arange(2 * m)
    crossed = (mass >= 1.0) & (index >= 1) & (index <= last[:, None])
    end = np.where(crossed.any(axis=1), np.argmax(crossed, axis=1), last)
    row = np.arange(r)
    start = end - 1
    t = np.clip((mass[row, end] - 1.0) / (mass[row, end] - mass[row, start]), 0.0, 1.0)
    v = points[row, end] + t * (points[row, start] - points[row, end])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(mask, np.clip((s - v[:, None]) / a, 0.0, 1.0), 0.0)
    return v, q


def _ifd_check(p, F, D, mask, tables: np.ndarray, degrees: np.ndarray, bound, be: Backend):
    """Realised payoffs, support sizes and IFD conditions of strategies ``p``.

    One log-space binomial evaluation of the site values ``F g(p) - D``.  A
    row is ``converged`` when its support pays within :data:`CONVERGED_ATOL`
    (relative to ``max(bound, 1)``) of its mean, no other site pays more and
    its mass is one.  Returns backend ``(value, counts, ok)``.
    """
    xp = be.xp
    fdt = be.float_dtype
    zero = xp.asarray(0.0, dtype=fdt)
    neg_inf = xp.asarray(-np.inf, dtype=fdt)
    pos_inf = xp.asarray(np.inf, dtype=fdt)
    table = from_numpy(be, tables[:, None, : int(degrees.max()) + 1], dtype=fdt)
    pmf = binomial_pmf_tensor(degrees, p, plan=cached_binomial_pmf_plan(degrees, backend=be))
    nu = F * xp.sum(pmf * table, axis=2) - D
    support = mask & (p > SUPPORT_ATOL)
    counts = _row_sum(xp.astype(support, fdt), xp)
    value = _row_sum(xp.where(support, nu, zero), xp) / xp.maximum(counts, xp.ones_like(counts))
    spread = xp.max(xp.where(support, nu, neg_inf), axis=1) - xp.min(
        xp.where(support, nu, pos_inf), axis=1
    )
    advantage = xp.max(xp.where(mask & ~support, nu, neg_inf), axis=1) - value
    tol = CONVERGED_ATOL * xp.maximum(bound, xp.ones_like(bound))
    ok = (spread <= tol) & (advantage <= tol)
    return value, counts, ok & (xp.abs(_row_sum(p, xp) - 1.0) <= CONVERGED_ATOL)


@dataclass(frozen=True)
class IFDBatch:
    """The IFD of every ``(instance, k)`` cell of a grid.

    Attributes
    ----------
    probabilities:
        ``(B, K, M_max)`` equilibrium strategies; padding columns are zero.
    values:
        ``(B, K)`` equilibrium payoffs (realised support values).
    support_sizes:
        ``(B, K)`` support sizes.
    converged:
        ``(B, K)`` whether each cell meets the IFD conditions (always
        ``True`` on closed-form cells).
    k_grid, padded:
        Axes of the grid, as in :class:`~repro.batch.solvers.SigmaStarBatch`.

    All array attributes are host NumPy arrays whatever backend solved them.
    """

    probabilities: np.ndarray
    values: np.ndarray
    support_sizes: np.ndarray
    converged: np.ndarray
    k_grid: np.ndarray
    padded: PaddedValues


def ifd_batch(
    values: PaddedValues | Sequence,
    k_grid: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    use_closed_form: bool = True,
    closed_form: SigmaStarBatch | None = None,
    backend: Backend | str | None = None,
) -> IFDBatch:
    """Compute the IFD of every ``(instance, k)`` cell for one congestion policy.

    Exclusive-policy columns (``k > 1``) take the closed form
    :func:`~repro.batch.solvers.sigma_star_batch` unless ``use_closed_form``
    is false; every other cell becomes one row of a single
    :func:`water_filling_batch` call, so the ``k`` grid is never looped over.

    ``closed_form`` may supply an already-computed ``sigma_star_batch`` over
    the *same* instances and ``k`` grid, which the exclusive fast path then
    reuses instead of solving again (:func:`repro.batch.spoa.spoa_batch` does
    this).
    """
    be = resolve_backend(backend)
    padded = as_padded(values)
    ks = check_counts(k_grid, "k_grid")
    probabilities, eq_values, support_sizes, converged, _ = _roster_ifd(
        padded, ks, [policy], use_closed_form, closed_form, be
    )
    return IFDBatch(
        probabilities=probabilities[:, 0],
        values=eq_values[:, 0],
        support_sizes=support_sizes[:, 0],
        converged=converged[:, 0],
        k_grid=ks,
        padded=padded,
    )


def _roster_ifd(
    padded: PaddedValues,
    ks: np.ndarray,
    roster: Sequence[CongestionPolicy],
    use_closed_form: bool,
    closed_form: SigmaStarBatch | None,
    be: Backend,
    extra: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """``(B, P, K, ...)`` probabilities, payoffs, supports and ``converged`` of a roster.

    Exclusive cells (``k > 1``) take the closed form, reusing ``closed_form``
    when it covers the same instances and ``k`` grid.  Every other cell is a
    row of one :func:`water_filling_batch` call; the roster shares one ``k``
    grid, so each row is solved exactly as in a call for its policy alone.
    ``extra`` holds the ``(values, k, tables)`` of one more row per instance
    (on its mask, its policy validated by the caller), solved in the same
    call; their ``(B, M)`` strategies come back last (``None`` without them).
    """
    P, B, K, M = len(roster), padded.batch_size, ks.size, padded.width
    # Cell p * K + c of the flattened roster axis is policy p at k = ks[c].
    cell = np.arange(P * K)
    column = cell % K
    closed = np.array(
        [bool(use_closed_form) and k > 1 and p.is_exclusive(k) for p in roster for k in ks.tolist()]
    )
    reuse = (
        closed_form is not None
        and closed_form.padded is padded
        and np.array_equal(closed_form.k_grid, ks)
    )
    if closed.all() and extra is None:
        # Every cell is in closed form: the sigma_star arrays are the answer.
        star = closed_form if reuse else _sigma_star(padded, ks, be)
        return (
            np.repeat(star.probabilities[:, None], P, axis=1),
            np.repeat(star.equilibrium_values[:, None], P, axis=1),
            np.repeat(star.support_sizes[:, None], P, axis=1),
            np.ones((B, P, K), dtype=bool),
            None,
        )
    probabilities = np.zeros((B, P * K, M))
    values = np.zeros((B, P * K))
    support_sizes = np.zeros((B, P * K), dtype=np.int64)
    converged = np.ones((B, P * K), dtype=bool)

    if closed.any():
        solved_k = np.arange(K) if reuse else np.flatnonzero(closed.reshape(P, K).any(axis=0))
        star = closed_form if reuse else _sigma_star(padded, ks[solved_k], be)
        index = np.searchsorted(solved_k, column[closed])
        probabilities[:, closed] = star.probabilities[:, index]
        values[:, closed] = star.equilibrium_values[:, index]
        support_sizes[:, closed] = star.support_sizes[:, index]

    open_cells = ~closed
    c = int(open_cells.sum())
    extra_probabilities = None
    if c or extra is not None:
        owner = cell // K
        for i in sorted(set(owner[open_cells].tolist())):
            roster[i].validate(int(ks[column[open_cells & (owner == i)]].max()))
        tables = np.concatenate([congestion_table_batch(policy, ks - 1) for policy in roster])
        # Row (b, c) of the water-filling batch is instance b in open cell c;
        # the extra rows follow, one per instance.
        f = np.repeat(padded.values, c, axis=0)
        k_rows = np.tile(ks[column[open_cells]], B)
        table_rows = np.tile(tables[open_cells], (B, 1))
        mask = np.repeat(padded.mask, c, axis=0)
        if extra is not None:
            extra_f, extra_k, extra_tables = extra
            width = max(table_rows.shape[1], extra_tables.shape[1])
            f = np.concatenate([f, extra_f])
            k_rows = np.concatenate([k_rows, extra_k])
            table_rows = np.concatenate(
                [np.pad(t, ((0, 0), (0, width - t.shape[1]))) for t in (table_rows, extra_tables)]
            )
            mask = np.concatenate([mask, padded.mask])
        solved = water_filling_batch(f, None, k_rows, table_rows, mask=mask, backend=be)
        n = B * c
        probabilities[:, open_cells] = solved.probabilities[:n].reshape(B, c, M)
        values[:, open_cells] = solved.values[:n].reshape(B, c)
        support_sizes[:, open_cells] = solved.support_sizes[:n].reshape(B, c)
        converged[:, open_cells] = solved.converged[:n].reshape(B, c)
        if extra is not None:
            extra_probabilities = solved.probabilities[n:]
    grid = (B, P, K)
    values, support_sizes, converged = (a.reshape(grid) for a in (values, support_sizes, converged))
    return probabilities.reshape(*grid, M), values, support_sizes, converged, extra_probabilities
