"""Exact coverage-time distributions: batched Von Schelling kernels.

When ``k`` searchers each sample one site per round, i.i.d. from a
site-visit distribution ``p`` over ``M`` sites, the number of rounds ``T``
until every site has been visited at least once is the *generalized coupon
collector* time.  Von Schelling's inclusion-exclusion formula
(arXiv:1703.01886) gives its law exactly: for any subset ``J`` of sites the
probability that ``J`` is still untouched after ``t`` rounds is
``(1 - P(J))**(k*t)`` with ``P(J) = sum_{i in J} p_i``, so

* ``P(T <= t) = sum_J (-1)**|J| * (1 - P(J))**(k*t)``  (over all subsets,
  including the empty one);
* ``E[T]      = sum_{J != {}} (-1)**(|J|+1) / (1 - (1 - P(J))**k)``;
* the time ``T_j`` to cover any ``j`` of the ``M`` sites satisfies
  ``E[T_j] = sum_{|A| <= j-1} (-1)**(j-1-|A|) * C(M-|A|-1, j-1-|A|)
  / (1 - P(A)**k)`` (sum over the subsets ``A`` that may remain unvisited).

The kernels here evaluate those alternating sums for whole ``(B, M_max)``
batches of (ragged, zero-padded) visit distributions with per-row ``k``:

* :func:`coverage_time_cdf_batch` / :func:`expected_coverage_time_batch` /
  :func:`partial_coverage_time_batch` — the exact laws, Array-API-pure on
  the active backend.  Subset sums are built by iterative doubling (no
  ``(2**M, M)`` membership matrix), the alternating sums are evaluated as
  **signed log-sum-exp** (positive and negative subset terms are reduced in
  log space separately, so large ``M`` cannot overflow on the way to a
  finite answer), rows with a zero-probability real site are **where-masked
  to ``inf``** (CDF ``0``) without touching any divide, and exactly-uniform
  rows (including every ``M = 1`` row) take an ``O(M)`` closed-form merge —
  subset terms depend only on ``|J|``, with binomial weights — instead of
  the ``O(2**M)`` enumeration (``k = 1`` uniform expectations short-circuit
  further, to the classical harmonic values ``M * H_M`` and
  ``M * (H_M - H_{M-j})``, exact at any ``M``; the alternating forms are
  cancellation-limited in double precision around ``M ~ 50``);
* :func:`estimate_coverage_time_mc` — the Monte-Carlo cross-validator: it
  samples ``T`` itself by an exponential race (Poissonized draws make each
  site's first visit an independent exponential clock), at ``O(M)`` work
  per trial and with no inclusion-exclusion algebra shared with the exact
  kernels, so its sample mean and empirical CDF are an independent oracle.
  Censored trials are counted per row and poison the row's estimate to
  ``nan`` (a censored mean is biased low), so conformance tests can flag
  and exclude them explicitly.

The non-uniform enumeration is capped at ``max_sites`` real sites per row
(default :data:`DEFAULT_MAX_EXACT_SITES`) — both work and memory grow as
``2**M`` — while uniform rows merge in ``O(M)`` at any size.  Inputs are
validated host-side (:func:`as_visit_distribution_batch`); results are host
NumPy arrays, agreeing with the scalar ``B = 1`` wrappers of
:mod:`repro.search.coverage_times` and property-tested against a
brute-force subset-state dynamic program and the exponential-race
estimator in ``tests/test_coverage_times.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.backend import (
    Backend,
    expected_transfer,
    from_numpy,
    resolve_backend,
    to_numpy,
)
from repro.utils.validation import check_counts, check_positive_integer, check_probability_rows

__all__ = [
    "DEFAULT_MAX_EXACT_SITES",
    "CoverageTimeEstimate",
    "as_visit_distribution_batch",
    "coverage_time_cdf_batch",
    "expected_coverage_time_batch",
    "partial_coverage_time_batch",
    "estimate_coverage_time_mc",
]

#: Default cap on the number of real sites a *non-uniform* row may have:
#: the inclusion-exclusion enumerates ``2**M`` subset sums per row, so both
#: work and memory are exponential in ``M``.  Uniform rows are exempt (their
#: closed-form merge is ``O(M)``); raise ``max_sites`` explicitly to enumerate
#: larger non-uniform rows.
DEFAULT_MAX_EXACT_SITES = 16

#: Clip bounds keeping every logarithm finite: subset probabilities are
#: confined to ``[_TINY, 1 - _EDGE]`` before ``log``/``log1p``, which leaves
#: the degenerate endpoints (``P = 0``: never-visited, ``P = 1``: the full
#: set) with exactly the limit values the formulas require.
_TINY = 1e-300
_EDGE = 1e-16


# --------------------------------------------------------------------------
# staging
# --------------------------------------------------------------------------


def as_visit_distribution_batch(
    distributions: np.ndarray | Sequence[Any],
    sizes: Sequence[int] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a batch of site-visit distributions into host matrix + sizes.

    Parameters
    ----------
    distributions:
        A ``(B, M_max)`` probability matrix, or a length-``B`` sequence of
        1-D vectors / :class:`~repro.core.strategy.Strategy`-like objects
        (anything with ``as_array()`` or a ``prior`` attribute); ragged site
        counts allowed.
    sizes:
        Optional per-row real-site counts.  With matrix input the default is
        the full width; explicit sizes must not cut off positive mass
        (columns at or beyond a row's size are padding and must be zero).
        With ragged sequence input the sizes default to the row lengths — a
        trailing zero *inside* a row therefore counts as a real
        zero-probability site (the degenerate-row contract), not padding.
        Sizes follow the count rule: bools are refused and integral floats
        are accepted exactly (``2.9`` is refused, not truncated).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        A host ``(B, M_max)`` float matrix whose rows each sum to one over
        their real sites (padding columns exactly zero), and the ``(B,)``
        ``int64`` real-site counts.
    """
    return check_probability_rows(
        distributions, "visit distributions", sizes=sizes, normalize=True
    )


@lru_cache(maxsize=32)
def _subset_sizes(m: int) -> np.ndarray:
    """Popcounts of all ``2**m`` subset indices (doubling construction)."""
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        sizes = np.concatenate([sizes, sizes + 1])
    return sizes


@lru_cache(maxsize=128)
def _log_factorials(n: int) -> np.ndarray:
    """``log(i!)`` for ``i = 0..n`` (host, for binomial weights)."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=float)))])


def _log_binomial(n: int, j: np.ndarray) -> np.ndarray:
    """``log C(n, j)`` elementwise (``j`` within ``[0, n]``)."""
    lf = _log_factorials(n)
    j = np.asarray(j, dtype=np.int64)
    return lf[n] - lf[j] - lf[n - j]


def _resolve_max_sites(max_sites: int | None) -> int:
    if max_sites is None:
        return DEFAULT_MAX_EXACT_SITES
    return check_positive_integer(max_sites, "max_sites")


def _group_rows(
    probs: np.ndarray, counts: np.ndarray, max_sites: int
) -> list[tuple[int, bool, np.ndarray]]:
    """Partition rows by (real-site count, exactly-uniform?) for shared math.

    Exactly-uniform rows (all real entries equal — every ``M = 1`` row is)
    take the ``O(M)`` merge; the rest enumerate subsets, gated by
    ``max_sites``.
    """
    b, m_max = probs.shape
    columns = np.arange(m_max)[None, :]
    real = columns < counts[:, None]
    first = probs[:, :1]
    uniform = np.all(np.where(real, probs == first, True), axis=1)
    groups: list[tuple[int, bool, np.ndarray]] = []
    for m in sorted(set(counts.tolist())):
        of_size = counts == m
        for is_uniform in (True, False):
            rows = np.nonzero(of_size & (uniform == is_uniform))[0]
            if rows.size == 0:
                continue
            if not is_uniform and int(m) > max_sites:
                raise ValueError(
                    f"non-uniform rows with {int(m)} sites exceed max_sites="
                    f"{max_sites}: the Von Schelling enumeration is O(2**M); "
                    f"raise max_sites explicitly (memory grows as 2**M) or "
                    f"reduce the row"
                )
            groups.append((int(m), is_uniform, rows))
    return groups


# --------------------------------------------------------------------------
# device-side building blocks
# --------------------------------------------------------------------------


def _logsumexp(xp, logs, *, axis: int):
    """Plain log-sum-exp along ``axis`` (entries known finite)."""
    peak = xp.max(logs, axis=axis, keepdims=True)
    total = xp.sum(xp.exp(logs - peak), axis=axis)
    return xp.squeeze(peak, axis=axis) + xp.log(total)


def _subset_log_complements(xp, p_rows, m: int):
    """``log(1 - P(J))`` for all ``2**m`` subsets by iterative doubling.

    ``p_rows`` is a device ``(G, m)`` slice; the result is ``(G, 2**m)``
    with subset ``s``'s bit ``i`` marking membership of site ``i``.  Sums
    are clipped into ``[0, 1 - _EDGE]`` so the ``log1p`` stays finite even
    at the full set (where ``P = 1``).
    """
    sums = p_rows[:, :1] * 0.0  # (G, 1) zeros in the backend's dtype
    for index in range(m):
        sums = xp.concat([sums, sums + p_rows[:, index : index + 1]], axis=1)
    return xp.log1p(-xp.clip(sums, 0.0, 1.0 - _EDGE))


def _subset_log_sums(xp, p_rows, m: int):
    """``log(P(A))`` for all subsets (clipped into ``[_TINY, 1 - _EDGE]``)."""
    sums = p_rows[:, :1] * 0.0
    for index in range(m):
        sums = xp.concat([sums, sums + p_rows[:, index : index + 1]], axis=1)
    return xp.log(xp.clip(sums, _TINY, 1.0 - _EDGE))


def _log_denominators(xp, k_col, log_survive):
    """``log(1 - exp(k * log_survive))`` — the per-subset geometric rates.

    ``-expm1`` keeps tiny rates accurate; the clip keeps the outer ``log``
    finite when a rate underflows to zero.
    """
    return xp.log(xp.clip(-xp.expm1(k_col * log_survive), _TINY, None))


def _take_columns(xp, be, matrix, indices: np.ndarray):
    """Gather host-selected columns of a device ``(G, S)`` matrix."""
    with expected_transfer():  # static subset-index upload
        idx = from_numpy(be, indices.astype(np.int64), dtype=be.int_dtype)
    return xp.take(matrix, idx, axis=1)


# --------------------------------------------------------------------------
# exact kernels
# --------------------------------------------------------------------------


def expected_coverage_time_batch(
    distributions: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    *,
    sizes: Sequence[int] | np.ndarray | None = None,
    max_sites: int | None = None,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Exact expected full-coverage time ``E[T]`` for every row of a batch.

    ``E[T] = sum_{J != {}} (-1)**(|J|+1) / (1 - (1 - P(J))**k)`` per Von
    Schelling; rows with a zero-probability real site are where-masked to
    ``inf`` (coverage never completes), exactly-uniform rows (and every
    ``M = 1`` row) merge the subset sum by size into ``O(M)`` binomial
    terms, and the alternating sum is evaluated as a signed log-sum-exp.

    Parameters
    ----------
    distributions, sizes:
        The packed visit-distribution batch
        (see :func:`as_visit_distribution_batch`).
    k:
        Scalar or ``(B,)`` roster of per-round searcher counts (``>= 1``).
    max_sites:
        Cap on non-uniform rows' site counts
        (default :data:`DEFAULT_MAX_EXACT_SITES`); the enumeration is
        ``O(2**M)`` per row.

    Returns
    -------
    numpy.ndarray
        Host ``(B,)`` vector of expected rounds (``inf`` degenerate rows).
    """
    be = resolve_backend(backend)
    probs, counts = as_visit_distribution_batch(distributions, sizes)
    ks = check_counts(k, "k", size=probs.shape[0])
    result = np.full(probs.shape[0], np.inf)
    coverable = _positive_site_counts(probs) >= counts
    for m, is_uniform, rows in _group_rows(probs, counts, _resolve_max_sites(max_sites)):
        live = rows[coverable[rows]]
        if live.size == 0:
            continue
        if is_uniform:
            result[live] = _uniform_expected(be, m, ks[live])
        else:
            result[live] = _enumerated_expected(be, probs[live, :m], ks[live], m)
    return result


def coverage_time_cdf_batch(
    distributions: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    times: Sequence[int] | np.ndarray | int,
    *,
    sizes: Sequence[int] | np.ndarray | None = None,
    max_sites: int | None = None,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Exact full-coverage CDF ``P(T <= t)`` on a grid of round counts.

    ``P(T <= t) = sum_J (-1)**|J| * (1 - P(J))**(k*t)`` over *all* subsets
    (``t`` rounds of ``k`` i.i.d. draws are exactly ``k*t`` single draws).
    Degenerate rows (a zero-probability real site) report ``0`` at every
    horizon; results are clipped into ``[0, 1]``.

    Parameters
    ----------
    times:
        A non-negative integer or a 1-D grid of them.

    Returns
    -------
    numpy.ndarray
        Host ``(B,)`` for scalar ``times``, else ``(B, len(times))``.
    """
    be = resolve_backend(backend)
    probs, counts = as_visit_distribution_batch(distributions, sizes)
    ks = check_counts(k, "k", size=probs.shape[0])
    grid = check_counts(times, "times", minimum=0)
    result = np.zeros((probs.shape[0], grid.size))
    coverable = _positive_site_counts(probs) >= counts
    for m, is_uniform, rows in _group_rows(probs, counts, _resolve_max_sites(max_sites)):
        live = rows[coverable[rows]]
        if live.size == 0:
            continue
        if is_uniform:
            result[live, :] = _uniform_cdf(be, m, ks[live], grid)
        else:
            result[live, :] = _enumerated_cdf(be, probs[live, :m], ks[live], m, grid)
    return result[:, 0] if np.ndim(times) == 0 else result


def partial_coverage_time_batch(
    distributions: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    j: Sequence[int] | np.ndarray | int,
    *,
    sizes: Sequence[int] | np.ndarray | None = None,
    max_sites: int | None = None,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Exact expected time ``E[T_j]`` to cover any ``j`` of a row's sites.

    ``E[T_j] = sum_{|A| <= j-1} (-1)**(j-1-|A|) * C(M-|A|-1, j-1-|A|)
    / (1 - P(A)**k)`` — the sum runs over the candidate *unvisited* subsets
    ``A``.  Rows with fewer than ``j`` positive-probability sites are
    where-masked to ``inf``; ``j = M`` recovers
    :func:`expected_coverage_time_batch` and ``j = 1`` is identically ``1``.

    Parameters
    ----------
    j:
        Scalar or ``(B,)`` roster of coverage targets, ``1 <= j <= M_row``.

    Returns
    -------
    numpy.ndarray
        Host ``(B,)`` vector of expected rounds (``inf`` degenerate rows).
    """
    be = resolve_backend(backend)
    probs, counts = as_visit_distribution_batch(distributions, sizes)
    b = probs.shape[0]
    ks = check_counts(k, "k", size=b)
    # ``1 <= j <= M_row`` depends on the row, so it is checked here, whole.
    js = check_counts(j, "j", minimum=0, size=b)
    if np.any(js < 1) or np.any(js > counts):
        raise ValueError("coverage targets j must satisfy 1 <= j <= row size")
    result = np.full(b, np.inf)
    coverable = _positive_site_counts(probs) >= js
    for m, is_uniform, rows in _group_rows(probs, counts, _resolve_max_sites(max_sites)):
        live = rows[coverable[rows]]
        if live.size == 0:
            continue
        if is_uniform:
            result[live] = _uniform_partial(be, m, ks[live], js[live])
        else:
            result[live] = _enumerated_partial(be, probs[live, :m], ks[live], js[live], m)
    return result


def _positive_site_counts(probs: np.ndarray) -> np.ndarray:
    """Number of positive-probability sites per row (padding is zero)."""
    return (probs > 0).sum(axis=1)


# --------------------------------------------------------------------------
# enumerated (non-uniform) paths
# --------------------------------------------------------------------------


def _stage_group(be, p_rows: np.ndarray, ks: np.ndarray):
    with expected_transfer():  # group staging
        p_dev = from_numpy(be, p_rows, dtype=be.float_dtype)
        k_col = from_numpy(be, ks.astype(float)[:, None], dtype=be.float_dtype)
    return p_dev, k_col


def _enumerated_expected(be, p_rows: np.ndarray, ks: np.ndarray, m: int) -> np.ndarray:
    xp = be.xp
    p_dev, k_col = _stage_group(be, p_rows, ks)
    log_survive = _subset_log_complements(xp, p_dev, m)
    sizes = _subset_sizes(m)
    log_terms = -_log_denominators(xp, k_col, log_survive)
    positive = np.nonzero(sizes % 2 == 1)[0]
    negative = np.nonzero((sizes % 2 == 0) & (sizes > 0))[0]
    total = xp.exp(_logsumexp(xp, _take_columns(xp, be, log_terms, positive), axis=1))
    if negative.size:
        total = total - xp.exp(
            _logsumexp(xp, _take_columns(xp, be, log_terms, negative), axis=1)
        )
    with expected_transfer():  # result materialisation
        return np.asarray(to_numpy(total), dtype=float)


def _enumerated_cdf(
    be, p_rows: np.ndarray, ks: np.ndarray, m: int, grid: np.ndarray
) -> np.ndarray:
    xp = be.xp
    p_dev, k_col = _stage_group(be, p_rows, ks)
    log_survive = _subset_log_complements(xp, p_dev, m)
    sizes = _subset_sizes(m)
    positive = np.nonzero(sizes % 2 == 0)[0]  # includes the empty set
    negative = np.nonzero(sizes % 2 == 1)[0]
    pos_logs = _take_columns(xp, be, log_survive, positive)
    neg_logs = _take_columns(xp, be, log_survive, negative)
    out = np.zeros((p_rows.shape[0], grid.size))
    for column, t in enumerate(grid):
        kt = k_col * float(t)
        value = xp.exp(_logsumexp(xp, kt * pos_logs, axis=1)) - xp.exp(
            _logsumexp(xp, kt * neg_logs, axis=1)
        )
        with expected_transfer():  # per-horizon materialisation
            out[:, column] = np.asarray(to_numpy(value), dtype=float)
    return np.clip(out, 0.0, 1.0)


def _enumerated_partial(
    be, p_rows: np.ndarray, ks: np.ndarray, js: np.ndarray, m: int
) -> np.ndarray:
    xp = be.xp
    p_dev, k_col = _stage_group(be, p_rows, ks)
    log_sums = _subset_log_sums(xp, p_dev, m)
    log_terms = -_log_denominators(xp, k_col, log_sums)
    sizes = _subset_sizes(m)
    # Host-side signed binomial weights: w_j(a) = (-1)**(j-1-a) C(m-a-1, j-1-a)
    # for a <= j-1 (zero beyond), with the per-row j making the sign pattern
    # row-dependent — so the positive/negative split is staged as two
    # log-weight matrices (log 0 = -inf marks excluded subsets).
    g = p_rows.shape[0]
    log_w_pos = np.full((g, 2**m), -np.inf)
    log_w_neg = np.full((g, 2**m), -np.inf)
    for row, j in enumerate(js.astype(int)):
        allowed = sizes <= j - 1
        a = sizes[allowed]
        log_weight = _partial_log_weights(m, j, a)
        positive = (j - 1 - a) % 2 == 0
        cols = np.nonzero(allowed)[0]
        log_w_pos[row, cols[positive]] = log_weight[positive]
        log_w_neg[row, cols[~positive]] = log_weight[~positive]
    with expected_transfer():  # weight staging
        w_pos = from_numpy(be, log_w_pos, dtype=be.float_dtype)
        w_neg = from_numpy(be, log_w_neg, dtype=be.float_dtype)
    total = xp.exp(_masked_logsumexp(xp, be, log_terms + w_pos, axis=1))
    total = total - xp.exp(_masked_logsumexp(xp, be, log_terms + w_neg, axis=1))
    with expected_transfer():  # result materialisation
        return np.asarray(to_numpy(total), dtype=float)


def _partial_log_weights(m: int, j: int, a: np.ndarray) -> np.ndarray:
    """``log C(m-a-1, j-1-a)`` for the partial-coverage weights."""
    return np.asarray(
        [
            float(_log_binomial(m - int(ai) - 1, np.asarray([j - 1 - int(ai)]))[0])
            for ai in a
        ]
    )


def _masked_logsumexp(xp, be, logs, *, axis: int):
    """Log-sum-exp tolerating ``-inf`` entries and all-``-inf`` rows."""
    peak = xp.max(logs, axis=axis, keepdims=True)
    finite = xp.isfinite(peak)
    with expected_transfer():  # scalar constants
        zero = from_numpy(be, np.asarray(0.0), dtype=be.float_dtype)
        neg_inf = from_numpy(be, np.asarray(-np.inf), dtype=be.float_dtype)
    safe_peak = xp.where(finite, peak, zero)
    total = xp.sum(xp.exp(logs - safe_peak), axis=axis)
    safe_total = xp.clip(total, _TINY, None)
    return xp.where(
        xp.squeeze(finite, axis=axis),
        xp.squeeze(safe_peak, axis=axis) + xp.log(safe_total),
        neg_inf,
    )


# --------------------------------------------------------------------------
# uniform / M=1 closed-form merges
# --------------------------------------------------------------------------


def _uniform_staging(be, m: int, ks: np.ndarray):
    """Host constants of the uniform merge: subset terms depend only on |J|."""
    j = np.arange(m + 1, dtype=np.int64)
    log_choose = _log_binomial(m, j)
    log_survive = np.log1p(-np.clip(j / m, 0.0, 1.0 - _EDGE))
    with expected_transfer():  # group staging
        k_col = from_numpy(be, ks.astype(float)[:, None], dtype=be.float_dtype)
        choose = from_numpy(be, log_choose[None, :], dtype=be.float_dtype)
        survive = from_numpy(be, log_survive[None, :], dtype=be.float_dtype)
    return k_col, choose, survive


def _harmonic(m: int) -> float:
    """The ``m``-th harmonic number (host, for the ``k = 1`` merges)."""
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def _uniform_expected(be, m: int, ks: np.ndarray) -> np.ndarray:
    # k = 1 rows take the classical coupon-collector value m * H_m — exact
    # and cancellation-free at any M (the alternating form below loses all
    # precision around M ~ 50).
    out = np.full(ks.size, m * _harmonic(m))
    general = ks != 1
    if not np.any(general):
        return out
    xp = be.xp
    k_col, choose, survive = _uniform_staging(be, m, ks[general])
    log_terms = choose - _log_denominators(xp, k_col, survive)
    j = np.arange(m + 1)
    positive = np.nonzero(j % 2 == 1)[0]
    negative = np.nonzero((j % 2 == 0) & (j > 0))[0]
    total = xp.exp(_logsumexp(xp, _take_columns(xp, be, log_terms, positive), axis=1))
    if negative.size:
        total = total - xp.exp(
            _logsumexp(xp, _take_columns(xp, be, log_terms, negative), axis=1)
        )
    with expected_transfer():  # result materialisation
        out[general] = np.asarray(to_numpy(total), dtype=float)
    return out


def _uniform_cdf(be, m: int, ks: np.ndarray, grid: np.ndarray) -> np.ndarray:
    xp = be.xp
    k_col, choose, survive = _uniform_staging(be, m, ks)
    j = np.arange(m + 1)
    positive = np.nonzero(j % 2 == 0)[0]
    negative = np.nonzero(j % 2 == 1)[0]
    out = np.zeros((ks.size, grid.size))
    for column, t in enumerate(grid):
        logs = choose + (k_col * float(t)) * survive
        value = xp.exp(_logsumexp(xp, _take_columns(xp, be, logs, positive), axis=1))
        value = value - xp.exp(
            _logsumexp(xp, _take_columns(xp, be, logs, negative), axis=1)
        )
        with expected_transfer():  # per-horizon materialisation
            out[:, column] = np.asarray(to_numpy(value), dtype=float)
    return np.clip(out, 0.0, 1.0)


def _uniform_partial(be, m: int, ks: np.ndarray, js: np.ndarray) -> np.ndarray:
    # k = 1 rows: the first-j-coupons time is a sum of independent
    # geometrics, E[T_j] = m * (H_m - H_{m-j}) — exact at any M.
    out = np.asarray(
        [m * (_harmonic(m) - _harmonic(m - int(j))) for j in js], dtype=float
    )
    general = ks != 1
    if not np.any(general):
        return out
    ks, js = ks[general], js[general]
    xp = be.xp
    a = np.arange(m, dtype=np.int64)  # candidate unvisited-set sizes 0..m-1
    log_sums = np.log(np.clip(a / m, _TINY, 1.0 - _EDGE))
    g = ks.size
    log_w_pos = np.full((g, m), -np.inf)
    log_w_neg = np.full((g, m), -np.inf)
    for row, j in enumerate(js.astype(int)):
        allowed = a <= j - 1
        aa = a[allowed]
        log_weight = _partial_log_weights(m, j, aa) + _log_binomial(m, aa)
        positive = (j - 1 - aa) % 2 == 0
        cols = np.nonzero(allowed)[0]
        log_w_pos[row, cols[positive]] = log_weight[positive]
        log_w_neg[row, cols[~positive]] = log_weight[~positive]
    with expected_transfer():  # group staging
        k_col = from_numpy(be, ks.astype(float)[:, None], dtype=be.float_dtype)
        sums = from_numpy(be, log_sums[None, :], dtype=be.float_dtype)
        w_pos = from_numpy(be, log_w_pos, dtype=be.float_dtype)
        w_neg = from_numpy(be, log_w_neg, dtype=be.float_dtype)
    log_terms = -_log_denominators(xp, k_col, sums)
    total = xp.exp(_masked_logsumexp(xp, be, log_terms + w_pos, axis=1))
    total = total - xp.exp(_masked_logsumexp(xp, be, log_terms + w_neg, axis=1))
    with expected_transfer():  # result materialisation
        out[general] = np.asarray(to_numpy(total), dtype=float)
    return out


# --------------------------------------------------------------------------
# Monte-Carlo cross-validation by exponential race
# --------------------------------------------------------------------------


#: numpy's Poisson sampler refuses rates near ``2**63``; above this rate the
#: draw's relative spread (``< 1e-9``) is far below any Monte-Carlo
#: resolution, so its mean stands in.
_POISSON_LIMIT = 1e18


@dataclass(frozen=True)
class CoverageTimeEstimate:
    """Monte-Carlo coverage-time estimates from the exponential race.

    Attributes
    ----------
    n_trials, max_rounds, k:
        Simulation parameters (``k`` is the ``(B,)`` per-round draw roster).
    means, sems:
        ``(B,)`` sample means of the simulated ``T`` and their standard
        errors.  ``nan`` rows are either degenerate (coverage is impossible)
        or had censored trials — a censored mean is biased low, so flagged
        rows must be excluded from exact-vs-MC comparisons rather than
        averaged in.
    censored_counts:
        ``(B,)`` ``int64`` trials whose ``T`` exceeded ``max_rounds``
        (degenerate rows report ``n_trials``: every trial would censor).
    times, cdfs, cdf_sems:
        When a ``times`` grid was supplied: the grid, the ``(B, T)``
        empirical CDF ``P(T <= t)`` and its pointwise standard errors
        ``sqrt(F (1 - F) / n)`` (``nan`` rows as above); all three are
        ``None`` otherwise.
    """

    n_trials: int
    max_rounds: int
    k: np.ndarray
    means: np.ndarray
    sems: np.ndarray
    censored_counts: np.ndarray
    times: np.ndarray | None
    cdfs: np.ndarray | None
    cdf_sems: np.ndarray | None


def estimate_coverage_time_mc(
    distributions: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    n_trials: int,
    *,
    sizes: Sequence[int] | np.ndarray | None = None,
    times: Sequence[int] | np.ndarray | None = None,
    max_rounds: int = 100_000,
    rng: np.random.Generator | int | None = None,
    backend: Backend | str | None = None,
) -> CoverageTimeEstimate:
    """Sample coverage times ``T`` by an exponential race, ``O(M)`` per trial.

    Let the single draws arrive as a rate-1 Poisson process (Flajolet, Gardy
    & Thimonier 1992): site ``x`` is then first visited at an independent
    ``E_x ~ Exp(p_x)``, every site is covered at ``tau = max_x E_x``, and the
    draws made by then number ``D = M + Poisson(sum_x p_x (tau - E_x))`` —
    one first visit per site plus the repeat visits each site collects after
    its own.  ``D`` has exactly the law of the draws needed to cover all
    ``M`` sites, so ``T = ceil(D / k)`` rounds.  The estimator shares no
    algebra with the inclusion-exclusion kernels it checks.

    Exponentials and Poisson counts are drawn on the host from ``rng``
    (:func:`repro.utils.rng.as_generator`); the race's max and rate sum run
    on the active backend.  Censored or degenerate rows are flagged: see
    :class:`CoverageTimeEstimate`.
    """
    # Only this estimator draws; the exact laws (and the service) never need
    # the seed plumbing.
    from repro.utils.rng import as_generator

    n_trials = check_positive_integer(n_trials, "n_trials")
    max_rounds = check_positive_integer(max_rounds, "max_rounds")
    probs, counts = as_visit_distribution_batch(distributions, sizes)
    b = probs.shape[0]
    ks = check_counts(k, "k", size=b)
    grid = None if times is None else check_counts(times, "times", minimum=0)
    live = np.nonzero(_positive_site_counts(probs) >= counts)[0]

    be = resolve_backend(backend)
    xp = be.xp
    generator = as_generator(rng)
    unit = generator.standard_exponential((live.size, n_trials, probs.shape[1]))
    with expected_transfer():  # staging + the exponential block
        p_dev = from_numpy(be, probs[live][:, None, :], dtype=be.float_dtype)
        unit_dev = from_numpy(be, unit, dtype=be.float_dtype)
        zero = from_numpy(be, np.asarray(0.0), dtype=be.float_dtype)
    # Padding sites (p = 0) enter as E = 0 with zero rate; clipping p keeps
    # E finite, which only touches rows censored many times over anyway.
    first_visit = xp.where(p_dev > 0, unit_dev / xp.clip(p_dev, _TINY, None), zero)
    cover = xp.max(first_visit, axis=2, keepdims=True)
    rate = xp.sum(p_dev * (cover - first_visit), axis=2)
    with expected_transfer():  # rates back to the host sampler
        rate = np.asarray(to_numpy(rate), dtype=float)
    repeats = generator.poisson(np.minimum(rate, _POISSON_LIMIT))
    repeats = np.where(rate > _POISSON_LIMIT, rate, repeats)
    rounds = np.ceil((counts[live, None] + repeats) / ks[live, None])

    censored = np.full(b, n_trials, dtype=np.int64)
    censored[live] = (rounds > max_rounds).sum(axis=1)
    kept = censored[live] == 0
    clean, rounds = live[kept], rounds[kept]
    means = np.full(b, np.nan)
    sems = np.full(b, np.nan)
    means[clean] = rounds.mean(axis=1)
    sems[clean] = rounds.std(axis=1, ddof=1) / np.sqrt(n_trials) if n_trials > 1 else 0.0
    cdfs = cdf_sems = None
    if grid is not None:
        cdfs = np.full((b, grid.size), np.nan)
        cdf_sems = np.full((b, grid.size), np.nan)
        cdfs[clean] = (rounds[:, :, None] <= grid).mean(axis=1)
        cdf_sems[clean] = np.sqrt(cdfs[clean] * (1.0 - cdfs[clean]) / n_trials)
    return CoverageTimeEstimate(
        n_trials=n_trials,
        max_rounds=max_rounds,
        k=ks,
        means=means,
        sems=sems,
        censored_counts=censored,
        times=grid,
        cdfs=cdfs,
        cdf_sems=cdf_sems,
    )
