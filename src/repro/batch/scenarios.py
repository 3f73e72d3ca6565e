"""Batched kernels for the Section-5 scenario extensions.

This module is the one implementation of the Section-5 scenario models
(travel costs, two-group competition, repeated dispersal); each kernel
solves whole instance batches at once, and a single instance is the
one-row call on ``f[None, :]``:

* :func:`cost_adjusted_ifd_batch` — the water-filling equilibrium of the
  travel-cost game for ``B`` instances with per-row cost vectors and per-row
  player counts;
* :func:`two_group_competition_batch` — both waves of the sequential
  two-group competition vectorised over a ``(B,)`` roster of policy pairs,
  reusing :func:`~repro.batch.ifd.ifd_batch` for the equilibria of each wave;
* :func:`repeated_dispersal_batch` — a ``T``-step depletion loop over
  ``(B, M)`` expected-value tensors under the constant and adaptive
  ``sigma_star`` schedules.

Capacity-constrained coverage lives in :mod:`repro.batch.extensions`.

The mechanism-design sweeps (Theorems 4-6) live in :mod:`repro.batch.mechanism`.

Conventions match the rest of :mod:`repro.batch`: instance batches ride on a
host-canonical :class:`~repro.batch.padding.PaddedValues` (rows sorted
non-increasing, padding masked out of every result), kernel bodies are pure
Array-API code on the backend resolved through :mod:`repro.backend`, and
public results come back as host NumPy arrays.  Because padded rows are
sorted, **per-site inputs (costs) align with the sorted site order** — cost
``costs[b, j]`` belongs to the ``j``-th most valuable site of row ``b``.

``tests/test_batch_scenarios.py`` checks every kernel against an independent
oracle of ``tests/oracles.py`` (brute-force IFD conditions, the one-row
expected-track recursion), including under ``array_api_strict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend import (
    Backend,
    ensure_numpy,
    from_numpy,
    resolve_backend,
    to_numpy,
)
from repro.batch.ifd import ifd_batch, water_filling_batch
from repro.batch.padding import PaddedValues, sorted_padded, unsort_rows
from repro.batch.payoffs import (
    as_k_vector,
    congestion_table_batch,
    occupancy_congestion_factor_batch,
)
from repro.batch.solvers import as_padded, sigma_star_batch
from repro.core.policies import CongestionPolicy
from repro.utils.validation import (
    check_positive_integer,
    check_probability_rows,
    check_site_parameters,
)

__all__ = [
    "CostAdjustedIFDBatch",
    "as_costs_batch",
    "cost_adjusted_site_values_batch",
    "cost_adjusted_ifd_batch",
    "TwoGroupCompetitionBatch",
    "two_group_competition_batch",
    "RepeatedDispersalBatch",
    "repeated_dispersal_batch",
]


# --------------------------------------------------------------------------
# travel costs
# --------------------------------------------------------------------------


def as_costs_batch(
    costs: np.ndarray | Sequence | float, padded: PaddedValues
) -> np.ndarray:
    """Validate visiting costs into a host ``(B, M_max)`` float matrix.

    Parameters
    ----------
    costs:
        A scalar (every site of every row), an ``(M_max,)`` vector (shared by
        every row) or a full ``(B, M_max)`` matrix.  Entries must be finite
        and non-negative on real (non-padding) sites; padding columns are
        forced to zero so they can never enter a support.
    padded:
        The instance batch the costs ride on.  Padded rows are sorted
        non-increasing, so per-site costs must follow the same order.

    Returns
    -------
    numpy.ndarray
        Host ``(B, M_max)`` cost matrix with zeroed padding columns.
    """
    return check_site_parameters(
        costs, "costs", (padded.batch_size, padded.width), mask=padded.mask
    )


@dataclass(frozen=True)
class CostAdjustedIFDBatch:
    """The cost-adjusted equilibrium of every instance of a batch.

    Attributes
    ----------
    probabilities:
        ``(B, M_max)`` equilibrium strategies; padding columns are zero.
    values:
        ``(B,)`` common net payoffs on the support (may be negative when
        every site is expensive).
    support_sizes:
        ``(B,)`` number of sites visited with positive probability.
    converged:
        ``(B,)`` whether each row meets the equilibrium conditions (always
        ``True`` on closed-form rows).
    k:
        ``(B,)`` per-row player counts.
    costs:
        The validated host ``(B, M_max)`` cost matrix the solve used.
    padded:
        The instance batch of the ``B`` axis.

    All array attributes are host NumPy arrays whatever backend solved them.
    """

    probabilities: np.ndarray
    values: np.ndarray
    support_sizes: np.ndarray
    converged: np.ndarray
    k: np.ndarray
    costs: np.ndarray
    padded: PaddedValues


def cost_adjusted_site_values_batch(
    values: PaddedValues | Sequence | np.ndarray,
    costs: np.ndarray | Sequence | float,
    strategies: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Batched net site values ``nu_p(x) = f(x) * g(p(x)) - d(x)``.

    One ``(B, M_max)`` pass for the whole batch, with per-row player counts.
    Padding columns come back exactly zero.

    Returns
    -------
    numpy.ndarray
        Host ``(B, M_max)`` matrix of net values.
    """
    be = resolve_backend(backend)
    padded = as_padded(values)
    ks = as_k_vector(k, padded.batch_size)
    d_host = as_costs_batch(costs, padded)
    p = padded.check_strategies(
        from_numpy(be, np.asarray(ensure_numpy(strategies), dtype=float), dtype=be.float_dtype)
    )
    g = occupancy_congestion_factor_batch(policy, p, ks - 1, backend=be)
    nu = padded.values_for(be) * g - from_numpy(be, d_host, dtype=be.float_dtype)
    return to_numpy(nu * padded.fmask_for(be))


def cost_adjusted_ifd_batch(
    values: PaddedValues | Sequence | np.ndarray,
    costs: np.ndarray | Sequence | float,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    backend: Backend | str | None = None,
) -> CostAdjustedIFDBatch:
    """Cost-adjusted symmetric equilibrium for a whole instance batch.

    One :func:`~repro.batch.ifd.water_filling_batch` call with per-row costs
    and player counts.  Players must pick some site (no staying-home
    option), so the equilibrium net payoff may be negative when every site
    is expensive.

    Parameters
    ----------
    values:
        Instance batch (ragged ``M`` allowed; see
        :func:`~repro.batch.solvers.as_padded`).
    costs:
        Visiting costs: scalar, ``(M_max,)`` or per-row ``(B, M_max)``,
        aligned with the **sorted** site order of the padded rows (see
        :func:`as_costs_batch`).
    k:
        Player count — scalar or per-row ``(B,)`` vector; one batch can mix
        instances of different ``k``.
    policy:
        Congestion policy shared by every row.
    backend:
        Array backend to compute on (``None`` = active backend).

    Returns
    -------
    CostAdjustedIFDBatch
        Rows with ``k_b = 1`` (point mass on ``argmax(f - d)``) and rows whose
        congestion table restricted to ``{1..k_b}`` is constant (mass spread
        over the argmax set of ``f - d``) are resolved in closed form.
    """
    padded = as_padded(values)
    ks = as_k_vector(k, padded.batch_size)
    policy.validate(int(ks.max()))
    d_host = as_costs_batch(costs, padded)
    solved = water_filling_batch(
        padded.values,
        d_host,
        ks,
        congestion_table_batch(policy, ks - 1),
        mask=padded.mask,
        backend=backend,
    )
    return CostAdjustedIFDBatch(
        probabilities=solved.probabilities,
        values=solved.values,
        support_sizes=solved.support_sizes,
        converged=solved.converged,
        k=ks,
        costs=d_host,
        padded=padded,
    )


# --------------------------------------------------------------------------
# two-group competition
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoGroupCompetitionBatch:
    """Outcomes of a batch of sequential two-group competitions.

    Attributes
    ----------
    first_consumption, second_consumption:
        ``(B,)`` expected total value consumed by each group.
    first_strategies, second_strategies:
        ``(B, M_max)`` equilibrium dispersal distributions (the second
        group's equilibrium is computed on the expected leftovers and
        reported in the original site order).
    first_individual_payoffs, second_individual_payoffs:
        ``(B,)`` expected equilibrium payoffs per group member.
    leftover_values:
        ``(B,)`` expected value remaining after both groups fed.
    k_first, k_second:
        ``(B,)`` group sizes.
    padded:
        The instance batch of the ``B`` axis.

    All array attributes are host NumPy arrays.
    """

    first_consumption: np.ndarray
    second_consumption: np.ndarray
    first_strategies: np.ndarray
    second_strategies: np.ndarray
    first_individual_payoffs: np.ndarray
    second_individual_payoffs: np.ndarray
    leftover_values: np.ndarray
    k_first: np.ndarray
    k_second: np.ndarray
    padded: PaddedValues

    @property
    def first_shares(self) -> np.ndarray:
        """``(B,)`` fraction of the consumed value captured by the first group."""
        total = self.first_consumption + self.second_consumption
        return np.where(total > 0, self.first_consumption / np.where(total > 0, total, 1.0), np.nan)


def _policy_roster(
    policies: CongestionPolicy | Sequence[CongestionPolicy], batch_size: int, name: str
) -> list[CongestionPolicy]:
    """Broadcast a single policy (or validate a per-row roster) to ``B`` rows."""
    if isinstance(policies, CongestionPolicy):
        return [policies] * batch_size
    roster = list(policies)
    if len(roster) != batch_size:
        raise ValueError(
            f"{name} roster has {len(roster)} policies for a batch of {batch_size}"
        )
    for policy in roster:
        if not isinstance(policy, CongestionPolicy):
            raise TypeError(f"{name} roster entries must be CongestionPolicy instances")
    return roster


def _grouped_ifd(
    padded: PaddedValues,
    ks: np.ndarray,
    roster: list[CongestionPolicy],
    be: Backend,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row IFD for a per-row policy roster, grouped into ``ifd_batch`` calls.

    Rows sharing a policy object are solved together (the grids a roster
    sweep builds repeat a handful of policy objects many times), each group
    solving its distinct ``k`` values as one :func:`ifd_batch` grid.
    """
    groups: dict[int, list[int]] = {}
    policies: dict[int, CongestionPolicy] = {}
    for row, policy in enumerate(roster):
        groups.setdefault(id(policy), []).append(row)
        policies[id(policy)] = policy
    probabilities = np.zeros(padded.values.shape)
    equilibrium_values = np.zeros(padded.batch_size)
    for key, rows in groups.items():
        rows_arr = np.asarray(rows, dtype=np.int64)
        sub = PaddedValues(padded.values[rows_arr], padded.sizes[rows_arr])
        unique_ks, columns = np.unique(ks[rows_arr], return_inverse=True)
        batch = ifd_batch(sub, unique_ks, policies[key], backend=be)
        take = np.arange(rows_arr.size)
        probabilities[rows_arr] = batch.probabilities[take, columns, :]
        equilibrium_values[rows_arr] = batch.values[take, columns]
    return probabilities, equilibrium_values


def two_group_competition_batch(
    values: PaddedValues | Sequence | np.ndarray,
    first_policies: CongestionPolicy | Sequence[CongestionPolicy],
    second_policies: CongestionPolicy | Sequence[CongestionPolicy],
    k_first: Sequence[int] | np.ndarray | int,
    k_second: Sequence[int] | np.ndarray | int | None = None,
    *,
    backend: Backend | str | None = None,
) -> TwoGroupCompetitionBatch:
    """Sequential two-group competition for a whole batch of matchups.

    The patch set is exploited in two waves: the first group disperses at
    the symmetric equilibrium (IFD) of its own congestion rule and removes
    the value of every patch it visits; the second group then disperses at
    the IFD of its own rule over the expected leftovers
    ``f(x) * (1 - P[first group visits x])``.  Row ``b`` plays
    ``first_policies[b]`` against ``second_policies[b]`` on instance ``b``
    with group sizes ``k_first[b]`` / ``k_second[b]``; a raw ``(B, M)``
    matrix is answered in its own site order.  Both
    waves are solved through :func:`~repro.batch.ifd.ifd_batch` (rows are
    grouped by policy object, so a roster built from a handful of policies
    costs a handful of batched solves, not ``B`` scalar ones), and the
    expected-leftover bookkeeping between the waves is vectorised over the
    batch.

    Parameters
    ----------
    values:
        Instance batch (ragged ``M`` allowed).
    first_policies, second_policies:
        One policy for every row, or a ``(B,)`` roster of policy objects.
    k_first, k_second:
        Group sizes — scalars or per-row ``(B,)`` vectors (``k_second``
        defaults to ``k_first``).
    backend:
        Array backend forwarded to the wave solvers.

    Returns
    -------
    TwoGroupCompetitionBatch
        One row per matchup.
    """
    be = resolve_backend(backend)
    padded = as_padded(values)
    b, m = padded.batch_size, padded.width
    ks1 = as_k_vector(k_first, b)
    ks2 = ks1 if k_second is None else as_k_vector(k_second, b)
    first = _policy_roster(first_policies, b, "first_policies")
    second = _policy_roster(second_policies, b, "second_policies")

    f_host = padded.values
    mask = padded.mask

    # First wave on the full values, each row solved in the paper's site order
    # (a (B, M) matrix may come in any order) and reported in its own.
    padded1, order1 = sorted_padded(f_host, padded)
    p1_sorted, v1 = _grouped_ifd(padded1, ks1, first, be)
    p1 = unsort_rows(p1_sorted, order1)
    visit1 = 1.0 - (1.0 - p1) ** ks1[:, None].astype(float)
    first_consumption = np.sum(f_host * visit1 * mask, axis=1)

    # Expected leftovers define the second wave's game; clamp to the scalar
    # model's tiny floor (the solver needs positive values) and re-sort each
    # row non-increasing so the padded batch honours the solver convention.
    leftovers = np.maximum(f_host * (1.0 - visit1), 1e-12)
    padded2, order = sorted_padded(leftovers, padded)
    p2_sorted, v2 = _grouped_ifd(padded2, ks2, second, be)
    p2 = unsort_rows(p2_sorted, order)

    visit2 = 1.0 - (1.0 - p2) ** ks2[:, None].astype(float)
    second_consumption = np.sum(leftovers * visit2 * mask, axis=1)
    leftover_values = np.sum(leftovers * (1.0 - visit2) * mask, axis=1)

    return TwoGroupCompetitionBatch(
        first_consumption=first_consumption,
        second_consumption=second_consumption,
        first_strategies=p1,
        second_strategies=p2,
        first_individual_payoffs=v1,
        second_individual_payoffs=v2,
        leftover_values=leftover_values,
        k_first=ks1,
        k_second=ks2,
        padded=padded,
    )


# --------------------------------------------------------------------------
# repeated dispersal with depletion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RepeatedDispersalBatch:
    """Expected outcomes of a batch of repeated-dispersal horizons.

    Attributes
    ----------
    per_round_consumption:
        ``(B, T)`` expected group consumption per round.
    cumulative_consumption:
        ``(B,)`` expected total consumption across the horizon.
    remaining_values:
        ``(B,)`` expected value left in the environment after the last round.
    final_strategies:
        ``(B, M_max)`` strategy played in the last round.
    rounds:
        Horizon length ``T``.
    k, depletion:
        ``(B,)`` per-row player counts and depletion factors.
    schedule:
        The schedule mode the batch ran (``"constant"`` or ``"adaptive"``).
    padded:
        The instance batch.
    """

    per_round_consumption: np.ndarray
    cumulative_consumption: np.ndarray
    remaining_values: np.ndarray
    final_strategies: np.ndarray
    rounds: int
    k: np.ndarray
    depletion: np.ndarray
    schedule: str
    padded: PaddedValues


def _sigma_star_rows(remaining: np.ndarray, padded: PaddedValues, ks: np.ndarray, be: Backend, floor: float) -> np.ndarray:
    """Per-row ``sigma_star`` on the current expected remaining values.

    Clamps to ``floor`` (sites depleted to numerically zero leave the
    support) and solves the closed form, which answers each row in its own
    site order.  Mixed per-row ``k`` is
    handled by solving the distinct player counts as one
    ``sigma_star_batch`` grid and gathering each row's column.
    """
    clamped = PaddedValues(np.maximum(remaining, floor), padded.sizes)
    unique_ks, columns = np.unique(ks, return_inverse=True)
    star = sigma_star_batch(clamped, unique_ks, backend=be)
    return star.probabilities[np.arange(padded.batch_size), columns, :]


def repeated_dispersal_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    *,
    rounds: int = 5,
    depletion: np.ndarray | Sequence | float = 0.0,
    schedule: str = "adaptive",
    strategies: np.ndarray | None = None,
    floor: float = 1e-9,
    backend: Backend | str | None = None,
) -> RepeatedDispersalBatch:
    """Expected ``T``-round depletion dynamics for a whole instance batch.

    The one-shot game is played for ``T`` rounds over the same patches, and
    a visited patch keeps the ``depletion`` fraction of its value.  Players
    cannot condition on the realised outcomes of others, so the schedule
    sees only the deterministic *expected* remaining values.  Per round,
    every patch is visited with probability ``1 - (1 - p)**k_b``, consumed
    values are accumulated and remaining values decay by the per-row
    ``depletion`` factor.  Because consumption is linear in the remaining
    values and round choices are independent, this expected track is exact
    — it equals the ``n_trials -> inf`` limit of simulating the rounds.

    Parameters
    ----------
    values, k:
        Instance batch and per-row (or scalar) player counts.
    rounds:
        Horizon length ``T``.
    depletion:
        Fraction of a visited patch's value that survives a visit — scalar or
        per-row ``(B,)`` vector in ``[0, 1)`` (``0`` = fully consumed).
    schedule:
        ``"adaptive"`` re-solves ``sigma_star`` on the expected remaining
        values before every round (the greedy multi-round extension of the
        paper's analysis); ``"constant"`` plays one fixed strategy every
        round.
    strategies:
        The fixed ``(B, M_max)`` strategy matrix of the ``"constant"``
        schedule; ``None`` solves ``sigma_star`` on the initial values once
        and holds it fixed.
    floor:
        Clamp applied to depleted values before the adaptive re-solve.
    backend:
        Array backend the per-round kernels run on.

    Returns
    -------
    RepeatedDispersalBatch
        Elementwise equal to the one-row expected-track recursion of
        ``tests/oracles.py`` (property-tested, including the
        ``depletion == 0`` full-consumption case).
    """
    be = resolve_backend(backend)
    xp = be.xp
    fdt = be.float_dtype
    padded = as_padded(values)
    b = padded.batch_size
    ks = as_k_vector(k, b)
    rounds = check_positive_integer(rounds, "rounds")
    depletion_vec = check_site_parameters(depletion, "depletion", (b,), below=1.0)
    if schedule not in ("adaptive", "constant"):
        raise ValueError(f"schedule must be 'adaptive' or 'constant', got {schedule!r}")

    fixed = None
    if schedule == "constant":
        if strategies is None:
            fixed = _sigma_star_rows(padded.values, padded, ks, be, floor)
        else:
            fixed, _ = check_probability_rows(
                strategies, "strategies", sizes=padded.sizes, shape=padded.values.shape
            )
    elif strategies is not None:
        raise ValueError("strategies is only meaningful with schedule='constant'")

    fmask = padded.fmask_for(be)
    ksf = from_numpy(be, ks.astype(float), dtype=fdt)[:, None]
    # ``depletion`` is the fraction that survives a visit, so a visited
    # patch's value is consumed at rate (1 - depletion).
    consumed_fraction = from_numpy(be, 1.0 - depletion_vec, dtype=fdt)
    remaining = xp.asarray(padded.values_for(be), copy=True)
    per_round = np.zeros((b, rounds))
    last_probabilities = np.zeros(padded.values.shape)

    for round_index in range(rounds):
        if schedule == "adaptive":
            probabilities = _sigma_star_rows(to_numpy(remaining), padded, ks, be, floor)
        else:
            probabilities = fixed
        last_probabilities = probabilities
        p_dev = from_numpy(be, probabilities, dtype=fdt)
        visit = (1.0 - (1.0 - p_dev) ** ksf) * fmask
        consumed = xp.sum(remaining * visit, axis=1) * consumed_fraction
        per_round[:, round_index] = to_numpy(consumed)
        remaining = remaining * (1.0 - visit * consumed_fraction[:, None])

    remaining_host = to_numpy(remaining)
    return RepeatedDispersalBatch(
        per_round_consumption=per_round,
        cumulative_consumption=per_round.sum(axis=1),
        remaining_values=np.sum(remaining_host * padded.mask, axis=1),
        final_strategies=np.asarray(last_probabilities),
        rounds=rounds,
        k=ks,
        depletion=depletion_vec,
        schedule=schedule,
        padded=padded,
    )

