"""Batched mechanism design: policy-roster sweeps and reward (grant) design.

The paper's mechanism lever fixes rewards at the social values and designs
the congestion rule (Theorems 4-6); the Kleinberg-Oren baseline fixes the
rule and re-prices the sites.  The scalar implementations in
:mod:`repro.mechanism` evaluate one instance per call; this module evaluates
whole ``(instances x k x policy)`` grids at once:

* :func:`compare_policies_batch` — a congestion-policy roster over every
  ``(instance, k)`` cell: one :func:`~repro.batch.solvers.sigma_star_batch`
  call fixes all coverage optima (and the exclusive equilibria), one
  :func:`~repro.batch.ifd.water_filling_batch` call solves every other
  policy's equilibria (and, on request, the induced equilibria of a grant
  design);
* :func:`best_two_level_batch` — the Theorem-6 sweep of the one-parameter
  family ``C_c`` over a whole grid;
* :func:`design_rewards_batch` — reward vectors making per-row target
  distributions the IFD of the design policy (the batch counterpart of
  :func:`repro.mechanism.kleinberg_oren.design_rewards_for_target`), one
  batched congestion-factor pass for all rows;
* :func:`optimal_grant_design_batch` — the full reward-design pipeline
  (coverage-optimal targets, designed grants, induced equilibria of the
  re-priced games, deviations) for a whole instance batch with mixed per-row
  player counts.

Conventions match the rest of :mod:`repro.batch`: instance batches ride on
:class:`~repro.batch.padding.PaddedValues`, kernel bodies run on the backend
resolved through :mod:`repro.backend`, and public results are host NumPy
arrays.  Derived value matrices (the designed rewards) enter the IFD solver
unsorted (:func:`~repro.batch.ifd.water_filling_batch` takes rows in any
order), so results stay in the caller's site order.

The scalar entry points of :mod:`repro.mechanism` are thin ``B = 1``
wrappers over these kernels (property-tested elementwise in
``tests/test_batch_mechanism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.backend import Backend, ensure_numpy, resolve_backend
from repro.batch.ifd import ifd_batch  # noqa: F401  (perfbench/tracing.py wraps this name)
from repro.batch.ifd import _roster_ifd, water_filling_batch
from repro.batch.padding import PaddedValues
from repro.batch.payoffs import (
    as_k_vector,
    congestion_table_batch,
    occupancy_congestion_factor_batch,
)
from repro.batch.solvers import as_padded, coverage_batch, sigma_star_batch
from repro.core.policies import CongestionPolicy, SharingPolicy, TwoLevelPolicy
from repro.utils.validation import check_counts, check_probability_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scalar -> batch)
    from repro.mechanism.kleinberg_oren import GrantDesign
    from repro.mechanism.policy_design import PolicyComparison

__all__ = [
    "PolicyComparisonBatch",
    "compare_policies_batch",
    "BestTwoLevelBatch",
    "best_two_level_batch",
    "GrantDesignBatch",
    "design_rewards_batch",
    "optimal_grant_design_batch",
]


# --------------------------------------------------------------------------
# congestion-policy roster sweeps (Theorems 4-6)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyComparisonBatch:
    """Equilibrium outcomes of a policy roster on every ``(instance, k)`` cell.

    Attributes
    ----------
    policy_names:
        Display names of the ``P`` policies, in roster order.
    equilibrium_coverages:
        ``(P, B, K)`` equilibrium (IFD) coverages.
    optimal_coverages:
        ``(B, K)`` coverage optima (policy-independent, computed once).
    spoa:
        ``(P, B, K)`` per-cell symmetric price of anarchy (``inf`` where the
        equilibrium coverage is non-positive).
    equilibrium_payoffs, support_sizes:
        ``(P, B, K)`` equilibrium payoffs and support sizes.
    k_grid, padded:
        Axes of the grid.
    grants:
        The grant designs of ``compare_policies_batch(..., grant_design=...)``
        (``None`` when none were asked for).
    """

    policy_names: tuple[str, ...]
    equilibrium_coverages: np.ndarray
    optimal_coverages: np.ndarray
    spoa: np.ndarray
    equilibrium_payoffs: np.ndarray
    support_sizes: np.ndarray
    k_grid: np.ndarray
    padded: PaddedValues
    grants: GrantDesignBatch | None = None

    def comparison(self, policy_index: int, instance: int, k_index: int) -> "PolicyComparison":
        """Hydrate one grid cell into the scalar :class:`~repro.mechanism.policy_design.PolicyComparison`."""
        from repro.mechanism.policy_design import PolicyComparison

        return PolicyComparison(
            policy_name=self.policy_names[policy_index],
            equilibrium_coverage=float(self.equilibrium_coverages[policy_index, instance, k_index]),
            optimal_coverage=float(self.optimal_coverages[instance, k_index]),
            spoa=float(self.spoa[policy_index, instance, k_index]),
            equilibrium_payoff=float(self.equilibrium_payoffs[policy_index, instance, k_index]),
            support_size=int(self.support_sizes[policy_index, instance, k_index]),
        )


def compare_policies_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k_grid: Sequence[int] | np.ndarray | int,
    policies: Sequence[CongestionPolicy],
    *,
    grant_design: tuple[CongestionPolicy, Sequence[int] | np.ndarray | int] | None = None,
    backend: Backend | str | None = None,
) -> PolicyComparisonBatch:
    """Evaluate a congestion-policy roster over a whole ``(instances x k)`` grid.

    The batch counterpart of
    :func:`repro.mechanism.policy_design.compare_policies`: one
    :func:`~repro.batch.solvers.sigma_star_batch` call fixes the coverage
    optimum of every cell (Theorem 4) and the equilibrium of every
    exclusive cell; the rest of the roster is solved in one
    :func:`~repro.batch.ifd.water_filling_batch` call, and one coverage
    pass scores all equilibria.

    ``grant_design=(policy, k)`` also designs grants under ``policy`` for
    every instance at its own player count ``k[b]`` (scalar or ``(B,)``),
    as :func:`optimal_grant_design_batch` does; the induced equilibria of
    the re-priced games join the roster's water-filling call, so the whole
    comparison costs one fixed-budget loop.  Only those ``B`` cells are
    designed, whatever the ``k`` grid.

    Returns
    -------
    PolicyComparisonBatch
        Bit-identical to one :func:`~repro.batch.ifd.ifd_batch` plus
        :func:`~repro.batch.solvers.coverage_batch` per policy, and
        elementwise equal (to solver tolerance) to looping the scalar
        ``compare_policies`` over instances and ``k`` values.  ``grants``
        equals :func:`optimal_grant_design_batch` bit for bit unless the
        roster's iterative rows (``k >= 3``) reach a larger ``k`` than the
        design's own (see :mod:`repro.batch.ifd`); a grid with no ``k``
        above the design's largest rules that out.
    """
    be = resolve_backend(backend)
    padded = as_padded(values)
    ks = check_counts(k_grid, "k_grid")
    roster = list(policies)
    if not roster:
        raise ValueError("policies roster must not be empty")
    design = None
    if grant_design is not None:
        design_policy, design_k = grant_design
        design = _GrantRows(padded, as_k_vector(design_k, padded.batch_size), design_policy, be)
    star = sigma_star_batch(padded, ks, backend=be)
    optimal = coverage_batch(padded, star.probabilities, ks, backend=be)

    probabilities, payoffs, supports, _, induced = _roster_ifd(
        padded, ks, roster, True, star, be, None if design is None else design.rows
    )
    B, P, K, M = probabilities.shape
    # One coverage pass over the roster laid out as a (B, P * K) grid.
    eq = coverage_batch(padded, probabilities.reshape(B, P * K, M), np.tile(ks, P), backend=be)
    eq = eq.reshape(B, P, K).swapaxes(0, 1)
    positive = eq > 0
    spoa = np.where(positive, optimal[None, :, :] / np.where(positive, eq, 1.0), np.inf)
    return PolicyComparisonBatch(
        policy_names=tuple(policy.name for policy in roster),
        equilibrium_coverages=eq,
        optimal_coverages=optimal,
        spoa=spoa,
        equilibrium_payoffs=payoffs.swapaxes(0, 1),
        support_sizes=supports.swapaxes(0, 1),
        k_grid=ks,
        padded=padded,
        grants=None if design is None else design.outcome(induced),
    )


@dataclass(frozen=True)
class BestTwoLevelBatch:
    """The ``C_c`` family sweep of Theorem 6 over a whole instance grid.

    Attributes
    ----------
    c_grid:
        The swept collision payoffs.
    best_c:
        ``(B, K)`` collision payoff maximising the equilibrium coverage of
        each cell (first maximiser in grid order, like the scalar sweep).
    best_coverages:
        ``(B, K)`` the equilibrium coverage at ``best_c``.
    comparisons:
        The full :class:`PolicyComparisonBatch` of the sweep (one roster
        entry per ``c``).
    """

    c_grid: np.ndarray
    best_c: np.ndarray
    best_coverages: np.ndarray
    comparisons: PolicyComparisonBatch


def best_two_level_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k_grid: Sequence[int] | np.ndarray | int,
    *,
    c_grid: np.ndarray | Sequence[float] | None = None,
    backend: Backend | str | None = None,
) -> BestTwoLevelBatch:
    """Sweep the two-level family ``C_c`` over a whole ``(instances x k)`` grid.

    The batch counterpart of
    :func:`repro.mechanism.policy_design.best_two_level_policy`: every
    ``(instance, k)`` cell reports the collision payoff with the best
    equilibrium coverage.  Theorem 6 predicts the maximiser sits at ``c = 0``
    (the exclusive policy) whenever the exclusive support differs from the
    alternatives'.

    Returns
    -------
    BestTwoLevelBatch
        ``best_c`` agrees with the scalar sweep cell by cell (first-argmax
        tie-breaking in grid order).
    """
    if c_grid is None:
        c_grid = np.linspace(-0.5, 0.5, 41)
    c_values = np.asarray(c_grid, dtype=float)
    if c_values.ndim != 1 or c_values.size == 0:
        raise ValueError("c_grid must be a non-empty 1-D sequence")
    roster = [TwoLevelPolicy(float(c)) for c in c_values]
    comparisons = compare_policies_batch(values, k_grid, roster, backend=backend)
    best_index = np.argmax(comparisons.equilibrium_coverages, axis=0)  # (B, K)
    best_c = c_values[best_index]
    best_coverages = np.take_along_axis(
        comparisons.equilibrium_coverages, best_index[None, :, :], axis=0
    )[0]
    return BestTwoLevelBatch(
        c_grid=c_values,
        best_c=best_c,
        best_coverages=best_coverages,
        comparisons=comparisons,
    )


# --------------------------------------------------------------------------
# reward (grant) design — the Kleinberg-Oren baseline, batched
# --------------------------------------------------------------------------


def design_rewards_batch(
    targets: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy | None = None,
    *,
    equilibrium_value: float = 1.0,
    off_support_fraction: float = 0.5,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Rewards making each row's ``target`` the IFD of the game under ``policy``.

    The batch counterpart of
    :func:`repro.mechanism.kleinberg_oren.design_rewards_for_target`.  The
    IFD condition under rewards ``r`` is ``r(x) * g_b(p(x)) = v`` on the
    support (where ``g_b(q) = E[C(1 + Binomial(k_b - 1, q))]``) and
    ``r(x) <= v`` outside it; fixing the equilibrium value ``v`` gives
    ``r(x) = v / g_b(target_b(x))`` on the support and
    ``off_support_fraction * v`` elsewhere.  All congestion factors come
    from one :func:`~repro.batch.payoffs.occupancy_congestion_factor_batch`
    pass with per-row player counts.

    Parameters
    ----------
    targets:
        Per-row target distributions — a ``(B, M)`` matrix or a sequence of
        :class:`~repro.core.strategy.Strategy` vectors (ragged rows are
        zero-padded; a padding column is off-support by construction).
    k:
        Player count — scalar or per-row ``(B,)`` vector.
    policy:
        Design policy (default: the sharing policy, the ecological baseline).
    equilibrium_value, off_support_fraction:
        The designed common payoff ``v > 0`` (grants are scale free) and the
        off-support reward fraction in ``(0, 1)``.
    backend:
        Array backend for the congestion-factor pass.

    Returns
    -------
    numpy.ndarray
        Host ``(B, M)`` reward matrix.

    Raises
    ------
    ValueError
        When any row's target is not implementable with positive rewards
        (non-positive congestion factor on its support — e.g. aggressive
        policies at high occupancy probabilities); the error names the
        offending rows.
    """
    be = resolve_backend(backend)
    if policy is None:
        policy = SharingPolicy()
    if equilibrium_value <= 0:
        raise ValueError("equilibrium_value must be positive")
    if not 0 < off_support_fraction < 1:
        raise ValueError("off_support_fraction must lie in (0, 1)")
    matrix, _ = check_probability_rows(targets, "targets")
    ks = as_k_vector(k, matrix.shape[0])
    policy.validate(int(ks.max()))

    g = occupancy_congestion_factor_batch(policy, matrix, ks - 1, backend=be)
    g = np.asarray(ensure_numpy(g), dtype=float)
    support = matrix > 0
    infeasible = np.any(support & (g <= 0), axis=1)
    if np.any(infeasible):
        rows = np.nonzero(infeasible)[0].tolist()
        raise ValueError(
            "target not implementable: non-positive congestion factor on its "
            f"support (rows {rows})"
        )
    safe_g = np.where(support & (g > 0), g, 1.0)
    return np.where(
        support,
        equilibrium_value / safe_g,
        off_support_fraction * equilibrium_value,
    )


@dataclass(frozen=True)
class GrantDesignBatch:
    """Designed reward vectors and the equilibria they induce, per instance.

    Attributes
    ----------
    rewards:
        ``(B, M_max)`` designed grants, in the instances' (sorted) site
        order.
    induced_strategies:
        ``(B, M_max)`` IFDs of the re-priced games under the design policy.
    induced_coverages:
        ``(B,)`` coverage of the induced equilibria measured with the
        *original* social values (the planner cares about ``f``, not the
        grants).
    target_strategies:
        ``(B, M_max)`` distributions the designs aimed for (the coverage
        optima of the original values).
    max_deviations:
        ``(B,)`` worst per-site gaps ``max_x |induced(x) - target(x)|``.
    k:
        ``(B,)`` per-row player counts.
    padded:
        The instance batch of the ``B`` axis.

    All array attributes are host NumPy arrays whatever backend solved them.
    """

    rewards: np.ndarray
    induced_strategies: np.ndarray
    induced_coverages: np.ndarray
    target_strategies: np.ndarray
    max_deviations: np.ndarray
    k: np.ndarray
    padded: PaddedValues

    def design(self, index: int) -> "GrantDesign":
        """Hydrate one row into the scalar :class:`~repro.mechanism.kleinberg_oren.GrantDesign`."""
        from repro.core.strategy import Strategy
        from repro.mechanism.kleinberg_oren import GrantDesign

        size = int(self.padded.sizes[index])
        return GrantDesign(
            rewards=np.asarray(self.rewards[index, :size]),
            induced_strategy=Strategy(self.induced_strategies[index, :size]),
            induced_coverage=float(self.induced_coverages[index]),
            target_strategy=Strategy(self.target_strategies[index, :size]),
            max_deviation=float(self.max_deviations[index]),
        )


def optimal_grant_design_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy | None = None,
    *,
    backend: Backend | str | None = None,
) -> GrantDesignBatch:
    """Design grants steering every instance's IFD to its coverage optimum.

    The batch counterpart of
    :func:`repro.mechanism.kleinberg_oren.optimal_grant_design`: the targets
    are the ``sigma_star`` of each row's social values (solved once per
    distinct ``k`` through :func:`~repro.batch.solvers.sigma_star_batch`),
    the grants come from :func:`design_rewards_batch`, and the induced
    equilibria of the re-priced games are solved by one
    :func:`~repro.batch.ifd.water_filling_batch` call with per-row ``k`` (no
    closed form: the designed rewards are a genuinely different game).

    Parameters
    ----------
    values, k:
        Instance batch (ragged ``M`` allowed) and scalar or per-row player
        counts.
    policy:
        Design policy (default: sharing).
    backend:
        Array backend forwarded to every kernel.

    Returns
    -------
    GrantDesignBatch
        Elementwise equal (to solver tolerance) to looping the scalar
        ``optimal_grant_design`` over the rows.
    """
    be = resolve_backend(backend)
    padded = as_padded(values)
    design = _GrantRows(
        padded, as_k_vector(k, padded.batch_size), SharingPolicy() if policy is None else policy, be
    )
    # The induced IFDs: one water-filling row per instance at its own k.
    rewards, ks, tables = design.rows
    induced = water_filling_batch(rewards, None, ks, tables, mask=padded.mask, backend=be)
    return design.outcome(induced.probabilities)


class _GrantRows:
    """Targets, designed grants and water-filling rows of a grant design.

    Shared by :func:`optimal_grant_design_batch` and
    ``compare_policies_batch(..., grant_design=...)``: ``rows`` are the
    ``(values, k, tables)`` of one water-filling row per instance, and
    :meth:`outcome` scores the strategies they induce.
    """

    def __init__(self, padded: PaddedValues, ks: np.ndarray, policy: CongestionPolicy, be: Backend):
        self.padded, self.ks, self.be = padded, ks, be
        self.unique_ks, self.columns = np.unique(ks, return_inverse=True)
        star = sigma_star_batch(padded, self.unique_ks, backend=be)
        self.targets = star.probabilities[np.arange(padded.batch_size), self.columns, :]
        # Padding columns of sigma_star are exactly zero, so they read as
        # off-support sites and receive the (positive) off-support grant; the
        # solver masks them out.  design_rewards_batch validates the policy.
        self.rewards = design_rewards_batch(self.targets, ks, policy, backend=be)
        self.rows = (self.rewards, ks, congestion_table_batch(policy, ks - 1))

    def outcome(self, induced_strategies: np.ndarray) -> GrantDesignBatch:
        """The :class:`GrantDesignBatch` of the induced equilibria."""
        padded = self.padded
        induced_coverages = coverage_batch(
            padded, induced_strategies, self.unique_ks, backend=self.be
        )[np.arange(padded.batch_size), self.columns]
        return GrantDesignBatch(
            rewards=self.rewards,
            induced_strategies=induced_strategies,
            induced_coverages=induced_coverages,
            target_strategies=self.targets,
            max_deviations=np.max(np.abs(induced_strategies - self.targets), axis=1),
            k=self.ks,
            padded=padded,
        )
