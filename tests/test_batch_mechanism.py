"""Property tests for the batched mechanism-design kernels of ``repro.batch.mechanism``.

The core contracts:

* :func:`~repro.batch.mechanism.design_rewards_batch` and
  :func:`~repro.batch.mechanism.optimal_grant_design_batch` agree
  **elementwise** with looping the scalar :mod:`repro.mechanism` pipeline
  over the rows — ragged site counts, mixed per-row ``k``, and the sorted /
  unsorted round trip of the designed-reward games included;
* infeasible targets fail with the scalar error message and name the
  offending rows;
* the roster sweeps that moved here from ``repro.batch.scenarios`` remain
  importable from their old home and unchanged in behaviour;
* a roster solved in one water-filling call is bit-identical to one
  ``ifd_batch`` per policy, and a row of a mixed-table water-filling call
  equals the same row solved alone;
* ``k = 2`` rows are solved in closed form: exclusive rows equal
  ``sigma_star_batch``, every row meets the brute-force payoff oracle, and a
  ``k = 2`` row of a mixed-``k`` call equals the same row solved alone;
* a ``mechanism`` sweep task solves its roster and its grant design in one
  water-filling call, with rows bit-identical to two separate calls.

The whole module runs once per available array backend through the autouse
fixture, mirroring the other batch suites.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.batch.ifd as batch_ifd
import repro.batch.mechanism as batch_mechanism
from conftest import backend_params
from repro.analysis.observation1 import make_family
from repro.analysis.scenario_experiments import policy_from_name
from repro.analysis.stochastic_experiments import (
    GrantDesignRow,
    MechanismPolicyRow,
    build_mechanism_spec,
    mechanism_task,
)
from repro.backend import use_backend
from repro.batch import (
    PaddedValues,
    design_rewards_batch,
    optimal_grant_design_batch,
)
from repro.batch.ifd import DE_CASTELJAU_MAX_DEGREE, ifd_batch, water_filling_batch
from repro.batch.mechanism import best_two_level_batch, compare_policies_batch
from repro.batch.payoffs import congestion_table_batch
from repro.batch.scenarios import repeated_dispersal_batch, two_group_competition_batch
from repro.batch.solvers import coverage_batch, sigma_star_batch
from repro.core.optimal_coverage import optimal_coverage
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    PowerLawPolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.mechanism import (
    best_two_level_policy,
    compare_policies,
    design_rewards_for_target,
    optimal_grant_design,
)
from oracles import assert_oracle_ifd


@pytest.fixture(autouse=True, params=backend_params())
def array_backend(request):
    """Re-run every mechanism property test under each available backend."""
    with use_backend(request.param):
        yield request.param


def ragged_instances(rng, count=6, m_range=(3, 8)):
    instances = [
        SiteValues.random(int(m), rng)
        for m in rng.integers(m_range[0], m_range[1], size=count)
    ]
    ks = rng.integers(2, 6, size=count).astype(np.int64)
    return instances, ks


class TestDesignRewardsBatch:
    def test_matches_scalar_elementwise_on_ragged_mixed_k_targets(self, rng):
        instances, ks = ragged_instances(rng)
        targets = [
            sigma_star(values, int(k)).strategy for values, k in zip(instances, ks)
        ]
        batch = design_rewards_batch(targets, ks, SharingPolicy())
        for index, (values, target) in enumerate(zip(instances, targets)):
            scalar = design_rewards_for_target(target, int(ks[index]), SharingPolicy())
            np.testing.assert_allclose(
                batch[index, : values.m], scalar, rtol=1e-12, atol=1e-12
            )

    def test_padding_columns_receive_off_support_grant(self, rng):
        targets = [Strategy.uniform(2), Strategy.uniform(4)]
        batch = design_rewards_batch(targets, 3, SharingPolicy(), off_support_fraction=0.25)
        assert batch.shape == (2, 4)
        np.testing.assert_allclose(batch[0, 2:], 0.25)

    def test_infeasible_rows_raise_and_are_named(self):
        # A well-spread target keeps the aggressive congestion factor
        # positive; the concentrated one drives it negative (as in the
        # scalar test) — only the infeasible row is named.
        feasible = Strategy.uniform(8)
        concentrated = Strategy(np.array([0.95, 0.05]))
        with pytest.raises(ValueError, match=r"not implementable.*rows \[1\]"):
            design_rewards_batch([feasible, concentrated], 4, AggressivePolicy(1.0))

    def test_parameter_validation(self):
        target = Strategy.uniform(3)
        with pytest.raises(ValueError, match="equilibrium_value"):
            design_rewards_batch([target], 2, SharingPolicy(), equilibrium_value=0.0)
        with pytest.raises(ValueError, match="off_support_fraction"):
            design_rewards_batch([target], 2, SharingPolicy(), off_support_fraction=1.5)
        with pytest.raises(ValueError, match="sum to one"):
            design_rewards_batch(np.array([[0.7, 0.7]]), 2, SharingPolicy())


class TestOptimalGrantDesignBatch:
    def test_matches_scalar_elementwise(self, rng):
        instances, ks = ragged_instances(rng, count=5)
        padded = PaddedValues.from_instances(instances)
        batch = optimal_grant_design_batch(padded, ks, SharingPolicy())
        for index, values in enumerate(instances):
            scalar = optimal_grant_design(values, int(ks[index]), SharingPolicy())
            m = values.m
            np.testing.assert_allclose(
                batch.rewards[index, :m], scalar.rewards, rtol=1e-9, atol=1e-9
            )
            np.testing.assert_allclose(
                batch.induced_strategies[index, :m],
                scalar.induced_strategy.as_array(),
                atol=1e-6,
            )
            assert batch.induced_coverages[index] == pytest.approx(
                scalar.induced_coverage, abs=1e-6
            )
            assert batch.max_deviations[index] == pytest.approx(
                scalar.max_deviation, abs=1e-6
            )

    def test_designs_recover_the_coverage_optimum(self, rng):
        instances, ks = ragged_instances(rng, count=4)
        batch = optimal_grant_design_batch(instances, ks, SharingPolicy())
        assert np.all(batch.max_deviations < 1e-5)
        for index, values in enumerate(instances):
            assert batch.induced_coverages[index] == pytest.approx(
                optimal_coverage(values, int(ks[index])), abs=1e-5
            )

    def test_hydrated_design_matches_scalar_type(self, rng):
        values = SiteValues.zipf(5)
        batch = optimal_grant_design_batch([values], 3)
        design = batch.design(0)
        assert design.rewards.shape == (5,)
        assert design.induced_strategy.m == 5
        assert design.max_deviation < 1e-6


class TestRosterSweepsMoved:
    def test_compare_policies_batch_matches_scalar(self, rng):
        instances = [SiteValues.zipf(5), SiteValues.random(4, rng)]
        padded = PaddedValues.from_instances(instances)
        roster = [ExclusivePolicy(), SharingPolicy()]
        batch = compare_policies_batch(padded, [2, 4], roster)
        for instance_index, values in enumerate(instances):
            for k_index, k in enumerate((2, 4)):
                scalar_rows = compare_policies(values, k, roster)
                for policy_index, scalar in enumerate(scalar_rows):
                    cell = batch.comparison(policy_index, instance_index, k_index)
                    assert cell.equilibrium_coverage == pytest.approx(
                        scalar.equilibrium_coverage, abs=1e-9
                    )
                    assert cell.spoa == pytest.approx(scalar.spoa, abs=1e-9)

    def test_best_two_level_batch_matches_scalar_wrapper(self, figure1_left):
        c_grid = np.linspace(-0.5, 0.5, 11)
        batch = best_two_level_batch([figure1_left], [2], c_grid=c_grid)
        best_c, rows = best_two_level_policy(figure1_left, 2, c_grid=c_grid)
        assert float(batch.best_c[0, 0]) == pytest.approx(best_c, abs=1e-12)
        assert len(rows) == c_grid.size
        assert best_c == pytest.approx(0.0, abs=1e-9)


ROSTER = [
    ExclusivePolicy(),
    SharingPolicy(),
    ConstantPolicy(),
    AggressivePolicy(0.5),
    TwoLevelPolicy(0.4),
    PowerLawPolicy(2.0),
]


class TestFusedRoster:
    @pytest.mark.parametrize("k_grid", [(1, 2, 4, 8), (3, 30)])
    def test_roster_equals_one_ifd_batch_per_policy(self, rng, k_grid):
        instances, _ = ragged_instances(rng)
        padded = PaddedValues.from_instances(instances)
        batch = compare_policies_batch(padded, k_grid, ROSTER)
        for index, policy in enumerate(ROSTER):
            alone = ifd_batch(padded, k_grid, policy)
            np.testing.assert_array_equal(
                batch.equilibrium_coverages[index],
                coverage_batch(padded, alone.probabilities, k_grid),
            )
            np.testing.assert_array_equal(batch.equilibrium_payoffs[index], alone.values)
            np.testing.assert_array_equal(batch.support_sizes[index], alone.support_sizes)

    # One k per call: the g evaluator follows the largest k of a call, and
    # the final IFD check sums over the call's occupancy width.
    @pytest.mark.parametrize("k", [7, DE_CASTELJAU_MAX_DEGREE + 1, DE_CASTELJAU_MAX_DEGREE + 7])
    def test_mixed_table_rows_equal_rows_solved_alone(self, rng, k):
        rows = 2 * len(ROSTER)
        values = rng.random((rows, 9)) + 0.05
        mask = np.arange(9)[None, :] < rng.integers(2, 10, size=rows)[:, None]
        tables = np.concatenate(
            [congestion_table_batch(ROSTER[r % len(ROSTER)], k - 1) for r in range(rows)]
        )
        ks = np.full(rows, k)
        mixed = water_filling_batch(values, None, ks, tables, mask=mask)
        assert not np.all(mixed.closed_form)
        for r in range(rows):
            alone = water_filling_batch(
                values[r : r + 1], None, ks[r : r + 1], tables[r : r + 1], mask=mask[r : r + 1]
            )
            for field in ("probabilities", "values", "support_sizes", "converged", "closed_form"):
                np.testing.assert_array_equal(getattr(mixed, field)[r], getattr(alone, field)[0])

    def test_tables_must_cover_every_row(self):
        with pytest.raises(ValueError, match="tables"):
            water_filling_batch(
                np.ones((2, 3)), None, np.array([3, 4]), congestion_table_batch(SharingPolicy(), 2)
            )


def padded_rows(rows):
    """``(values, costs, mask)`` host matrices for ragged ``(values, costs)`` rows."""
    width = max(len(values) for values, _ in rows)
    values = np.zeros((len(rows), width))
    costs = np.zeros_like(values)
    mask = np.zeros_like(values, dtype=bool)
    for r, (f, d) in enumerate(rows):
        values[r, : len(f)], costs[r, : len(f)], mask[r, : len(f)] = f, d, True
    return values, costs, mask


class TestLinearWaterFilling:
    """``k = 2`` rows: ``g`` is linear, so water filling is solved exactly."""

    def test_exclusive_rows_match_sigma_star(self, rng):
        instances, _ = ragged_instances(rng, count=8, m_range=(1, 12))
        padded = PaddedValues.from_instances(instances)
        tables = np.tile(congestion_table_batch(ExclusivePolicy(), 1), (len(instances), 1))
        solved = water_filling_batch(
            padded.values, None, np.full(len(instances), 2), tables, mask=padded.mask
        )
        star = sigma_star_batch(padded, (2,))
        assert solved.closed_form.all() and solved.converged.all()
        np.testing.assert_allclose(
            solved.probabilities, star.probabilities[:, 0], rtol=0, atol=1e-14
        )
        np.testing.assert_array_equal(solved.support_sizes, star.support_sizes[:, 0])

    def test_rows_meet_the_brute_force_oracle(self, rng):
        random = [SiteValues.random(int(m), rng).as_array() for m in (2, 5, 9)]
        rows = [
            ((1.0, 0.01), (0.0, 0.0), SharingPolicy()),  # site 1 saturates
            ((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), SharingPolicy()),  # tied values
            ((1.0, 1.0, 0.3), (0.0, 0.0, 0.0), TwoLevelPolicy(0.4)),
            ((1.0, 0.8, 0.6, 0.6), (0.0,) * 4, TwoLevelPolicy(0.95)),
            ((1.0,), (0.0,), PowerLawPolicy(2.0)),
        ]
        for f in random:
            for policy in (TwoLevelPolicy(0.95), AggressivePolicy(0.5), PowerLawPolicy(2.0)):
                rows.append((f, np.zeros_like(f), policy))
                rows.append((f, rng.uniform(0.0, 0.4, f.size) * f, policy))  # cost-adjusted
        values, costs, mask = padded_rows([(f, d) for f, d, _ in rows])
        tables = np.concatenate([congestion_table_batch(policy, 1) for _, _, policy in rows])
        solved = water_filling_batch(values, costs, np.full(len(rows), 2), tables, mask=mask)
        assert solved.closed_form.all() and solved.converged.all()
        np.testing.assert_array_equal(solved.probabilities[0, :2], [1.0, 0.0])
        np.testing.assert_array_equal(solved.probabilities[~mask], 0.0)
        for r, (f, d, policy) in enumerate(rows):
            assert_oracle_ifd(f, d, solved.probabilities[r, : len(f)], 2, policy)

    def test_row_of_a_mixed_k_call_equals_the_row_solved_alone(self, rng):
        roster = [SharingPolicy(), TwoLevelPolicy(0.95), AggressivePolicy(0.5)]
        ks = np.array([2, 5, 30] * len(roster))
        values = rng.random((ks.size, 9)) + 0.05
        costs = rng.uniform(0.0, 0.2, values.shape)
        mask = np.arange(9)[None, :] < rng.integers(2, 10, size=ks.size)[:, None]
        tables = np.zeros((ks.size, 30))
        for r, k in enumerate(ks):
            tables[r, :k] = roster[r // 3].table(int(k))
        mixed = water_filling_batch(values, costs, ks, tables, mask=mask)
        assert not mixed.closed_form[ks != 2].any()
        for r in np.flatnonzero(ks == 2):
            alone = water_filling_batch(
                values[r : r + 1], costs[r : r + 1], ks[r : r + 1], tables[r : r + 1, :2],
                mask=mask[r : r + 1],
            )
            assert mixed.closed_form[r] and alone.closed_form[0]
            for field in ("probabilities", "values", "support_sizes", "converged"):
                np.testing.assert_array_equal(getattr(mixed, field)[r], getattr(alone, field)[0])


#: Policies whose rows the solver meets as tables (none is closed form above k = 2).
PERMUTED_POLICIES = [SharingPolicy(), AggressivePolicy(0.5), PowerLawPolicy(2.0)]


def permuted_rows(rng, m_values, with_costs):
    """Random padded ``(values, costs, mask)`` rows, and the same rows with sites shuffled.

    Each row's real sites are relabelled by their own permutation, values and
    costs together; the ``(R, M)`` index array maps a permuted column to its
    source column.
    """
    width = int(max(m_values))
    values = rng.random((len(m_values), width)) + 0.05
    costs = rng.uniform(0.0, 0.4, values.shape) * values if with_costs else np.zeros_like(values)
    mask = np.arange(width)[None, :] < np.asarray(m_values)[:, None]
    values[~mask] = costs[~mask] = 0.0
    order = np.tile(np.arange(width), (len(m_values), 1))
    for r, m in enumerate(m_values):
        order[r, :m] = rng.permutation(m)
    rows = np.arange(len(m_values))[:, None]
    return (values, costs, mask), (values[rows, order], costs[rows, order], mask), order


class TestSitePermutation:
    """Relabelling the sites permutes the equilibrium and keeps its payoff.

    The game is symmetric in site labels, so this oracle holds whatever
    algorithm solves it.  The rows are built below ``parse_request``, which
    sorts served values and would hide an order dependence.
    """

    M_VALUES = np.arange(2, 17)

    @pytest.mark.parametrize("with_costs", [False, True], ids=["plain", "costs"])
    @pytest.mark.parametrize("policy", PERMUTED_POLICIES, ids=lambda policy: policy.name)
    def test_water_filling_is_equivariant(self, rng, policy, with_costs):
        ks = np.resize([2, 3, 7, 40], self.M_VALUES.size)
        (values, costs, mask), (values_p, costs_p, _), order = permuted_rows(
            rng, self.M_VALUES, with_costs
        )
        tables = np.zeros((ks.size, ks.max()))
        for r, k in enumerate(ks):
            tables[r, :k] = policy.table(int(k))
        solved = water_filling_batch(values, costs, ks, tables, mask=mask)
        permuted = water_filling_batch(values_p, costs_p, ks, tables, mask=mask)
        assert solved.converged.all() and permuted.converged.all()
        rows = np.arange(ks.size)[:, None]
        np.testing.assert_allclose(
            permuted.probabilities, solved.probabilities[rows, order], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(permuted.values, solved.values, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(permuted.support_sizes, solved.support_sizes)

    def test_coverage_is_invariant(self, rng):
        (values, _, mask), (values_p, _, _), order = permuted_rows(rng, self.M_VALUES, False)
        strategies = rng.dirichlet(np.ones(values.shape[1]), size=values.shape[0]) * mask
        strategies /= strategies.sum(axis=1, keepdims=True)
        rows = np.arange(values.shape[0])[:, None]
        k_grid = (1, 2, 7, 40, 1000)
        # Built directly, PaddedValues keeps the given site order (from_instances sorts).
        covered = coverage_batch(
            PaddedValues(np.where(mask, values, 1.0), self.M_VALUES), strategies, k_grid
        )
        permuted = coverage_batch(
            PaddedValues(np.where(mask, values_p, 1.0), self.M_VALUES),
            strategies[rows, order],
            k_grid,
        )
        np.testing.assert_allclose(permuted, covered, rtol=1e-12, atol=0)

    def test_two_group_competition_is_equivariant(self, rng):
        (values, _, mask), (values_p, _, _), order = permuted_rows(rng, self.M_VALUES, False)
        ks = np.resize([2, 3, 7], self.M_VALUES.size)
        pool = (ExclusivePolicy(), SharingPolicy(), AggressivePolicy(0.5))
        firsts = [pool[r % 3] for r in range(ks.size)]
        seconds = [(SharingPolicy(), PowerLawPolicy(2.0))[r % 2] for r in range(ks.size)]
        solved, permuted = (
            two_group_competition_batch(
                PaddedValues(np.where(mask, rows, 1.0), self.M_VALUES),
                firsts, seconds, ks, ks[::-1],
            )
            for rows in (values, values_p)
        )
        rows = np.arange(ks.size)[:, None]
        for field in ("first_strategies", "second_strategies"):
            np.testing.assert_allclose(
                getattr(permuted, field), getattr(solved, field)[rows, order], rtol=0, atol=1e-12
            )
        for field in (
            "first_consumption", "second_consumption", "leftover_values",
            "first_individual_payoffs", "second_individual_payoffs",
        ):
            np.testing.assert_allclose(
                getattr(permuted, field), getattr(solved, field), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("schedule", ["constant", "adaptive"])
    def test_repeated_dispersal_is_equivariant(self, rng, schedule):
        (values, _, mask), (values_p, _, _), order = permuted_rows(rng, self.M_VALUES, False)
        ks = np.resize([1, 2, 7, 40], self.M_VALUES.size)
        depletion = rng.uniform(0.0, 0.9, ks.size)
        solved, permuted = (
            repeated_dispersal_batch(
                PaddedValues(np.where(mask, rows, 1.0), self.M_VALUES),
                ks, rounds=4, depletion=depletion, schedule=schedule,
            )
            for rows in (values, values_p)
        )
        rows = np.arange(ks.size)[:, None]
        np.testing.assert_allclose(
            permuted.final_strategies, solved.final_strategies[rows, order], rtol=0, atol=1e-12
        )
        for field in ("per_round_consumption", "cumulative_consumption", "remaining_values"):
            np.testing.assert_allclose(
                getattr(permuted, field), getattr(solved, field), rtol=1e-12, atol=1e-12
            )


class TestOneSolvePerMechanismCell:
    """``mechanism_task`` designs grants inside the roster's water-filling call."""

    @staticmethod
    def separate_calls(params, rng):
        """The roster and the grant design of one task, solved by two calls."""
        cells = params["cells"]
        padded = PaddedValues.from_instances([make_family(f, m, rng) for f, m, _ in cells])
        ks = np.array([k for _, _, k in cells], dtype=np.int64)
        unique_ks, columns = np.unique(ks, return_inverse=True)
        roster = [policy_from_name(name) for name in params["policies"]]
        comparisons = compare_policies_batch(padded, unique_ks, roster)
        grants = optimal_grant_design_batch(padded, ks, policy_from_name(params["design_policy"]))
        return comparisons, grants, columns

    @staticmethod
    def count_solves(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return water_filling_batch(*args, **kwargs)

        for module in (batch_ifd, batch_mechanism):
            monkeypatch.setattr(module, "water_filling_batch", counting)
        return calls

    def assert_rows_match_separate_calls(self, params, seed, monkeypatch):
        expected, grants, columns = self.separate_calls(params, np.random.default_rng(seed))
        calls = self.count_solves(monkeypatch)
        rows = mechanism_task(params, np.random.default_rng(seed))
        assert len(calls) == 1
        b = len(params["cells"])
        policy_rows = [row for row in rows if isinstance(row, MechanismPolicyRow)]
        grant_rows = [row for row in rows if isinstance(row, GrantDesignRow)]
        assert len(policy_rows) == b * len(params["policies"]) and len(grant_rows) == b
        for index, row in enumerate(policy_rows):
            p, i = divmod(index, b)
            cell = (p, i, columns[i])
            assert (
                row.equilibrium_coverage,
                row.optimal_coverage,
                row.spoa,
                row.equilibrium_payoff,
                row.support_size,
            ) == (
                expected.equilibrium_coverages[cell],
                expected.optimal_coverages[i, columns[i]],
                expected.spoa[cell],
                expected.equilibrium_payoffs[cell],
                expected.support_sizes[cell],
            )
        for i, row in enumerate(grant_rows):
            optimal = expected.optimal_coverages[i, columns[i]]
            assert row.induced_coverage == grants.induced_coverages[i]
            assert row.max_deviation == grants.max_deviations[i]
            assert row.coverage_gap == optimal - grants.induced_coverages[i]

    @pytest.mark.parametrize("batch_rows", [1, 3])
    def test_rows_equal_separate_calls_with_one_solve_per_task(self, batch_rows, monkeypatch):
        spec = build_mechanism_spec(k_values=(2, 4, 8, 30), batch_rows=batch_rows)
        for seed, params in enumerate(spec.grid):
            with monkeypatch.context() as patch:
                self.assert_rows_match_separate_calls(params, seed, patch)

    def test_aggressive_design_is_not_asked_of_unrequested_cells(self, monkeypatch):
        # Uniform M = 3 admits an aggressive design at k = 2 but not at k = 8,
        # the other instance's k: designing the full (instance x k) grid raises.
        params = {
            "cells": (("uniform", 12, 8), ("uniform", 3, 2)),
            "policies": ("exclusive", "sharing"),
            "design_policy": "aggressive",
        }
        small = PaddedValues.from_instances([make_family("uniform", 3, np.random.default_rng(0))])
        with pytest.raises(ValueError, match="not implementable"):
            optimal_grant_design_batch(small, 8, policy_from_name("aggressive"))
        self.assert_rows_match_separate_calls(params, 0, monkeypatch)

    def test_grant_design_keyword_matches_optimal_grant_design_batch(self, rng):
        instances, ks = ragged_instances(rng)
        padded = PaddedValues.from_instances(instances)
        assert compare_policies_batch(padded, np.unique(ks), ROSTER).grants is None
        grants = compare_policies_batch(
            padded, np.unique(ks), ROSTER, grant_design=(SharingPolicy(), ks)
        ).grants
        alone = optimal_grant_design_batch(padded, ks, SharingPolicy())
        for field in ("rewards", "induced_strategies", "induced_coverages",
                      "target_strategies", "max_deviations", "k"):
            np.testing.assert_array_equal(getattr(grants, field), getattr(alone, field))
