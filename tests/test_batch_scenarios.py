"""Property tests for the batched scenario kernels of ``repro.batch.scenarios``.

The contract: every scenario kernel agrees **elementwise** with a reference
that does not run it — the scalar code of
:mod:`repro.mechanism.policy_design` where that is a separate implementation,
and otherwise the oracles of :mod:`oracles` (every cost-adjusted row and each
two-group competition wave meets the brute-force IFD conditions of its own
game; repeated dispersal follows the one-row expected-track recursion, its
``sigma_star`` schedules taken from the water-filling coverage optimum).  The grids include
ragged site counts, mixed per-row player counts, per-row cost vectors and
depletion factors, and the reduction-to-core cases (``d == 0`` costs,
``k = 1`` rows, constant congestion tables).

The whole module runs once per available array backend (numpy always;
``array_api_strict`` when installed, skip-marked otherwise) through the
autouse ``array_backend`` fixture, mirroring ``tests/test_batch_dynamics.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import backend_params
from oracles import (
    assert_oracle_ifd,
    brute_force_site_payoffs,
    enumerated_visits,
    expected_repeated_dispersal,
    maximize_coverage_waterfilling,
)
from repro.backend import use_backend
from repro.batch import (
    PaddedValues,
    best_two_level_batch,
    compare_policies_batch,
    cost_adjusted_ifd_batch,
    cost_adjusted_site_values_batch,
    repeated_dispersal_batch,
    two_group_competition_batch,
)
from repro.batch.scenarios import as_costs_batch
from repro.core.ifd import ideal_free_distribution
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.values import SiteValues
from repro.mechanism import best_two_level_policy, compare_policies

POLICIES = [SharingPolicy(), ExclusivePolicy(), TwoLevelPolicy(-0.2)]


@pytest.fixture(autouse=True, params=backend_params())
def array_backend(request):
    """Re-run every scenario property test under each available backend."""
    with use_backend(request.param):
        yield request.param


@pytest.fixture
def ragged_batch():
    """Ragged instances with mixed per-row player counts (k = 1 included)."""
    rng = np.random.default_rng(20180503)
    instances = [SiteValues.random(int(m), rng, low=0.1, high=3.0) for m in (4, 9, 6, 3, 11)]
    ks = np.array([2, 5, 3, 1, 4], dtype=np.int64)
    return PaddedValues.from_instances(instances), instances, ks


def random_costs(padded: PaddedValues, rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    return np.where(padded.mask, rng.uniform(0.0, scale, padded.values.shape), 0.0)


class TestAsCostsBatch:
    def test_scalar_vector_and_matrix_forms(self, ragged_batch):
        padded, _, _ = ragged_batch
        scalar = as_costs_batch(0.25, padded)
        assert scalar.shape == padded.values.shape
        np.testing.assert_allclose(scalar[padded.mask], 0.25)
        assert np.all(scalar[~padded.mask] == 0.0)
        vector = as_costs_batch(np.linspace(0.0, 1.0, padded.width), padded)
        assert vector.shape == padded.values.shape

    def test_rejects_bad_costs(self, ragged_batch):
        padded, _, _ = ragged_batch
        with pytest.raises(ValueError):
            as_costs_batch(np.full(padded.width + 1, 0.1), padded)
        with pytest.raises(ValueError):
            as_costs_batch(-0.1, padded)
        bad = np.zeros(padded.values.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            as_costs_batch(bad, padded)


class TestCostAdjustedIFDBatch:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_rows_meet_the_oracle_ifd_conditions(self, ragged_batch, policy):
        padded, instances, ks = ragged_batch
        costs = random_costs(padded, np.random.default_rng(11))
        batch = cost_adjusted_ifd_batch(padded, costs, ks, policy)
        assert bool(batch.converged.all())
        for index, (values, k) in enumerate(zip(instances, ks)):
            p = batch.probabilities[index, : values.m]
            payoff = assert_oracle_ifd(values.as_array(), costs[index, : values.m], p, int(k), policy)
            np.testing.assert_allclose(batch.values[index], payoff, atol=2e-6)
            assert int(batch.support_sizes[index]) == int(np.count_nonzero(p > 1e-12))
            assert np.all(batch.probabilities[index, values.m :] == 0.0)

    def test_zero_costs_reduce_to_core_ifd(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = SharingPolicy()
        batch = cost_adjusted_ifd_batch(padded, 0.0, ks, policy)
        for index, (values, k) in enumerate(zip(instances, ks)):
            core = ideal_free_distribution(values, int(k), policy)
            np.testing.assert_allclose(
                batch.probabilities[index, : values.m],
                core.strategy.as_array(),
                atol=2e-6,
            )

    def test_k_equals_one_rows_pick_the_best_net_site(self, ragged_batch):
        padded, instances, _ = ragged_batch
        costs = random_costs(padded, np.random.default_rng(5), scale=1.0)
        batch = cost_adjusted_ifd_batch(padded, costs, 1, SharingPolicy())
        for index, values in enumerate(instances):
            net = values.as_array() - costs[index, : values.m]
            best = int(np.argmax(net))
            assert batch.support_sizes[index] == 1
            np.testing.assert_allclose(batch.probabilities[index, best], 1.0)
            np.testing.assert_allclose(batch.values[index], net[best], atol=1e-12)

    def test_constant_policy_rows_concentrate_on_the_best_net_sites(self, ragged_batch):
        padded, instances, ks = ragged_batch
        costs = random_costs(padded, np.random.default_rng(7))
        batch = cost_adjusted_ifd_batch(padded, costs, ks, ConstantPolicy())
        for index, (values, k) in enumerate(zip(instances, ks)):
            # Net payoffs ignore congestion, so the equilibrium spreads its
            # mass evenly over the argmax set of f - d.
            net = values.as_array() - costs[index, : values.m]
            best = net == net.max()
            np.testing.assert_allclose(
                batch.probabilities[index, : values.m], best / best.sum(), atol=1e-12
            )
            assert int(batch.support_sizes[index]) == int(best.sum())
            assert_oracle_ifd(
                values.as_array(),
                costs[index, : values.m],
                batch.probabilities[index, : values.m],
                int(k),
                ConstantPolicy(),
            )

    def test_aggressive_policy_supports_negative_values(self):
        values = SiteValues.from_values([1.0, 0.9, 0.8])
        padded = PaddedValues.from_instances([values])
        costs = np.array([[0.9, 0.9, 0.9]])
        batch = cost_adjusted_ifd_batch(padded, costs, 4, AggressivePolicy(0.5))
        payoff = assert_oracle_ifd(
            values.as_array(), costs[0], batch.probabilities[0], 4, AggressivePolicy(0.5)
        )
        assert payoff < 0
        np.testing.assert_allclose(batch.values[0], payoff, atol=2e-6)

    def test_site_values_batch_matches_brute_force(self, ragged_batch):
        padded, instances, ks = ragged_batch
        rng = np.random.default_rng(3)
        costs = random_costs(padded, rng)
        states = np.where(padded.mask, rng.random(padded.values.shape), 0.0)
        states /= states.sum(axis=1, keepdims=True)
        policy = SharingPolicy()
        nu = cost_adjusted_site_values_batch(padded, costs, states, ks, policy)
        for index, (values, k) in enumerate(zip(instances, ks)):
            expected = brute_force_site_payoffs(
                values.as_array(),
                costs[index, : values.m],
                states[index, : values.m],
                int(k),
                policy,
            )
            np.testing.assert_allclose(nu[index, : values.m], expected, atol=1e-12)
            assert np.all(nu[index, values.m :] == 0.0)


def assert_waves_are_ifds(batch, row, values, first, second, k_first, k_second):
    """Row ``row`` against its own games: the first wave is an IFD on ``f``,
    the second an IFD on the expected leftovers, and every consumption is
    read off the enumerated visit probabilities."""
    f = values.as_array()
    p1 = batch.first_strategies[row, : values.m]
    p2 = batch.second_strategies[row, : values.m]
    payoff1 = assert_oracle_ifd(f, 0.0, p1, k_first, first)
    visits1 = enumerated_visits(p1, k_first)
    leftovers = np.maximum(f * (1.0 - visits1), 1e-12)
    payoff2 = assert_oracle_ifd(leftovers, 0.0, p2, k_second, second)
    visits2 = enumerated_visits(p2, k_second)
    expected = {
        "first_consumption": f @ visits1,
        "second_consumption": leftovers @ visits2,
        "first_individual_payoffs": payoff1,
        "second_individual_payoffs": payoff2,
        "leftover_values": leftovers @ (1.0 - visits2),
        "first_shares": (f @ visits1) / (f @ visits1 + leftovers @ visits2),
    }
    for field, value in expected.items():
        np.testing.assert_allclose(getattr(batch, field)[row], value, atol=1e-9, err_msg=field)


class TestTwoGroupCompetitionBatch:
    def test_mixed_policy_pairs_meet_each_waves_ifd_conditions(self, ragged_batch):
        padded, instances, _ = ragged_batch
        firsts = [SharingPolicy(), ExclusivePolicy(), AggressivePolicy(0.5), SharingPolicy(), ExclusivePolicy()]
        seconds = [ExclusivePolicy(), SharingPolicy(), SharingPolicy(), AggressivePolicy(0.5), SharingPolicy()]
        k1 = np.array([3, 5, 2, 4, 2], dtype=np.int64)
        k2 = np.array([4, 3, 2, 2, 5], dtype=np.int64)
        batch = two_group_competition_batch(padded, firsts, seconds, k1, k2)
        for index, values in enumerate(instances):
            assert_waves_are_ifds(
                batch, index, values, firsts[index], seconds[index], int(k1[index]), int(k2[index])
            )

    def test_single_policy_broadcasts(self, small_values):
        batch = two_group_competition_batch(
            [small_values], SharingPolicy(), ExclusivePolicy(), 3
        )
        roster = two_group_competition_batch(
            [small_values], [SharingPolicy()], [ExclusivePolicy()], [3], [3]
        )
        for field in ("first_consumption", "first_strategies", "second_strategies", "first_shares"):
            np.testing.assert_array_equal(getattr(batch, field), getattr(roster, field))
        assert_waves_are_ifds(batch, 0, small_values, SharingPolicy(), ExclusivePolicy(), 3, 3)

    def test_roster_length_mismatch_raises(self, small_values):
        with pytest.raises(ValueError):
            two_group_competition_batch(
                [small_values], [SharingPolicy(), SharingPolicy()], ExclusivePolicy(), 3
            )


class TestRepeatedDispersalBatch:
    @pytest.mark.parametrize("schedule", ["adaptive", "constant"])
    def test_matches_scalar_expected_track(self, ragged_batch, schedule):
        padded, instances, ks = ragged_batch
        depletions = np.array([0.0, 0.3, 0.5, 0.25, 0.6])
        batch = repeated_dispersal_batch(
            padded, ks, rounds=4, depletion=depletions, schedule=schedule
        )
        for index, (values, k) in enumerate(zip(instances, ks)):
            # sigma_star is the coverage optimum (Theorem 4), which water
            # filling finds without the closed form.
            if schedule == "adaptive":
                def scalar_schedule(_round, current, k=int(k)):
                    return maximize_coverage_waterfilling(np.maximum(current, 1e-9), k).strategy
            else:
                star = maximize_coverage_waterfilling(values, int(k)).strategy
                scalar_schedule = lambda _round, _current, star=star: star  # noqa: E731
            per_round, remaining = expected_repeated_dispersal(
                values,
                int(k),
                scalar_schedule,
                rounds=4,
                depletion=float(depletions[index]),
            )
            np.testing.assert_allclose(
                batch.per_round_consumption[index], per_round, atol=1e-9
            )
            np.testing.assert_allclose(
                batch.cumulative_consumption[index], per_round.sum(), atol=1e-9
            )
            np.testing.assert_allclose(
                batch.remaining_values[index], remaining.sum(), atol=1e-9
            )

    def test_full_consumption_depletes_visited_sites(self, small_values):
        batch = repeated_dispersal_batch(
            [small_values], 3, rounds=12, depletion=0.0, schedule="adaptive"
        )
        # With depletion 0 every visited patch is fully consumed, so the
        # cumulative consumption approaches the total value from below.
        total = float(small_values.total)
        assert batch.cumulative_consumption[0] <= total + 1e-9
        assert batch.cumulative_consumption[0] > 0.9 * total
        np.testing.assert_allclose(
            batch.cumulative_consumption[0] + batch.remaining_values[0], total, atol=1e-9
        )

    def test_explicit_constant_strategies(self, ragged_batch):
        padded, instances, ks = ragged_batch
        rng = np.random.default_rng(2)
        states = np.where(padded.mask, rng.random(padded.values.shape), 0.0)
        states /= states.sum(axis=1, keepdims=True)
        batch = repeated_dispersal_batch(
            padded, ks, rounds=3, depletion=0.2, schedule="constant", strategies=states
        )
        for index, (values, k) in enumerate(zip(instances, ks)):
            per_round, _ = expected_repeated_dispersal(
                values,
                int(k),
                lambda _round, _current, p=states[index, : values.m]: p,
                rounds=3,
                depletion=0.2,
            )
            np.testing.assert_allclose(
                batch.per_round_consumption[index], per_round, atol=1e-9
            )

    def test_rejects_bad_arguments(self, small_values):
        with pytest.raises(ValueError):
            repeated_dispersal_batch([small_values], 3, depletion=1.0)
        with pytest.raises(ValueError):
            repeated_dispersal_batch([small_values], 3, depletion=-0.1)
        with pytest.raises(ValueError):
            repeated_dispersal_batch([small_values], 3, schedule="greedy")
        with pytest.raises(ValueError):
            repeated_dispersal_batch(
                [small_values], 3, schedule="adaptive", strategies=np.ones((1, 4)) / 4
            )


class TestMechanismSweeps:
    def test_compare_policies_matches_scalar_grid(self, ragged_batch):
        padded, instances, _ = ragged_batch
        k_grid = np.array([2, 4], dtype=np.int64)
        roster = [ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.2)]
        batch = compare_policies_batch(padded, k_grid, roster)
        assert batch.policy_names == ("exclusive", "sharing", "two-level")
        for index, values in enumerate(instances):
            for k_index, k in enumerate(k_grid):
                rows = compare_policies(values, int(k), roster)
                for policy_index, row in enumerate(rows):
                    cell = batch.comparison(policy_index, index, k_index)
                    np.testing.assert_allclose(
                        cell.equilibrium_coverage, row.equilibrium_coverage, atol=1e-5
                    )
                    np.testing.assert_allclose(
                        cell.optimal_coverage, row.optimal_coverage, atol=1e-7
                    )
                    np.testing.assert_allclose(cell.spoa, row.spoa, atol=1e-5)
                    np.testing.assert_allclose(
                        cell.equilibrium_payoff, row.equilibrium_payoff, atol=1e-5
                    )
                    assert cell.support_size == row.support_size

    def test_exclusive_policy_is_never_beaten(self, ragged_batch):
        padded, _, _ = ragged_batch
        k_grid = np.array([2, 3, 5], dtype=np.int64)
        batch = compare_policies_batch(
            padded, k_grid, [ExclusivePolicy(), SharingPolicy(), ConstantPolicy()]
        )
        # Corollary 5: the exclusive equilibrium achieves the optimum.
        np.testing.assert_allclose(
            batch.equilibrium_coverages[0], batch.optimal_coverages, atol=1e-6
        )
        assert np.all(
            batch.equilibrium_coverages[0] >= batch.equilibrium_coverages[1:] - 1e-6
        )

    def test_best_two_level_matches_scalar_argmax(self, figure1_left, figure1_right):
        padded = PaddedValues.from_instances([figure1_left, figure1_right])
        c_grid = np.linspace(-0.5, 0.5, 11)
        k_grid = np.array([2, 3], dtype=np.int64)
        batch = best_two_level_batch(padded, k_grid, c_grid=c_grid)
        for index, values in enumerate((figure1_left, figure1_right)):
            for k_index, k in enumerate(k_grid):
                best_c, rows = best_two_level_policy(values, int(k), c_grid=c_grid)
                assert batch.best_c[index, k_index] == pytest.approx(best_c, abs=1e-12)
                np.testing.assert_allclose(
                    batch.comparisons.equilibrium_coverages[:, index, k_index],
                    [row.equilibrium_coverage for row in rows],
                    atol=1e-5,
                )
        # Theorem 6: the maximiser sits at the exclusive policy c = 0.
        np.testing.assert_allclose(batch.best_c, 0.0, atol=1e-12)

    def test_empty_roster_rejected(self, small_values):
        with pytest.raises(ValueError):
            compare_policies_batch([small_values], 2, [])
        with pytest.raises(ValueError):
            best_two_level_batch([small_values], 2, c_grid=[])
