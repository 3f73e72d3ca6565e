"""Tests for the extensions subpackage (Section 5.1 / 5.2 generalisations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import coverage
from repro.core.ifd import ideal_free_distribution
from repro.core.optimal_coverage import optimal_coverage, optimal_coverage_strategy
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.extensions import (
    adaptive_sigma_star_schedule,
    capacity_coverage,
    capacity_coverage_gradient,
    cost_adjusted_ifd,
    cost_adjusted_site_values,
    expected_repeated_dispersal,
    maximize_capacity_coverage,
    simulate_repeated_dispersal,
    two_group_competition,
)
from repro.extensions.repeated import constant_schedule


class TestTravelCosts:
    def test_zero_costs_reduce_to_core_model(self, small_values):
        for policy in (ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.2)):
            core = ideal_free_distribution(small_values, 3, policy)
            extended = cost_adjusted_ifd(small_values, 0.0, 3, policy)
            assert extended.strategy.total_variation(core.strategy) < 1e-7
            assert extended.value == pytest.approx(core.value, abs=1e-7)

    @pytest.mark.parametrize(
        "costs", [[0.3, 0.0, 0.0, 0.0], np.linspace(0.2, 0.0, 4)], ids=["top-site", "ramp"]
    )
    def test_costs_shift_mass_away_from_expensive_sites(self, small_values, costs):
        # Make the top site expensive to reach: its equilibrium probability
        # drops, and so does the coverage.
        free = ideal_free_distribution(small_values, 3, ExclusivePolicy())
        priced = cost_adjusted_ifd(small_values, np.asarray(costs), 3, ExclusivePolicy())
        assert priced.strategy.as_array()[0] < free.strategy.as_array()[0]
        assert coverage(small_values, priced.strategy, 3) < coverage(small_values, free.strategy, 3)

    def test_equal_payoffs_on_support(self, small_values):
        costs = np.array([0.2, 0.1, 0.05, 0.0])
        result = cost_adjusted_ifd(small_values, costs, 4, SharingPolicy())
        nu = cost_adjusted_site_values(small_values, costs, result.strategy, 4, SharingPolicy())
        support = result.strategy.as_array() > 1e-9
        spread = nu[support].max() - nu[support].min()
        assert spread < 1e-6
        if np.any(~support):
            assert nu[~support].max() <= nu[support].mean() + 1e-6

    def test_net_value_can_be_negative(self):
        # One site, expensive: the players must still go there and eat the loss.
        values = SiteValues.uniform(1)
        result = cost_adjusted_ifd(values, 2.0, 3, ExclusivePolicy())
        assert result.strategy.as_array()[0] == pytest.approx(1.0)
        assert result.value < 0

    def test_single_player_picks_best_net_site(self, small_values):
        costs = np.array([0.9, 0.0, 0.0, 0.0])
        result = cost_adjusted_ifd(small_values, costs, 1, SharingPolicy())
        # Net values: [0.1, 0.6, 0.3, 0.15] -> site 1 is best.
        assert result.strategy == Strategy.point_mass(4, 1)

    def test_constant_policy_concentrates_on_best_net_site(self, small_values):
        costs = np.array([0.9, 0.0, 0.0, 0.0])
        result = cost_adjusted_ifd(small_values, costs, 3, ConstantPolicy())
        assert result.strategy == Strategy.point_mass(4, 1)

    def test_coverage_at_costly_equilibrium_is_below_optimum(self, small_values):
        costs = np.array([0.0, 0.0, 0.25, 0.25])
        result = cost_adjusted_ifd(small_values, costs, 3, ExclusivePolicy())
        assert coverage(small_values, result.strategy, 3) <= optimal_coverage(small_values, 3)

    def test_validation(self, small_values):
        with pytest.raises(ValueError):
            cost_adjusted_ifd(small_values, np.array([0.1, 0.2]), 2, SharingPolicy())
        with pytest.raises(ValueError):
            cost_adjusted_ifd(small_values, -0.5, 2, SharingPolicy())

    @given(
        seed=st.integers(0, 500),
        k=st.integers(2, 5),
        scale=st.floats(0.0, 0.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_cost_adjusted_equilibrium_is_unexploitable(self, seed, k, scale):
        rng = np.random.default_rng(seed)
        values = SiteValues.random(5, rng)
        costs = rng.uniform(0.0, scale, size=5)
        policy = SharingPolicy()
        result = cost_adjusted_ifd(values, costs, k, policy)
        nu = cost_adjusted_site_values(values, costs, result.strategy, k, policy)
        own = float(np.dot(result.strategy.as_array(), nu))
        assert nu.max() <= own + 1e-6


class TestCapacityCoverage:
    def test_requirement_one_equals_core_coverage(self, small_values):
        strategy = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        for k in (1, 2, 5):
            assert capacity_coverage(small_values, strategy, k, 1) == pytest.approx(
                coverage(small_values, strategy, k), rel=1e-10
            )

    def test_higher_requirements_reduce_coverage(self, small_values):
        strategy = Strategy.uniform(4)
        k = 4
        values = [capacity_coverage(small_values, strategy, k, r) for r in (1, 2, 3)]
        assert values[0] > values[1] > values[2]

    def test_bounded_by_total_value(self, small_values):
        strategy = Strategy.uniform(4)
        assert capacity_coverage(small_values, strategy, 6, 2) <= small_values.total

    def test_gradient_matches_finite_differences(self, small_values):
        k = 4
        requirements = np.array([1, 2, 2, 3])
        p = np.array([0.4, 0.3, 0.2, 0.1])
        grad = capacity_coverage_gradient(small_values, p, k, requirements)
        h = 1e-6
        for x in range(4):
            bumped = p.copy()
            bumped[x] += h
            numeric = (
                capacity_coverage(small_values, bumped, k, requirements)
                - capacity_coverage(small_values, p, k, requirements)
            ) / h
            assert grad[x] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_optimizer_matches_sigma_star_when_requirement_is_one(self, small_values):
        k = 3
        result = maximize_capacity_coverage(small_values, k, 1)
        closed = optimal_coverage_strategy(small_values, k)
        assert result.coverage == pytest.approx(closed.coverage, abs=1e-7)

    def test_optimizer_beats_baselines_with_requirements(self, small_values):
        k = 5
        requirements = np.array([2, 1, 1, 1])
        result = maximize_capacity_coverage(small_values, k, requirements)
        for baseline in (
            Strategy.uniform(4),
            Strategy.proportional(small_values.as_array()),
            sigma_star(small_values, k).strategy,
        ):
            assert result.coverage >= capacity_coverage(small_values, baseline, k, requirements) - 1e-8
        assert result.coverage <= optimal_coverage(small_values, k) + 1e-9

    def test_requirements_shift_mass_towards_demanding_valuable_sites(self):
        # A valuable site that needs 2 visitors draws more probability than it
        # would under the standard coverage objective.
        values = SiteValues.from_values([1.0, 0.8, 0.2])
        k = 4
        requirements = np.array([2, 1, 1])
        constrained = maximize_capacity_coverage(values, k, requirements)
        unconstrained = optimal_coverage_strategy(values, k)
        assert constrained.strategy.as_array()[0] > unconstrained.strategy.as_array()[0]

    def test_validation(self, small_values):
        with pytest.raises(ValueError):
            capacity_coverage(small_values, Strategy.uniform(4), 2, 0)
        with pytest.raises(ValueError):
            capacity_coverage(small_values, Strategy.uniform(4), 2, np.array([1, 2]))
        with pytest.raises(ValueError, match="integers"):
            capacity_coverage(small_values, Strategy.uniform(4), 2, 2.7)


class TestRepeatedDispersal:
    def test_full_depletion_single_round_matches_coverage(self, small_values):
        star = sigma_star(small_values, 3).strategy
        result = simulate_repeated_dispersal(
            small_values, 3, constant_schedule(star), rounds=1, depletion=0.0,
            n_trials=4_000, rng=0,
        )
        exact = coverage(small_values, star, 3)
        assert result.cumulative_consumption_mean == pytest.approx(exact, abs=0.03)

    def test_consumption_plus_remaining_is_total(self, small_values):
        star = sigma_star(small_values, 3).strategy
        result = simulate_repeated_dispersal(
            small_values, 3, constant_schedule(star), rounds=4, depletion=0.25,
            n_trials=500, rng=1,
        )
        assert result.cumulative_consumption_mean + result.remaining_value_mean == pytest.approx(
            small_values.total, rel=1e-9
        )

    def test_adaptive_schedule_beats_constant_schedule(self, medium_values):
        # Re-solving sigma_star on the depleted values consumes more over the
        # horizon than repeating the round-one strategy.
        k, rounds = 4, 5
        star = sigma_star(medium_values, k).strategy
        constant = simulate_repeated_dispersal(
            medium_values, k, constant_schedule(star), rounds=rounds, depletion=0.0,
            n_trials=1_500, rng=2,
        )
        adaptive = simulate_repeated_dispersal(
            medium_values, k, adaptive_sigma_star_schedule(k), rounds=rounds, depletion=0.0,
            n_trials=1_500, rng=2,
        )
        assert adaptive.cumulative_consumption_mean > constant.cumulative_consumption_mean

    def test_per_round_consumption_decreases_with_depletion(self, small_values):
        star = sigma_star(small_values, 3).strategy
        result = simulate_repeated_dispersal(
            small_values, 3, constant_schedule(star), rounds=5, depletion=0.0,
            n_trials=2_000, rng=3,
        )
        assert np.all(np.diff(result.per_round_consumption) <= 1e-9)

    def test_validation(self, small_values):
        star = sigma_star(small_values, 2).strategy
        with pytest.raises(ValueError):
            simulate_repeated_dispersal(
                small_values, 2, constant_schedule(star), rounds=0
            )
        with pytest.raises(ValueError):
            simulate_repeated_dispersal(
                small_values, 2, constant_schedule(star), depletion=1.5
            )
        with pytest.raises(ValueError):
            simulate_repeated_dispersal(
                small_values, 2, constant_schedule(Strategy.uniform(3))
            )

    @pytest.mark.parametrize("bad", [1.0, -0.01, float("nan"), float("inf")])
    def test_depletion_bounds_error_states_the_contract(self, small_values, bad):
        star = sigma_star(small_values, 2).strategy
        with pytest.raises(ValueError, match=r"depletion must lie in \[0, 1\)"):
            simulate_repeated_dispersal(
                small_values, 2, constant_schedule(star), depletion=bad
            )
        with pytest.raises(ValueError, match=r"depletion must lie in \[0, 1\)"):
            expected_repeated_dispersal(
                small_values, 2, constant_schedule(star), depletion=bad
            )

    def test_zero_depletion_fully_consumes_visited_sites(self, small_values):
        # Regression for the depletion == 0 contract: one round with a point
        # mass on the top site consumes exactly that site's value, and the
        # site contributes nothing in later rounds.
        point = constant_schedule(Strategy.point_mass(small_values.m, 0))
        result = simulate_repeated_dispersal(
            small_values, 3, point, rounds=3, depletion=0.0, n_trials=64, rng=0
        )
        top = float(small_values.as_array()[0])
        assert result.per_round_consumption[0] == pytest.approx(top, abs=1e-12)
        np.testing.assert_allclose(result.per_round_consumption[1:], 0.0, atol=1e-12)
        assert result.remaining_value_mean == pytest.approx(
            small_values.total - top, abs=1e-12
        )
        exact = expected_repeated_dispersal(
            small_values, 3, point, rounds=3, depletion=0.0
        )
        assert exact.cumulative_consumption == pytest.approx(top, abs=1e-12)
        assert exact.remaining_value == pytest.approx(small_values.total - top, abs=1e-12)

    def test_expected_track_matches_monte_carlo(self, small_values):
        schedule = adaptive_sigma_star_schedule(3)
        exact = expected_repeated_dispersal(
            small_values, 3, schedule, rounds=4, depletion=0.25
        )
        simulated = simulate_repeated_dispersal(
            small_values, 3, schedule, rounds=4, depletion=0.25, n_trials=6_000, rng=4
        )
        assert simulated.cumulative_consumption_mean == pytest.approx(
            exact.cumulative_consumption, abs=0.05
        )
        np.testing.assert_allclose(
            simulated.per_round_consumption, exact.per_round_consumption, atol=0.05
        )
        assert exact.cumulative_consumption + exact.remaining_value == pytest.approx(
            small_values.total, rel=1e-9
        )


class TestGroupCompetition:
    def test_exclusive_first_group_consumes_optimal_coverage(self, medium_values):
        result = two_group_competition(
            medium_values, ExclusivePolicy(), SharingPolicy(), k_first=5, k_second=5
        )
        assert result.first_consumption == pytest.approx(optimal_coverage(medium_values, 5), rel=1e-9)

    def test_exclusive_group_beats_sharing_group_when_first(self, medium_values):
        exclusive_first = two_group_competition(
            medium_values, ExclusivePolicy(), SharingPolicy(), k_first=5
        )
        sharing_first = two_group_competition(
            medium_values, SharingPolicy(), ExclusivePolicy(), k_first=5
        )
        # Going first with the exclusive rule secures more than going first with sharing.
        assert exclusive_first.first_consumption > sharing_first.first_consumption
        # And leaves less for the opponent.
        assert exclusive_first.second_consumption < sharing_first.second_consumption
        assert exclusive_first.first_share > sharing_first.first_share

    def test_aggressive_group_covers_less_than_exclusive(self, medium_values):
        aggressive_first = two_group_competition(
            medium_values, AggressivePolicy(0.5), SharingPolicy(), k_first=5
        )
        exclusive_first = two_group_competition(
            medium_values, ExclusivePolicy(), SharingPolicy(), k_first=5
        )
        assert aggressive_first.first_consumption < exclusive_first.first_consumption

    def test_individual_payoffs_reported(self, medium_values):
        result = two_group_competition(
            medium_values, SharingPolicy(), SharingPolicy(), k_first=4, k_second=6
        )
        assert result.first_individual_payoff > 0
        assert result.second_individual_payoff > 0
        # Second group feeds on leftovers: lower per-capita intake.
        assert result.second_individual_payoff < result.first_individual_payoff

    def test_conservation_of_value(self, medium_values):
        result = two_group_competition(
            medium_values, ExclusivePolicy(), ExclusivePolicy(), k_first=3
        )
        total = result.first_consumption + result.second_consumption + result.leftover_value
        assert total == pytest.approx(medium_values.total, rel=1e-6)

    def test_default_second_group_size(self, small_values):
        result = two_group_competition(small_values, SharingPolicy(), SharingPolicy(), k_first=3)
        assert result.first_consumption > 0 and result.second_consumption > 0

    @pytest.mark.parametrize(
        "first", [SharingPolicy(), ExclusivePolicy()], ids=["sharing", "exclusive"]
    )
    def test_raw_values_keep_the_callers_site_order(self, small_values, first):
        order = np.array([2, 0, 3, 1])
        shuffled = two_group_competition(
            small_values.as_array()[order], first, AggressivePolicy(0.5), k_first=3
        )
        sorted_ = two_group_competition(small_values, first, AggressivePolicy(0.5), k_first=3)
        for field in ("first_strategy", "second_strategy"):
            np.testing.assert_allclose(
                getattr(shuffled, field).as_array(),
                getattr(sorted_, field).as_array()[order],
                atol=1e-12,
            )
        assert shuffled.first_consumption == pytest.approx(sorted_.first_consumption, rel=1e-12)
