"""The Section 5.1 / 5.2 scenario models, one instance at a time.

Each test calls a batch kernel of :mod:`repro.batch.scenarios` or
:mod:`repro.batch.extensions` on a one-row matrix ``f[None, :]`` — the call a
caller with a single instance makes — and checks a model property: the
reduction to the core model, the direction of an effect, or agreement with
an oracle of :mod:`oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_oracle_ifd,
    expected_repeated_dispersal,
    maximize_capacity_coverage,
    maximize_coverage_waterfilling,
    simulate_repeated_dispersal,
)
from repro.batch import (
    capacity_coverage_batch,
    capacity_coverage_gradient_batch,
    cost_adjusted_ifd_batch,
    cost_adjusted_site_values_batch,
    repeated_dispersal_batch,
    two_group_competition_batch,
)
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
from repro.utils.coercion import values_array


def one_row(values) -> np.ndarray:
    """A single instance as a ``(1, M)`` batch, in the caller's site order."""
    return values_array(values)[None, :]


def capacity(values, strategy, k, requirements) -> float:
    return float(capacity_coverage_batch(one_row(values), one_row(strategy), k, requirements)[0])


class TestTravelCosts:
    def test_zero_costs_reduce_to_core_model(self, small_values):
        for policy in (ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.2)):
            core = ideal_free_distribution(small_values, 3, policy)
            extended = cost_adjusted_ifd_batch(one_row(small_values), 0.0, 3, policy)
            assert Strategy(extended.probabilities[0]).total_variation(core.strategy) < 1e-7
            assert extended.values[0] == pytest.approx(core.value, abs=1e-7)

    @pytest.mark.parametrize(
        "costs", [[0.3, 0.0, 0.0, 0.0], np.linspace(0.2, 0.0, 4)], ids=["top-site", "ramp"]
    )
    def test_costs_shift_mass_away_from_expensive_sites(self, small_values, costs):
        # Make the top site expensive to reach: its equilibrium probability
        # drops, and so does the coverage.
        free = ideal_free_distribution(small_values, 3, ExclusivePolicy())
        priced = cost_adjusted_ifd_batch(one_row(small_values), np.asarray(costs), 3, ExclusivePolicy())
        assert priced.probabilities[0, 0] < free.strategy.as_array()[0]
        assert coverage(small_values, priced.probabilities[0], 3) < coverage(
            small_values, free.strategy, 3
        )

    def test_equal_payoffs_on_support(self, small_values):
        costs = np.array([0.2, 0.1, 0.05, 0.0])
        result = cost_adjusted_ifd_batch(one_row(small_values), costs, 4, SharingPolicy())
        p = result.probabilities[0]
        nu = cost_adjusted_site_values_batch(one_row(small_values), costs, p[None, :], 4, SharingPolicy())[0]
        support = p > 1e-9
        spread = nu[support].max() - nu[support].min()
        assert spread < 1e-6
        if np.any(~support):
            assert nu[~support].max() <= nu[support].mean() + 1e-6
        payoff = assert_oracle_ifd(small_values.as_array(), costs, p, 4, SharingPolicy())
        assert result.values[0] == pytest.approx(payoff, abs=1e-9)

    def test_net_value_can_be_negative(self):
        # One site, expensive: the players must still go there and eat the loss.
        values = SiteValues.uniform(1)
        result = cost_adjusted_ifd_batch(one_row(values), 2.0, 3, ExclusivePolicy())
        assert result.probabilities[0, 0] == pytest.approx(1.0)
        assert result.values[0] < 0

    def test_single_player_picks_best_net_site(self, small_values):
        costs = np.array([0.9, 0.0, 0.0, 0.0])
        result = cost_adjusted_ifd_batch(one_row(small_values), costs, 1, SharingPolicy())
        # Net values: [0.1, 0.6, 0.3, 0.15] -> site 1 is best.
        assert Strategy(result.probabilities[0]) == Strategy.point_mass(4, 1)

    def test_constant_policy_concentrates_on_best_net_site(self, small_values):
        costs = np.array([0.9, 0.0, 0.0, 0.0])
        result = cost_adjusted_ifd_batch(one_row(small_values), costs, 3, ConstantPolicy())
        assert Strategy(result.probabilities[0]) == Strategy.point_mass(4, 1)

    def test_coverage_at_costly_equilibrium_is_below_optimum(self, small_values):
        costs = np.array([0.0, 0.0, 0.25, 0.25])
        result = cost_adjusted_ifd_batch(one_row(small_values), costs, 3, ExclusivePolicy())
        assert coverage(small_values, result.probabilities[0], 3) <= optimal_coverage(small_values, 3)

    def test_validation(self, small_values):
        with pytest.raises(ValueError):
            cost_adjusted_ifd_batch(one_row(small_values), np.array([0.1, 0.2]), 2, SharingPolicy())
        with pytest.raises(ValueError):
            cost_adjusted_ifd_batch(one_row(small_values), -0.5, 2, SharingPolicy())

    @given(
        seed=st.integers(0, 500),
        k=st.integers(2, 5),
        scale=st.floats(0.0, 0.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_cost_adjusted_equilibrium_is_unexploitable(self, seed, k, scale):
        rng = np.random.default_rng(seed)
        values = one_row(SiteValues.random(5, rng))
        costs = rng.uniform(0.0, scale, size=5)
        policy = SharingPolicy()
        p = cost_adjusted_ifd_batch(values, costs, k, policy).probabilities
        nu = cost_adjusted_site_values_batch(values, costs, p, k, policy)[0]
        own = float(np.dot(p[0], nu))
        assert nu.max() <= own + 1e-6


class TestCapacityCoverage:
    def test_requirement_one_equals_core_coverage(self, small_values):
        strategy = np.array([0.4, 0.3, 0.2, 0.1])
        for k in (1, 2, 5):
            assert capacity(small_values, strategy, k, 1) == pytest.approx(
                coverage(small_values, strategy, k), rel=1e-10
            )

    def test_higher_requirements_reduce_coverage(self, small_values):
        strategy = Strategy.uniform(4)
        k = 4
        values = [capacity(small_values, strategy, k, r) for r in (1, 2, 3)]
        assert values[0] > values[1] > values[2]

    def test_bounded_by_total_value(self, small_values):
        strategy = Strategy.uniform(4)
        assert capacity(small_values, strategy, 6, 2) <= small_values.total

    def test_gradient_matches_finite_differences(self, small_values):
        k = 4
        requirements = np.array([1, 2, 2, 3])
        p = np.array([0.4, 0.3, 0.2, 0.1])
        grad = capacity_coverage_gradient_batch(one_row(small_values), p[None, :], k, requirements)[0]
        h = 1e-6
        for x in range(4):
            bumped = p.copy()
            bumped[x] += h
            numeric = (
                capacity(small_values, bumped, k, requirements)
                - capacity(small_values, p, k, requirements)
            ) / h
            assert grad[x] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_optimizer_matches_sigma_star_when_requirement_is_one(self, small_values):
        k = 3
        _, optimum = maximize_capacity_coverage(small_values, k, 1)
        closed = optimal_coverage_strategy(small_values, k)
        assert optimum[0] == pytest.approx(closed.coverage, abs=1e-7)

    def test_optimizer_beats_baselines_with_requirements(self, small_values):
        k = 5
        requirements = np.array([2, 1, 1, 1])
        _, optimum = maximize_capacity_coverage(small_values, k, requirements)
        for baseline in (
            Strategy.uniform(4),
            Strategy.proportional(small_values.as_array()),
            sigma_star(small_values, k).strategy,
        ):
            assert optimum[0] >= capacity(small_values, baseline, k, requirements) - 1e-8
        assert optimum[0] <= optimal_coverage(small_values, k) + 1e-9

    def test_requirements_shift_mass_towards_demanding_valuable_sites(self):
        # A valuable site that needs 2 visitors draws more probability than it
        # would under the standard coverage objective.
        values = SiteValues.from_values([1.0, 0.8, 0.2])
        k = 4
        requirements = np.array([2, 1, 1])
        constrained, _ = maximize_capacity_coverage(values, k, requirements)
        unconstrained = optimal_coverage_strategy(values, k)
        assert constrained[0, 0] > unconstrained.strategy.as_array()[0]

    def test_validation(self, small_values):
        with pytest.raises(ValueError):
            capacity(small_values, Strategy.uniform(4), 2, 0)
        with pytest.raises(ValueError):
            capacity(small_values, Strategy.uniform(4), 2, np.array([1, 2]))
        with pytest.raises(ValueError, match="integers"):
            capacity(small_values, Strategy.uniform(4), 2, 2.7)

    def test_nan_strategy_is_refused(self):
        # A NaN entry used to read as a never-visited site and give a finite coverage.
        with pytest.raises(ValueError, match=r"probs must lie in \[0, 1\]"):
            capacity_coverage_batch([[1.0, 0.5]], [[np.nan, 0.5]], 3, 2)


def constant_schedule(strategy):
    """A schedule that plays ``strategy`` every round."""
    return lambda _round, _current: strategy


def adaptive_schedule(k):
    """Re-solve the coverage optimum (``sigma_star``, Theorem 4) on the expected values."""
    return lambda _round, current: maximize_coverage_waterfilling(np.maximum(current, 1e-9), k).strategy


class TestRepeatedDispersal:
    def test_full_depletion_single_round_matches_coverage(self, small_values):
        star = sigma_star(small_values, 3).strategy
        result = repeated_dispersal_batch(
            one_row(small_values), 3, rounds=1, depletion=0.0, schedule="constant",
            strategies=one_row(star),
        )
        exact = coverage(small_values, star, 3)
        assert result.cumulative_consumption[0] == pytest.approx(exact, rel=1e-12)

    def test_consumption_plus_remaining_is_total(self, small_values):
        for schedule in ("constant", "adaptive"):
            result = repeated_dispersal_batch(
                one_row(small_values), 3, rounds=4, depletion=0.25, schedule=schedule
            )
            assert result.cumulative_consumption[0] + result.remaining_values[0] == pytest.approx(
                small_values.total, rel=1e-9
            )

    def test_adaptive_schedule_beats_constant_schedule(self, medium_values):
        # Re-solving sigma_star on the depleted values consumes more over the
        # horizon than repeating the round-one strategy.
        k, rounds = 4, 5
        constant = repeated_dispersal_batch(
            one_row(medium_values), k, rounds=rounds, depletion=0.0, schedule="constant"
        )
        adaptive = repeated_dispersal_batch(
            one_row(medium_values), k, rounds=rounds, depletion=0.0, schedule="adaptive"
        )
        assert adaptive.cumulative_consumption[0] > constant.cumulative_consumption[0]

    def test_per_round_consumption_decreases_with_depletion(self, small_values):
        result = repeated_dispersal_batch(
            one_row(small_values), 3, rounds=5, depletion=0.0, schedule="constant"
        )
        assert np.all(np.diff(result.per_round_consumption[0]) <= 1e-9)

    def test_validation(self, small_values):
        with pytest.raises(ValueError):
            repeated_dispersal_batch(one_row(small_values), 2, rounds=0)
        with pytest.raises(ValueError):
            repeated_dispersal_batch(one_row(small_values), 2, depletion=1.5)
        with pytest.raises(ValueError):
            repeated_dispersal_batch(
                one_row(small_values), 2, schedule="constant",
                strategies=one_row(Strategy.uniform(3)),
            )

    @pytest.mark.parametrize("bad", [1.0, -0.01, float("nan"), float("inf")])
    def test_depletion_bounds_error_states_the_contract(self, small_values, bad):
        for schedule in ("constant", "adaptive"):
            with pytest.raises(ValueError, match=r"depletion must lie in \[0, 1\)"):
                repeated_dispersal_batch(
                    one_row(small_values), 2, schedule=schedule, depletion=bad
                )

    def test_zero_depletion_fully_consumes_visited_sites(self, small_values):
        # Regression for the depletion == 0 contract: one round with a point
        # mass on the top site consumes exactly that site's value, and the
        # site contributes nothing in later rounds.
        point = Strategy.point_mass(small_values.m, 0)
        result = repeated_dispersal_batch(
            one_row(small_values), 3, rounds=3, depletion=0.0, schedule="constant",
            strategies=one_row(point),
        )
        top = float(small_values.as_array()[0])
        assert result.per_round_consumption[0, 0] == pytest.approx(top, abs=1e-12)
        np.testing.assert_allclose(result.per_round_consumption[0, 1:], 0.0, atol=1e-12)
        assert result.cumulative_consumption[0] == pytest.approx(top, abs=1e-12)
        assert result.remaining_values[0] == pytest.approx(small_values.total - top, abs=1e-12)
        simulated, remaining = simulate_repeated_dispersal(
            small_values, 3, constant_schedule(point), rounds=3, depletion=0.0,
            n_trials=64, rng=0,
        )
        np.testing.assert_allclose(simulated, result.per_round_consumption[0], atol=1e-12)
        assert remaining == pytest.approx(small_values.total - top, abs=1e-12)

    def test_expected_track_matches_monte_carlo(self, small_values):
        exact = repeated_dispersal_batch(
            one_row(small_values), 3, rounds=4, depletion=0.25, schedule="adaptive"
        )
        simulated, remaining = simulate_repeated_dispersal(
            small_values, 3, adaptive_schedule(3), rounds=4, depletion=0.25,
            n_trials=6_000, rng=4,
        )
        assert simulated.sum() == pytest.approx(exact.cumulative_consumption[0], abs=0.05)
        np.testing.assert_allclose(simulated, exact.per_round_consumption[0], atol=0.05)
        assert remaining == pytest.approx(exact.remaining_values[0], abs=0.05)
        # The one-row recursion under the same schedule is the same track.
        per_round, _ = expected_repeated_dispersal(
            small_values, 3, adaptive_schedule(3), rounds=4, depletion=0.25
        )
        np.testing.assert_allclose(per_round, exact.per_round_consumption[0], atol=1e-9)


def compete(values, first, second, k_first, k_second=None):
    return two_group_competition_batch(one_row(values), first, second, k_first, k_second)


class TestGroupCompetition:
    def test_exclusive_first_group_consumes_optimal_coverage(self, medium_values):
        result = compete(medium_values, ExclusivePolicy(), SharingPolicy(), k_first=5, k_second=5)
        assert result.first_consumption[0] == pytest.approx(
            optimal_coverage(medium_values, 5), rel=1e-9
        )

    def test_exclusive_group_beats_sharing_group_when_first(self, medium_values):
        exclusive_first = compete(medium_values, ExclusivePolicy(), SharingPolicy(), k_first=5)
        sharing_first = compete(medium_values, SharingPolicy(), ExclusivePolicy(), k_first=5)
        # Going first with the exclusive rule secures more than going first with sharing.
        assert exclusive_first.first_consumption[0] > sharing_first.first_consumption[0]
        # And leaves less for the opponent.
        assert exclusive_first.second_consumption[0] < sharing_first.second_consumption[0]
        assert exclusive_first.first_shares[0] > sharing_first.first_shares[0]

    def test_aggressive_group_covers_less_than_exclusive(self, medium_values):
        aggressive_first = compete(medium_values, AggressivePolicy(0.5), SharingPolicy(), k_first=5)
        exclusive_first = compete(medium_values, ExclusivePolicy(), SharingPolicy(), k_first=5)
        assert aggressive_first.first_consumption[0] < exclusive_first.first_consumption[0]

    def test_individual_payoffs_reported(self, medium_values):
        result = compete(medium_values, SharingPolicy(), SharingPolicy(), k_first=4, k_second=6)
        assert result.first_individual_payoffs[0] > 0
        assert result.second_individual_payoffs[0] > 0
        # Second group feeds on leftovers: lower per-capita intake.
        assert result.second_individual_payoffs[0] < result.first_individual_payoffs[0]

    def test_conservation_of_value(self, medium_values):
        result = compete(medium_values, ExclusivePolicy(), ExclusivePolicy(), k_first=3)
        total = result.first_consumption + result.second_consumption + result.leftover_values
        assert total[0] == pytest.approx(medium_values.total, rel=1e-6)

    def test_default_second_group_size(self, small_values):
        result = compete(small_values, SharingPolicy(), SharingPolicy(), k_first=3)
        np.testing.assert_array_equal(result.k_second, [3])
        assert result.first_consumption[0] > 0 and result.second_consumption[0] > 0

    @pytest.mark.parametrize(
        "first", [SharingPolicy(), ExclusivePolicy()], ids=["sharing", "exclusive"]
    )
    def test_raw_values_keep_the_callers_site_order(self, small_values, first):
        order = np.array([2, 0, 3, 1])
        shuffled = compete(small_values.as_array()[order], first, AggressivePolicy(0.5), k_first=3)
        sorted_ = compete(small_values, first, AggressivePolicy(0.5), k_first=3)
        for field in ("first_strategies", "second_strategies"):
            np.testing.assert_allclose(
                getattr(shuffled, field)[0], getattr(sorted_, field)[0, order], atol=1e-12
            )
        assert shuffled.first_consumption[0] == pytest.approx(
            sorted_.first_consumption[0], rel=1e-12
        )
