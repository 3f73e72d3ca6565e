"""Tests for the Monte-Carlo simulation engine and estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coverage import coverage, expected_sites_visited
from repro.core.payoffs import expected_payoff, site_values
from repro.core.policies import AggressivePolicy, ExclusivePolicy, SharingPolicy
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.core.welfare import individual_payoff
from repro.simulation import (
    DispersalSimulator,
    empirical_coverage,
    empirical_individual_payoff,
    empirical_site_values,
    simulate_dispersal,
    simulate_profile,
    spawn_generators,
    standard_error,
)

N_TRIALS = 40_000
SIGMAS = 5.0  # calibrated tolerance: five standard errors


class TestEngineAgainstExactFormulas:
    def test_coverage_matches_formula(self, small_values, named_policy):
        strategy = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        k = 3
        result = simulate_dispersal(small_values, strategy, k, named_policy, N_TRIALS, rng=0)
        exact = coverage(small_values, strategy, k)
        assert abs(result.coverage_mean - exact) < SIGMAS * max(result.coverage_sem, 1e-9)

    def test_payoff_matches_formula(self, small_values, named_policy):
        strategy = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        k = 3
        result = simulate_dispersal(small_values, strategy, k, named_policy, N_TRIALS, rng=1)
        exact = individual_payoff(small_values, strategy, k, named_policy)
        assert abs(result.payoff_mean - exact) < SIGMAS * max(result.payoff_sem, 1e-9)

    def test_sites_visited_matches_formula(self, small_values):
        strategy = Strategy.uniform(4)
        k = 3
        result = simulate_dispersal(small_values, strategy, k, ExclusivePolicy(), N_TRIALS, rng=2)
        exact = expected_sites_visited(strategy, k)
        assert result.sites_visited_mean == pytest.approx(exact, abs=0.02)

    def test_negative_payoffs_simulated_correctly(self, small_values):
        strategy = Strategy.point_mass(4, 0)
        k = 3
        policy = AggressivePolicy(1.0)
        result = simulate_dispersal(small_values, strategy, k, policy, 5_000, rng=3)
        # Everyone collides on site 0, so each player earns -f(0) deterministically.
        assert result.payoff_mean == pytest.approx(-1.0)
        assert result.collision_rate == pytest.approx(1.0)

    def test_collision_rate_zero_for_disjoint_point_masses(self, small_values):
        profile = [Strategy.point_mass(4, 0), Strategy.point_mass(4, 1), Strategy.point_mass(4, 2)]
        result = simulate_profile(small_values, profile, ExclusivePolicy(), 2_000, rng=4)
        np.testing.assert_allclose(
            result.player_payoff_means, [1.0, 0.6, 0.3], atol=1e-12
        )

    def test_occupancy_histogram_sums_to_trials_times_sites(self, small_values):
        result = simulate_dispersal(
            small_values, Strategy.uniform(4), 3, SharingPolicy(), 1_000, rng=5
        )
        assert result.occupancy_histogram.sum() == 1_000 * 4

    def test_site_visit_frequencies_match_formula(self, small_values):
        strategy = Strategy(np.array([0.55, 0.25, 0.15, 0.05]))
        k = 2
        result = simulate_dispersal(small_values, strategy, k, SharingPolicy(), N_TRIALS, rng=6)
        exact = 1.0 - (1.0 - strategy.as_array()) ** k
        np.testing.assert_allclose(result.site_visit_frequencies, exact, atol=0.02)

    def test_batching_gives_identical_totals(self, small_values):
        strategy = Strategy.uniform(4)
        small_batch = DispersalSimulator(small_values, 2, SharingPolicy(), batch_size=97)
        large_batch = DispersalSimulator(small_values, 2, SharingPolicy(), batch_size=100_000)
        a = small_batch.run(strategy, 1_000, rng=7)
        b = large_batch.run(strategy, 1_000, rng=7)
        # Same seed but different batch splits: results are statistically
        # compatible (not bitwise identical); check they are close.
        assert abs(a.coverage_mean - b.coverage_mean) < 0.05

    def test_reproducibility_with_same_seed(self, small_values):
        strategy = Strategy.uniform(4)
        a = simulate_dispersal(small_values, strategy, 3, SharingPolicy(), 2_000, rng=11)
        b = simulate_dispersal(small_values, strategy, 3, SharingPolicy(), 2_000, rng=11)
        assert a.coverage_mean == b.coverage_mean
        assert a.payoff_mean == b.payoff_mean

    def test_profile_simulation_payoffs_match_group_formula(self, small_values):
        # Player 0 plays sigma_star, players 1-2 play uniform: check player 0's
        # mean payoff against the exact payoff E(sigma_star; uniform^2).
        star = sigma_star(small_values, 3).strategy
        uniform = Strategy.uniform(4)
        policy = ExclusivePolicy()
        result = simulate_profile(small_values, [star, uniform, uniform], policy, N_TRIALS, rng=8)
        exact = expected_payoff(small_values, star, uniform, 3, policy)
        sem = result.player_payoff_sems[0]
        assert abs(result.player_payoff_means[0] - exact) < SIGMAS * max(sem, 1e-9)

    def test_validation_errors(self, small_values):
        with pytest.raises(ValueError):
            simulate_dispersal(small_values, Strategy.uniform(3), 2, SharingPolicy(), 10)
        with pytest.raises(ValueError):
            simulate_profile(small_values, [Strategy.uniform(4)] * 2, SharingPolicy(), 0)
        with pytest.raises(ValueError):
            DispersalSimulator(small_values, 2, SharingPolicy()).run_profile(
                [Strategy.uniform(4)], 10
            )


class TestEstimators:
    def test_standard_error_basics(self):
        assert standard_error(np.array([1.0])) == np.inf
        assert standard_error(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_empirical_coverage_wrapper(self, small_values):
        strategy = Strategy.uniform(4)
        mean, sem = empirical_coverage(small_values, strategy, 2, SharingPolicy(), 20_000, rng=0)
        exact = coverage(small_values, strategy, 2)
        assert abs(mean - exact) < SIGMAS * sem

    def test_empirical_individual_payoff_wrapper(self, small_values):
        strategy = Strategy.uniform(4)
        mean, sem = empirical_individual_payoff(
            small_values, strategy, 3, ExclusivePolicy(), 20_000, rng=1
        )
        exact = individual_payoff(small_values, strategy, 3, ExclusivePolicy())
        assert abs(mean - exact) < SIGMAS * sem

    def test_empirical_site_values_match_eq2(self, small_values):
        strategy = Strategy(np.array([0.5, 0.3, 0.15, 0.05]))
        k = 3
        means, sems = empirical_site_values(
            small_values, strategy, k, SharingPolicy(), 30_000, rng=2
        )
        exact = site_values(small_values, strategy, k, SharingPolicy())
        for mean, sem, target in zip(means, sems, exact):
            assert abs(mean - target) < SIGMAS * max(sem, 1e-9)

    def test_empirical_site_values_single_player(self, small_values):
        means, _ = empirical_site_values(
            small_values, Strategy.uniform(4), 1, SharingPolicy(), 100, rng=3
        )
        np.testing.assert_allclose(means, small_values.as_array())

    def test_empirical_payoff_of_equilibrium_matches_nu(self, small_values):
        # At sigma_star every player's expected payoff equals alpha^(k-1).
        k = 3
        star = sigma_star(small_values, k)
        mean, sem = empirical_individual_payoff(
            small_values, star.strategy, k, ExclusivePolicy(), N_TRIALS, rng=4
        )
        assert abs(mean - star.equilibrium_value) < SIGMAS * max(sem, 1e-9)


class TestRNGHelpers:
    def test_spawn_generators_count_and_independence(self):
        gens = spawn_generators(3, rng=0)
        assert len(gens) == 3
        draws = [g.random(4) for g in gens]
        assert not np.allclose(draws[0], draws[1])

    def test_spawn_from_existing_generator(self):
        base = np.random.default_rng(5)
        gens = spawn_generators(2, rng=base)
        assert len(gens) == 2

    def test_spawn_reproducible_from_seed(self):
        a = [g.random() for g in spawn_generators(2, rng=42)]
        b = [g.random() for g in spawn_generators(2, rng=42)]
        assert a == b

    def test_spawn_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn_generators(0)
