"""Tests for coverage optimisation (Theorem 4, Observation 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import maximize_coverage_projected_gradient, maximize_coverage_waterfilling
from repro.core.coverage import coverage, full_coordination_coverage
from repro.core.optimal_coverage import (
    observation1_holds,
    observation1_lower_bound,
    optimal_coverage,
    optimal_coverage_strategy,
)
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues


class TestClosedFormOptimum:
    def test_equals_sigma_star(self, small_values):
        for k in (2, 3, 5):
            optimum = optimal_coverage_strategy(small_values, k)
            star = sigma_star(small_values, k)
            np.testing.assert_allclose(
                optimum.strategy.as_array(), star.strategy.as_array(), atol=1e-12
            )
            assert optimum.coverage == pytest.approx(coverage(small_values, star.strategy, k))

    def test_optimal_coverage_value(self, small_values):
        assert optimal_coverage(small_values, 3) == pytest.approx(
            optimal_coverage_strategy(small_values, 3).coverage
        )


class TestIndependentOptimisers:
    def test_waterfilling_matches_closed_form(self, small_values):
        for k in (1, 2, 4, 9):
            wf = maximize_coverage_waterfilling(small_values, k)
            closed = optimal_coverage_strategy(small_values, k)
            assert wf.coverage == pytest.approx(closed.coverage, rel=1e-9)
            np.testing.assert_allclose(
                wf.strategy.as_array(), closed.strategy.as_array(), atol=1e-6
            )

    def test_projected_gradient_matches_closed_form(self, small_values):
        for k in (2, 3):
            pg = maximize_coverage_projected_gradient(small_values, k)
            closed = optimal_coverage_strategy(small_values, k)
            assert pg.coverage == pytest.approx(closed.coverage, abs=1e-8)

    def test_projected_gradient_with_custom_start(self, small_values):
        start = Strategy.point_mass(4, 3)
        pg = maximize_coverage_projected_gradient(small_values, 3, initial=start)
        closed = optimal_coverage_strategy(small_values, 3)
        assert pg.coverage == pytest.approx(closed.coverage, abs=1e-6)

    def test_waterfilling_single_player(self, small_values):
        wf = maximize_coverage_waterfilling(small_values, 1)
        assert wf.strategy == Strategy.point_mass(4, 0)

    @given(
        seed=st.integers(min_value=0, max_value=3000),
        m=st.integers(min_value=2, max_value=20),
        k=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_waterfilling_agrees_with_sigma_star_property(self, seed, m, k):
        values = SiteValues.random(m, np.random.default_rng(seed))
        wf = maximize_coverage_waterfilling(values, k)
        closed = sigma_star(values, k)
        assert wf.coverage == pytest.approx(coverage(values, closed.strategy, k), rel=1e-8)


class TestTheorem4:
    """sigma_star beats every other symmetric strategy on coverage."""

    def test_beats_uniform_and_proportional(self, small_values):
        k = 3
        best = optimal_coverage(small_values, k)
        for challenger in (
            Strategy.uniform(4),
            Strategy.proportional(small_values.as_array()),
            Strategy.uniform_over_top(4, k),
            Strategy.point_mass(4, 0),
        ):
            assert best >= coverage(small_values, challenger, k) - 1e-12

    @given(
        seed=st.integers(min_value=0, max_value=3000),
        m=st.integers(min_value=1, max_value=15),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_random_strategy_beats_sigma_star(self, seed, m, k):
        rng = np.random.default_rng(seed)
        values = SiteValues.random(m, rng)
        best = optimal_coverage(values, k)
        for _ in range(5):
            challenger = Strategy.random(m, rng)
            assert coverage(values, challenger, k) <= best + 1e-9

    def test_uniqueness_local_perturbations_strictly_worse(self, small_values):
        k = 3
        star = sigma_star(small_values, k)
        best = coverage(small_values, star.strategy, k)
        rng = np.random.default_rng(1)
        for scale in (0.01, 0.05, 0.2):
            perturbed = star.strategy.perturbed(rng, scale=scale)
            if perturbed.total_variation(star.strategy) > 1e-9:
                assert coverage(small_values, perturbed, k) < best


class TestObservation1:
    def test_bound_value(self, small_values):
        k = 2
        expected = (1 - 1 / np.e) * full_coordination_coverage(small_values, k)
        assert observation1_lower_bound(small_values, k) == pytest.approx(expected)

    def test_holds_on_fixture(self, small_values):
        for k in (1, 2, 3, 4):
            assert observation1_holds(small_values, k)

    def test_holds_on_uniform_values_large_k(self):
        # Worst case for the bound: k equal-value sites, where the optimal
        # coverage tends to (1 - 1/e) * top-k as k grows; the inequality stays strict.
        values = SiteValues.uniform(50)
        for k in (2, 10, 50):
            assert observation1_holds(values, k)
        bound = 1 - 1 / np.e
        assert bound < optimal_coverage(values, 50) / values.top(50) < bound + 0.01

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        m=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_observation1_property(self, seed, m, k):
        values = SiteValues.random(m, np.random.default_rng(seed))
        assert optimal_coverage(values, k) > observation1_lower_bound(values, k)
