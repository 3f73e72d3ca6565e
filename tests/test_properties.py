"""Cross-cutting property-based tests of the paper's core invariants.

These tests tie several modules together: whatever instance hypothesis
generates, the structural statements of the paper must hold (existence and
uniqueness of the IFD, optimality of sigma_star, equivalence of the different
payoff formulations, consistency between analytic and simulated quantities).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import maximize_coverage_waterfilling
from repro.core.coverage import coverage
from repro.core.ess import ess_conditions_against
from repro.core.ifd import ideal_free_distribution, verify_ifd
from repro.core.payoffs import (
    exploitability,
    expected_payoff,
    site_values,
)
from repro.core.policies import ExclusivePolicy, SharingPolicy, TwoLevelPolicy
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.core.welfare import expected_welfare


def value_arrays(min_sites: int = 1, max_sites: int = 12):
    return st.lists(
        st.floats(min_value=0.01, max_value=10.0),
        min_size=min_sites,
        max_size=max_sites,
    )


def strategy_for(m: int, seed: int) -> Strategy:
    return Strategy.random(m, np.random.default_rng(seed))


class TestStructuralInvariants:
    @given(values=value_arrays(2, 12), k=st.integers(2, 8), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_sigma_star_is_coverage_optimal_and_nash(self, values, k, seed):
        f = SiteValues.from_values(values)
        star = sigma_star(f, k)
        # Nash: zero exploitability under the exclusive policy.
        assert exploitability(f, star.strategy, k, ExclusivePolicy()) <= 1e-9
        # Optimality: beats random challengers and the independent water-filling optimum.
        challenger = strategy_for(f.m, seed)
        assert coverage(f, star.strategy, k) >= coverage(f, challenger, k) - 1e-9
        wf = maximize_coverage_waterfilling(f, k)
        assert coverage(f, star.strategy, k) == pytest.approx(wf.coverage, rel=1e-8)

    @given(values=value_arrays(2, 10), k=st.integers(2, 6), c=st.floats(-0.6, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_ifd_exists_unique_and_dominated_by_exclusive(self, values, k, c):
        f = SiteValues.from_values(values)
        policy = TwoLevelPolicy(c)
        result = ideal_free_distribution(f, k, policy)
        assert verify_ifd(f, result.strategy, k, policy, atol=1e-5).is_ifd
        # Theorem 4 + Theorem 6 direction: no policy's IFD covers more than sigma_star.
        star_cover = coverage(f, sigma_star(f, k).strategy, k)
        assert coverage(f, result.strategy, k) <= star_cover + 1e-9

    @given(values=value_arrays(1, 10), k=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_coverage_between_single_player_and_total(self, values, k):
        f = SiteValues.from_values(values)
        strategy = Strategy.uniform(f.m)
        cover = coverage(f, strategy, k)
        assert coverage(f, strategy, 1) - 1e-12 <= cover <= f.total + 1e-12

    @given(values=value_arrays(2, 8), k=st.integers(2, 6), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_sharing_welfare_equals_coverage(self, values, k, seed):
        f = SiteValues.from_values(values)
        strategy = strategy_for(f.m, seed)
        assert expected_welfare(f, strategy, k, SharingPolicy()) == pytest.approx(
            coverage(f, strategy, k), rel=1e-9
        )

    @given(values=value_arrays(2, 8), k=st.integers(2, 6), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_payoff_conservation(self, values, k, seed):
        # Total expected payoff of a symmetric profile never exceeds the
        # coverage under any congestion policy with C(l) <= 1 ... in fact it is
        # at most the coverage for sub-sharing policies and equals k * E(p; p).
        f = SiteValues.from_values(values)
        strategy = strategy_for(f.m, seed)
        policy = ExclusivePolicy()
        welfare = expected_welfare(f, strategy, k, policy)
        assert welfare <= coverage(f, strategy, k) + 1e-9
        assert welfare == pytest.approx(
            k * expected_payoff(f, strategy, strategy, k, policy), rel=1e-12
        )

    @given(values=value_arrays(2, 8), k=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_equilibrium_payoff_monotone_in_competition(self, values, k):
        # Players earn less at equilibrium as collisions get more costly.
        f = SiteValues.from_values(values)
        payoffs = []
        for c in (0.5, 0.25, 0.0, -0.25):
            result = ideal_free_distribution(f, k, TwoLevelPolicy(c))
            payoffs.append(result.value)
        assert np.all(np.diff(payoffs) <= 1e-7)

    @given(values=value_arrays(2, 8), k=st.integers(2, 5), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_theorem3_ess_against_random_mutant(self, values, k, seed):
        f = SiteValues.from_values(values)
        star = sigma_star(f, k).strategy
        mutant = strategy_for(f.m, seed)
        assume(mutant.total_variation(star) > 1e-6)
        comparison = ess_conditions_against(f, star, mutant, k, ExclusivePolicy())
        assert comparison.resists

    @given(values=value_arrays(2, 10), k=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_site_values_bounded_by_site_value(self, values, k):
        # nu_p(x) <= f(x) for congestion policies with C <= 1.
        f = SiteValues.from_values(values)
        strategy = Strategy.uniform(f.m)
        for policy in (ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.5)):
            nu = site_values(f, strategy, k, policy)
            assert np.all(nu <= f.as_array() + 1e-12)

    @given(values=value_arrays(2, 10), k=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_support_size_weakly_increasing_in_k(self, values, k):
        f = SiteValues.from_values(values)
        w_small = sigma_star(f, k).support_size
        w_large = sigma_star(f, k + 1).support_size
        assert w_large >= w_small

    @given(values=value_arrays(2, 10), k=st.integers(2, 6), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_monte_carlo_agrees_with_formulas(self, values, k, seed):
        from repro.simulation import simulate_dispersal

        f = SiteValues.from_values(values)
        strategy = strategy_for(f.m, seed)
        result = simulate_dispersal(f, strategy, k, SharingPolicy(), 4_000, rng=seed)
        exact = coverage(f, strategy, k)
        # 6-sigma tolerance keeps the flake rate negligible across examples.
        assert abs(result.coverage_mean - exact) <= 6.0 * max(result.coverage_sem, 1e-9)
