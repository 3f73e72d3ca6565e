"""Tests for the payoff calculus (Eqs. 2 and 3 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mixture_payoff_expanded, payoff_against_groups
from repro.batch.payoffs import expected_payoff_batch
from repro.core.ess import equilibrium_payoff
from repro.core.payoffs import (
    best_response_sites,
    best_response_value,
    exploitability,
    expected_payoff,
    mixture_payoff,
    occupancy_congestion_factor,
    site_values,
)
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.strategy import Strategy
from repro.core.values import SiteValues


class TestOccupancyCongestionFactor:
    def test_no_opponents_returns_c1(self):
        out = occupancy_congestion_factor(SharingPolicy(), np.array([0.3, 0.9]), 0)
        np.testing.assert_allclose(out, 1.0)

    def test_exclusive_closed_form(self):
        q = np.array([0.0, 0.25, 1.0])
        out = occupancy_congestion_factor(ExclusivePolicy(), q, 3)
        np.testing.assert_allclose(out, (1 - q) ** 3)

    def test_constant_policy_is_one(self):
        out = occupancy_congestion_factor(ConstantPolicy(), np.array([0.1, 0.9]), 5)
        np.testing.assert_allclose(out, 1.0)

    def test_sharing_two_players(self):
        # g(q) = (1-q) + q/2 = 1 - q/2 for a single opponent.
        q = np.array([0.0, 0.4, 1.0])
        out = occupancy_congestion_factor(SharingPolicy(), q, 1)
        np.testing.assert_allclose(out, 1 - q / 2)

    def test_monotone_in_q_for_non_increasing_policy(self):
        q = np.linspace(0, 1, 50)
        out = occupancy_congestion_factor(TwoLevelPolicy(-0.5), q, 4)
        assert np.all(np.diff(out) <= 1e-12)

    def test_rejects_negative_opponents(self):
        with pytest.raises(ValueError):
            occupancy_congestion_factor(SharingPolicy(), np.array([0.5]), -1)


class TestSiteValues:
    def test_exclusive_formula(self, small_values):
        # nu_p(x) = f(x) (1 - p(x))^(k-1) under the exclusive policy.
        strategy = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        k = 4
        nu = site_values(small_values, strategy, k, ExclusivePolicy())
        expected = small_values.as_array() * (1 - strategy.as_array()) ** (k - 1)
        np.testing.assert_allclose(nu, expected)

    def test_single_player_gets_full_value(self, small_values):
        nu = site_values(small_values, Strategy.uniform(4), 1, SharingPolicy())
        np.testing.assert_allclose(nu, small_values.as_array())

    def test_two_player_sharing_manual(self):
        values = SiteValues.two_sites(0.3)
        strategy = Strategy(np.array([0.6, 0.4]))
        nu = site_values(values, strategy, 2, SharingPolicy())
        expected = np.array([1.0 * (0.4 + 0.6 / 2), 0.3 * (0.6 + 0.4 / 2)])
        np.testing.assert_allclose(nu, expected)

    def test_aggressive_policy_can_be_negative(self):
        values = SiteValues.two_sites(0.5)
        nu = site_values(values, Strategy.point_mass(2, 0), 2, AggressivePolicy(1.0))
        assert nu[0] == pytest.approx(-1.0)
        assert nu[1] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            site_values(SiteValues.uniform(3), Strategy.uniform(2), 2, SharingPolicy())


class TestExpectedPayoff:
    def test_symmetric_profile_payoff_is_weighted_nu(self, small_values, any_policy):
        strategy = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        k = 3
        nu = site_values(small_values, strategy, k, any_policy)
        direct = expected_payoff(small_values, strategy, strategy, k, any_policy)
        assert direct == pytest.approx(float(np.dot(strategy.as_array(), nu)))

    def test_single_group_matches_expected_payoff(self, small_values, any_policy):
        focal = Strategy.uniform(4)
        opponents = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        k = 4
        via_groups = payoff_against_groups(
            small_values, focal, [(opponents, k - 1)], any_policy
        )
        direct = expected_payoff(small_values, focal, opponents, k, any_policy)
        assert via_groups == pytest.approx(direct, rel=1e-12)

    def test_group_order_does_not_matter(self, small_values):
        sigma = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        pi = Strategy.uniform(4)
        focal = Strategy.point_mass(4, 0)
        policy = SharingPolicy()
        a = payoff_against_groups(small_values, focal, [(sigma, 2), (pi, 1)], policy)
        b = payoff_against_groups(small_values, focal, [(pi, 1), (sigma, 2)], policy)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_count_groups_are_ignored(self, small_values):
        sigma = Strategy.uniform(4)
        focal = Strategy.point_mass(4, 1)
        policy = SharingPolicy()
        a = payoff_against_groups(small_values, focal, [(sigma, 2), (sigma, 0)], policy)
        b = payoff_against_groups(small_values, focal, [(sigma, 2)], policy)
        assert a == pytest.approx(b)

    def test_rejects_negative_group_size(self, small_values):
        with pytest.raises(ValueError):
            payoff_against_groups(
                small_values, Strategy.uniform(4), [(Strategy.uniform(4), -1)], SharingPolicy()
            )


    @pytest.mark.parametrize("bad", [[1.5, -0.5], [np.nan, 0.5]], ids=["out-of-range", "nan"])
    def test_out_of_range_focal_is_refused(self, bad):
        # The focal strategy gets the opponents' [0, 1] check: no payoff for it.
        values, focal, opponents = np.array([1.0, 0.5]), np.array(bad), np.array([0.5, 0.5])
        policy = SharingPolicy()
        calls = {
            "expected_payoff": lambda: expected_payoff(values, focal, opponents, 3, policy),
            "expected_payoff_batch": lambda: expected_payoff_batch(
                values[None], focal[None], opponents[None], 3, policy
            ),
            "mixture_payoff": lambda: mixture_payoff(
                values, focal, Strategy(opponents), Strategy.uniform(2), 0.1, 3, policy
            ),
            "equilibrium_payoff": lambda: equilibrium_payoff(values, focal, 3, policy),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                call()
                pytest.fail(f"{name} accepted focal = {bad}")


class TestMixturePayoff:
    def test_mixture_equals_expanded_form(self, small_values, any_policy):
        # Eq. (3) evaluated directly and via the binomial expansion must agree.
        resident = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        mutant = Strategy.uniform(4)
        focal = Strategy(np.array([0.7, 0.1, 0.1, 0.1]))
        for eps in (0.0, 0.05, 0.3, 1.0):
            direct = mixture_payoff(small_values, focal, resident, mutant, eps, 4, any_policy)
            expanded = mixture_payoff_expanded(
                small_values, focal, resident, mutant, eps, 4, any_policy
            )
            assert direct == pytest.approx(expanded, rel=1e-10, abs=1e-12)

    def test_epsilon_zero_is_resident_only(self, small_values):
        resident = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        mutant = Strategy.uniform(4)
        policy = SharingPolicy()
        u = mixture_payoff(small_values, mutant, resident, mutant, 0.0, 3, policy)
        assert u == pytest.approx(expected_payoff(small_values, mutant, resident, 3, policy))

    def test_epsilon_one_is_mutant_only(self, small_values):
        resident = Strategy(np.array([0.4, 0.3, 0.2, 0.1]))
        mutant = Strategy.uniform(4)
        policy = ExclusivePolicy()
        u = mixture_payoff(small_values, resident, resident, mutant, 1.0, 3, policy)
        assert u == pytest.approx(expected_payoff(small_values, resident, mutant, 3, policy))

    @given(
        eps=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixture_consistency_property(self, eps, seed):
        rng = np.random.default_rng(seed)
        values = SiteValues.random(3, rng)
        resident = Strategy.random(3, rng)
        mutant = Strategy.random(3, rng)
        focal = Strategy.random(3, rng)
        policy = TwoLevelPolicy(float(rng.uniform(-0.5, 1.0)))
        direct = mixture_payoff(values, focal, resident, mutant, eps, 3, policy)
        expanded = mixture_payoff_expanded(values, focal, resident, mutant, eps, 3, policy)
        assert direct == pytest.approx(expanded, rel=1e-9, abs=1e-12)


class TestBestResponse:
    def test_best_response_against_point_mass(self):
        values = SiteValues.two_sites(0.5)
        # Everyone sits on site 0, so a deviator should prefer site 1 under
        # the exclusive policy.
        nu_based = best_response_sites(values, Strategy.point_mass(2, 0), 3, ExclusivePolicy())
        np.testing.assert_array_equal(nu_based, [1])
        assert best_response_value(values, Strategy.point_mass(2, 0), 3, ExclusivePolicy()) == pytest.approx(0.5)

    def test_constant_policy_best_response_is_top_site(self, small_values):
        sites = best_response_sites(small_values, Strategy.uniform(4), 5, ConstantPolicy())
        np.testing.assert_array_equal(sites, [0])

    def test_exploitability_nonnegative(self, small_values, any_policy):
        strategy = Strategy.random(4, np.random.default_rng(1))
        assert exploitability(small_values, strategy, 3, any_policy) >= -1e-12

    def test_exploitability_zero_at_equilibrium(self, small_values):
        from repro.core.sigma_star import sigma_star

        result = sigma_star(small_values, 3)
        gap = exploitability(small_values, result.strategy, 3, ExclusivePolicy())
        assert gap == pytest.approx(0.0, abs=1e-10)


class TestOneKernelCallPerAudit:
    """Audits over many profiles stack them into one batch-kernel call.

    A batch-of-one call through the scalar view costs about twice a plain
    array pass, so a loop of views would make these audits several times
    slower; the call counts pin the stacking on any host.
    """

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        import repro.batch.payoffs as batch_payoffs

        calls: list[int] = []
        kernel = batch_payoffs.occupancy_congestion_factor_batch

        def counted(policy, opponent_probabilities, n_opponents, **kwargs):
            calls.append(np.shape(opponent_probabilities)[0])
            return kernel(policy, opponent_probabilities, n_opponents, **kwargs)

        monkeypatch.setattr(batch_payoffs, "occupancy_congestion_factor_batch", counted)
        return calls

    def test_invasion_barrier_is_one_call(self, small_values, kernel_calls):
        from repro.core.ess import invasion_barrier
        from repro.core.sigma_star import sigma_star

        star = sigma_star(small_values, 3).strategy
        kernel_calls.clear()
        assert invasion_barrier(small_values, star, Strategy.uniform(4), 3, ExclusivePolicy()) > 0
        assert kernel_calls == [34]  # the whole default epsilon grid

    def test_projected_gradient_step_is_one_call(self, small_values, kernel_calls):
        from repro.core.welfare import welfare_optimal_strategy

        # Two starts (uniform, value-proportional), one step each: every
        # evaluation is a point with its M finite-difference neighbours.
        welfare_optimal_strategy(small_values, 3, SharingPolicy(), restarts=0, max_iter=1)
        assert kernel_calls == [5] * 4

    def test_verify_symmetric_equilibrium_is_one_call(self, small_values, kernel_calls):
        from repro.core.equilibrium import verify_symmetric_equilibrium

        verify_symmetric_equilibrium(small_values, Strategy.uniform(4), 3, SharingPolicy())
        assert kernel_calls == [1]
