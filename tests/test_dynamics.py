"""Tests for the evolutionary / learning dynamics subpackage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ifd import ideal_free_distribution
from repro.core.payoffs import exploitability
from repro.core.policies import (
    AggressivePolicy,
    ExclusivePolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.dynamics import (
    best_response_dynamics,
    invasion_dynamics,
    logit_dynamics,
    quantal_response_equilibrium,
    replicator_dynamics,
)


class TestReplicator:
    def test_converges_to_sigma_star_under_exclusive(self, small_values):
        result = replicator_dynamics(small_values, 3, ExclusivePolicy(), max_iter=30_000)
        target = sigma_star(small_values, 3).strategy
        assert result.converged
        assert result.strategy.total_variation(target) < 1e-6

    def test_converges_to_ifd_under_sharing(self, small_values):
        result = replicator_dynamics(small_values, 4, SharingPolicy(), max_iter=30_000)
        target = ideal_free_distribution(small_values, 4, SharingPolicy()).strategy
        assert result.strategy.total_variation(target) < 1e-5

    def test_euler_variant_also_converges(self, small_values):
        result = replicator_dynamics(
            small_values, 3, ExclusivePolicy(), method="euler", step_size=0.3, max_iter=30_000
        )
        target = sigma_star(small_values, 3).strategy
        assert result.strategy.total_variation(target) < 1e-5

    def test_handles_negative_payoffs(self, small_values):
        result = replicator_dynamics(small_values, 3, AggressivePolicy(0.5), max_iter=30_000)
        gap = exploitability(small_values, result.strategy, 3, AggressivePolicy(0.5))
        assert gap < 1e-5

    def test_ifd_is_rest_point(self, small_values):
        # Starting exactly at the IFD, the state should not move.
        target = sigma_star(small_values, 3).strategy
        result = replicator_dynamics(
            small_values, 3, ExclusivePolicy(), initial=target, max_iter=10
        )
        assert result.strategy.total_variation(target) < 1e-10

    def test_trajectory_records_start_and_end(self, small_values):
        result = replicator_dynamics(small_values, 2, SharingPolicy(), max_iter=500, record_every=50)
        assert result.trajectory.shape[1] == 4
        np.testing.assert_allclose(result.trajectory[0], 0.25)
        np.testing.assert_allclose(result.trajectory[-1], result.strategy.as_array())

    def test_rejects_bad_method_and_step(self, small_values):
        with pytest.raises(ValueError):
            replicator_dynamics(small_values, 2, SharingPolicy(), method="rk4")
        with pytest.raises(ValueError):
            replicator_dynamics(small_values, 2, SharingPolicy(), step_size=0.0)


class TestLogit:
    def test_high_rationality_approximates_ifd(self, small_values):
        result = logit_dynamics(
            small_values, 3, SharingPolicy(), rationality=500.0, max_iter=20_000, tol=1e-12
        )
        target = ideal_free_distribution(small_values, 3, SharingPolicy()).strategy
        assert result.strategy.total_variation(target) < 0.01

    def test_quantal_response_wrapper(self, small_values):
        strategy = quantal_response_equilibrium(
            small_values, 3, ExclusivePolicy(), rationality=800.0, max_iter=20_000, tol=1e-12
        )
        target = sigma_star(small_values, 3).strategy
        assert strategy.total_variation(target) < 0.01

    def test_low_rationality_is_near_uniform(self, small_values):
        result = logit_dynamics(small_values, 3, ExclusivePolicy(), rationality=1e-6)
        assert result.strategy.total_variation(Strategy.uniform(4)) < 1e-4

    def test_works_with_negative_payoffs(self, small_values):
        result = logit_dynamics(
            small_values, 3, AggressivePolicy(1.0), rationality=200.0, max_iter=20_000
        )
        gap = exploitability(small_values, result.strategy, 3, AggressivePolicy(1.0))
        assert gap < 0.05

    def test_parameter_validation(self, small_values):
        with pytest.raises(ValueError):
            logit_dynamics(small_values, 2, SharingPolicy(), rationality=0.0)
        with pytest.raises(ValueError):
            logit_dynamics(small_values, 2, SharingPolicy(), damping=0.0)


class TestBestResponseDynamics:
    @pytest.mark.parametrize("policy", [SharingPolicy(), ExclusivePolicy()], ids=["sharing", "exclusive"])
    def test_exploitability_shrinks(self, small_values, policy):
        result = best_response_dynamics(small_values, 3, policy, max_iter=5_000)
        assert result.exploitability < 0.01

    def test_approaches_sigma_star_under_exclusive(self, small_values):
        result = best_response_dynamics(
            small_values, 3, ExclusivePolicy(), max_iter=20_000, step_decay=0.005
        )
        target = sigma_star(small_values, 3).strategy
        assert result.strategy.total_variation(target) < 0.02

    def test_parameter_validation(self, small_values):
        with pytest.raises(ValueError):
            best_response_dynamics(small_values, 2, SharingPolicy(), step_size=0.0)


class TestInvasionDynamics:
    def test_mutants_die_out_against_ess(self, small_values):
        resident = sigma_star(small_values, 3).strategy
        result = invasion_dynamics(
            small_values, resident, Strategy.uniform(4), 3, ExclusivePolicy(), initial_share=0.05
        )
        assert result.mutant_extinct
        assert not result.mutant_fixated
        assert result.final_share < 1e-5

    def test_ess_invades_unstable_resident(self, small_values):
        mutant = sigma_star(small_values, 3).strategy
        resident = Strategy.point_mass(4, 3)
        result = invasion_dynamics(
            small_values, resident, mutant, 3, ExclusivePolicy(), initial_share=0.05
        )
        assert result.final_share > 0.5

    def test_share_trajectory_monotone_for_ess_resident(self, small_values):
        resident = sigma_star(small_values, 2).strategy
        result = invasion_dynamics(
            small_values,
            resident,
            Strategy.proportional(small_values.as_array()),
            2,
            ExclusivePolicy(),
            initial_share=0.1,
        )
        assert np.all(np.diff(result.shares) <= 1e-12)

    def test_parameter_validation(self, small_values):
        resident = Strategy.uniform(4)
        with pytest.raises(ValueError):
            invasion_dynamics(
                small_values, resident, resident, 2, SharingPolicy(), initial_share=1.5
            )
        with pytest.raises(ValueError):
            invasion_dynamics(
                small_values, resident, resident, 2, SharingPolicy(), selection_strength=0.0
            )


class TestDynamicsAgreement:
    """Replicator, logit, best-response and the water-filling solver agree."""

    @pytest.mark.parametrize("policy", [ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.2)])
    def test_all_routes_reach_the_same_equilibrium(self, policy):
        values = SiteValues.zipf(5, exponent=0.7)
        k = 3
        ifd = ideal_free_distribution(values, k, policy).strategy
        replicator = replicator_dynamics(values, k, policy, max_iter=60_000).strategy
        assert replicator.total_variation(ifd) < 1e-4
        logit = logit_dynamics(values, k, policy, rationality=800.0, max_iter=30_000).strategy
        assert logit.total_variation(ifd) < 0.02
