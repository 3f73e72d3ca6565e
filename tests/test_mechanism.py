"""Tests for the mechanism-design subpackage (Kleinberg-Oren baseline, policy design)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coverage import coverage
from repro.core.ifd import ideal_free_distribution, verify_ifd
from repro.core.optimal_coverage import optimal_coverage
from repro.core.policies import AggressivePolicy, ExclusivePolicy, SharingPolicy, TwoLevelPolicy
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.mechanism import (
    best_two_level_policy,
    compare_policies,
    design_rewards_for_target,
    optimal_grant_design,
    proportional_rewards,
)


class TestRewardDesign:
    def test_designed_rewards_induce_target(self, small_values):
        k = 3
        target = sigma_star(small_values, k).strategy
        rewards = design_rewards_for_target(target, k, SharingPolicy())
        induced = ideal_free_distribution(rewards, k, SharingPolicy(), use_closed_form=False)
        np.testing.assert_allclose(
            induced.strategy.as_array(), target.as_array(), atol=1e-6
        )

    def test_designed_rewards_satisfy_ifd_conditions(self, small_values):
        k = 4
        target = sigma_star(small_values, k).strategy
        rewards = design_rewards_for_target(target, k, SharingPolicy())
        report = verify_ifd(rewards, target, k, SharingPolicy(), atol=1e-9)
        assert report.is_ifd

    def test_rewards_on_support_exceed_off_support(self, small_values):
        k = 3
        target = sigma_star(small_values, k).strategy
        rewards = design_rewards_for_target(target, k, SharingPolicy())
        support = target.as_array() > 0
        if np.any(~support):
            assert rewards[support].min() > rewards[~support].max()

    def test_uniform_target(self):
        values = SiteValues.from_values([1.0, 0.7, 0.4])
        target = Strategy.uniform(3)
        rewards = design_rewards_for_target(target, 2, SharingPolicy())
        induced = ideal_free_distribution(rewards, 2, SharingPolicy(), use_closed_form=False)
        np.testing.assert_allclose(induced.strategy.as_array(), 1 / 3, atol=1e-6)

    def test_infeasible_target_raises(self):
        # Aggressive policy: the congestion factor goes negative at high
        # occupancy probability, so a very concentrated target is infeasible.
        target = Strategy(np.array([0.95, 0.05]))
        with pytest.raises(ValueError, match="not implementable"):
            design_rewards_for_target(target, 4, AggressivePolicy(1.0))

    def test_parameter_validation(self, small_values):
        target = Strategy.uniform(4)
        with pytest.raises(ValueError):
            design_rewards_for_target(target, 2, SharingPolicy(), equilibrium_value=0.0)
        with pytest.raises(ValueError):
            design_rewards_for_target(target, 2, SharingPolicy(), off_support_fraction=1.5)

    def test_proportional_rewards_baseline(self, small_values):
        np.testing.assert_allclose(proportional_rewards(small_values), small_values.as_array())


class TestOptimalGrantDesign:
    def test_recovers_optimal_coverage(self, small_values):
        k = 3
        design = optimal_grant_design(small_values, k)
        assert design.max_deviation < 1e-6
        assert design.induced_coverage == pytest.approx(optimal_coverage(small_values, k), abs=1e-8)

    def test_improves_on_sharing_equilibrium(self, small_values):
        # Grants strictly improve on the untouched sharing equilibrium whenever
        # the sharing IFD is not already coverage optimal.
        k = 3
        design = optimal_grant_design(small_values, k)
        sharing_eq = ideal_free_distribution(small_values, k, SharingPolicy())
        assert design.induced_coverage > coverage(small_values, sharing_eq.strategy, k)

    def test_matches_exclusive_policy_outcome(self, small_values):
        # Reward design under sharing and congestion design via the exclusive
        # policy reach the same coverage (both implement sigma_star).
        k = 4
        design = optimal_grant_design(small_values, k)
        exclusive_eq = ideal_free_distribution(small_values, k, ExclusivePolicy())
        assert design.induced_coverage == pytest.approx(
            coverage(small_values, exclusive_eq.strategy, k), abs=1e-7
        )


class TestPolicyDesign:
    def test_compare_policies_rows(self, small_values):
        rows = compare_policies(
            small_values, 3, [ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.3)]
        )
        assert len(rows) == 3
        by_name = {row.policy_name: row for row in rows}
        assert by_name["exclusive"].spoa == pytest.approx(1.0, abs=1e-9)
        assert by_name["sharing"].spoa > 1.0
        assert by_name["two-level"].spoa > 1.0
        for row in rows:
            assert row.optimal_coverage >= row.equilibrium_coverage > 0

    @pytest.mark.parametrize(
        "values, k",
        [
            (SiteValues.two_sites(0.3), 2),
            (SiteValues.from_values([1.0, 0.6, 0.35, 0.2]), 4),
            (SiteValues.zipf(15, exponent=0.9), 5),
        ],
        ids=["figure1-left", "four-sites", "zipf15"],
    )
    def test_best_two_level_policy_is_exclusive(self, values, k):
        best_c, rows = best_two_level_policy(values, k, c_grid=np.linspace(-0.5, 0.5, 21))
        assert best_c == pytest.approx(0.0, abs=1e-9)
        assert len(rows) == 21
        coverages = [row.equilibrium_coverage for row in rows]
        assert max(coverages) == pytest.approx(optimal_coverage(values, k), abs=1e-7)

    def test_best_two_level_policy_right_panel(self, figure1_right):
        best_c, _ = best_two_level_policy(
            figure1_right, 2, c_grid=np.linspace(-0.5, 0.5, 11)
        )
        assert best_c == pytest.approx(0.0, abs=1e-9)
