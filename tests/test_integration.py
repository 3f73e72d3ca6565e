"""End-to-end integration tests tying the whole pipeline together."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.figure1 import assemble_figure1_panels
from repro.core.coverage import coverage
from repro.core.ess import ess_report, is_symmetric_nash
from repro.core.ifd import ideal_free_distribution
from repro.core.optimal_coverage import optimal_coverage
from repro.core.policies import ExclusivePolicy, SharingPolicy, TwoLevelPolicy
from repro.core.sigma_star import sigma_star
from repro.core.spoa import spoa_instance
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.core.welfare import welfare_optimal_strategy
from repro.dynamics import replicator_dynamics
from repro.experiments import run_registered
from repro.mechanism import optimal_grant_design
from repro.search import BayesianSearchProblem, sigma_star_strategy, single_round_success_probability
from repro.simulation import simulate_dispersal


class TestPaperStoryEndToEnd:
    """One scenario exercised through every layer of the library."""

    @pytest.fixture(scope="class")
    def scenario(self):
        values = SiteValues.zipf(12, exponent=0.8)
        return values, 5

    def test_exclusive_policy_full_pipeline(self, scenario):
        values, k = scenario
        policy = ExclusivePolicy()

        # 1. Closed form and numerical solver agree.
        star = sigma_star(values, k)
        numeric = ideal_free_distribution(values, k, policy, use_closed_form=False)
        assert star.strategy.total_variation(numeric.strategy) < 1e-7

        # 2. The equilibrium is a Nash equilibrium, an ESS, and coverage optimal.
        assert is_symmetric_nash(values, star.strategy, k, policy)
        audit = ess_report(values, star.strategy, k, policy, n_random_mutants=10, rng=0)
        assert audit.is_ess
        assert coverage(values, star.strategy, k) == pytest.approx(optimal_coverage(values, k))

        # 3. Decentralised dynamics find the same point.
        dynamics = replicator_dynamics(values, k, policy, max_iter=40_000)
        assert dynamics.strategy.total_variation(star.strategy) < 1e-4

        # 4. Monte-Carlo simulation confirms the analytic coverage and payoff.
        simulated = simulate_dispersal(values, star.strategy, k, policy, 30_000, rng=1)
        assert abs(simulated.coverage_mean - coverage(values, star.strategy, k)) < 5 * simulated.coverage_sem
        assert abs(simulated.payoff_mean - star.equilibrium_value) < 5 * max(simulated.payoff_sem, 1e-9)

        # 5. The SPoA of the exclusive policy is 1 on this instance.
        assert spoa_instance(values, k, policy).ratio == pytest.approx(1.0, abs=1e-9)

    def test_sharing_vs_exclusive_vs_grants(self, scenario):
        values, k = scenario
        # Sharing alone loses coverage relative to the exclusive policy ...
        sharing_eq = ideal_free_distribution(values, k, SharingPolicy())
        exclusive_eq = ideal_free_distribution(values, k, ExclusivePolicy())
        sharing_cover = coverage(values, sharing_eq.strategy, k)
        exclusive_cover = coverage(values, exclusive_eq.strategy, k)
        assert sharing_cover < exclusive_cover
        # ... but the Kleinberg-Oren grant design recovers the optimum under sharing.
        design = optimal_grant_design(values, k)
        assert design.induced_coverage == pytest.approx(exclusive_cover, abs=1e-6)

    def test_search_connection(self, scenario):
        values, k = scenario
        prior = values.as_array() / values.total
        problem = BayesianSearchProblem(prior)
        strategy = sigma_star_strategy(problem, k)
        # Single-round success probability equals (normalised) optimal coverage.
        success = single_round_success_probability(problem, strategy, k)
        assert success == pytest.approx(optimal_coverage(values, k) / values.total, abs=1e-12)


class TestFigure1ConsistencyWithCoreTheorems:
    def test_figure1_panel_agrees_with_spoa_and_welfare(self):
        values = SiteValues.two_sites(0.4)
        result = run_registered(
            "figure1",
            second_values=(0.4,),
            c_grid=np.linspace(-0.4, 0.5, 10),
            k=2,
            welfare_grid_points=501,
        )
        (panel,) = assemble_figure1_panels(result.rows).values()
        # ESS coverage at each grid point equals optimal coverage divided by the SPoA ratio.
        for c, ess_cover in zip(panel.c_grid, panel.ess_coverage):
            instance = spoa_instance(values, 2, TwoLevelPolicy(float(c)))
            assert ess_cover == pytest.approx(panel.optimal_coverage / instance.ratio, rel=1e-9)
        # The welfare curve is consistent with a direct welfare optimisation.
        direct = welfare_optimal_strategy(values, 2, TwoLevelPolicy(float(panel.c_grid[0])), grid_points=501)
        assert panel.welfare_optimum_coverage[0] == pytest.approx(direct.coverage, abs=1e-9)


class TestNumericalRobustness:
    def test_large_instance_closed_form(self):
        values = SiteValues.zipf(100_000, exponent=1.2)
        result = sigma_star(values, 50)
        assert result.strategy.as_array().sum() == pytest.approx(1.0, abs=1e-8)
        # The support need not reach k sites; it is set by how fast f decays.
        assert 2 <= result.support_size <= 100_000

    def test_extreme_value_spread(self):
        values = SiteValues.from_values(np.geomspace(1.0, 1e-9, 30))
        for k in (2, 5):
            star = sigma_star(values, k)
            assert np.isfinite(star.equilibrium_value)
            assert star.strategy.as_array().sum() == pytest.approx(1.0)

    def test_many_players_few_sites(self):
        values = SiteValues.from_values([1.0, 0.5])
        result = ideal_free_distribution(values, 200, SharingPolicy())
        # With massive competition the population ratio approaches the value ratio
        # (the classical input-matching law of the IFD literature).
        p = result.strategy.as_array()
        assert p[0] / p[1] == pytest.approx(2.0, rel=0.05)

    def test_near_tied_values(self):
        values = SiteValues.from_values([1.0, 1.0 - 1e-12, 1.0 - 2e-12])
        star = sigma_star(values, 3)
        np.testing.assert_allclose(star.strategy.as_array(), 1 / 3, atol=1e-6)

    def test_single_site_everything(self):
        values = SiteValues.uniform(1)
        policy = SharingPolicy()
        assert ideal_free_distribution(values, 5, policy).strategy == Strategy.point_mass(1, 0)
        assert optimal_coverage(values, 5) == pytest.approx(1.0)
        assert spoa_instance(values, 5, policy).ratio == pytest.approx(1.0)
