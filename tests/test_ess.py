"""Tests for the ESS machinery (Theorem 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ess as ess_module
from oracles import enumerated_payoff_gaps
from repro.core.ess import (
    equilibrium_payoff,
    ess_conditions_against,
    ess_report,
    invasion_barrier,
    is_symmetric_nash,
)
from repro.core.ifd import ideal_free_distribution
from repro.core.payoffs import mixture_payoff
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    PowerLawPolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues


class TestSymmetricNash:
    def test_sigma_star_is_nash_under_exclusive(self, small_values):
        for k in (2, 3, 5):
            star = sigma_star(small_values, k)
            assert is_symmetric_nash(small_values, star.strategy, k, ExclusivePolicy())

    def test_sigma_star_not_nash_under_sharing(self, small_values):
        star = sigma_star(small_values, 3)
        assert not is_symmetric_nash(small_values, star.strategy, 3, SharingPolicy())

    def test_uniform_not_nash_on_decreasing_values(self, small_values):
        assert not is_symmetric_nash(small_values, Strategy.uniform(4), 3, ExclusivePolicy())

    def test_equilibrium_payoff_matches_sigma_star_value(self, small_values):
        k = 4
        star = sigma_star(small_values, k)
        payoff = equilibrium_payoff(small_values, star.strategy, k, ExclusivePolicy())
        assert payoff == pytest.approx(star.equilibrium_value, abs=1e-12)


class TestESSCharacterisation:
    def test_sigma_star_resists_pure_mutants(self, small_values):
        k = 3
        star = sigma_star(small_values, k).strategy
        for site in range(4):
            mutant = Strategy.point_mass(4, site)
            comparison = ess_conditions_against(
                small_values, star, mutant, k, ExclusivePolicy()
            )
            assert comparison.resists

    def test_mutant_outside_support_rejected_at_m0(self):
        values = SiteValues.geometric(6, ratio=0.05)  # steep: small support
        k = 2
        star = sigma_star(values, k)
        assert star.support_size < 6
        mutant = Strategy.point_mass(6, 5)
        comparison = ess_conditions_against(values, star.strategy, mutant, k, ExclusivePolicy())
        assert comparison.resists
        assert comparison.m_index == 0

    def test_mutant_inside_support_rejected_at_m1(self, small_values):
        # Mutants supported inside [W] tie at l = 0 and lose at l = 1
        # (the stronger stability property proved in Section 3).
        k = 3
        star = sigma_star(small_values, k)
        mutant = Strategy.uniform_over_top(4, star.support_size)
        comparison = ess_conditions_against(small_values, star.strategy, mutant, k, ExclusivePolicy())
        assert comparison.resists
        assert comparison.m_index == 1
        # All later compositions also favour the resident (strict stability).
        assert np.all(comparison.payoff_differences[1:] > 0)

    def test_payoff_difference_vector_has_length_k(self, small_values):
        k = 5
        star = sigma_star(small_values, k).strategy
        comparison = ess_conditions_against(
            small_values, star, Strategy.uniform(4), k, ExclusivePolicy()
        )
        assert comparison.payoff_differences.shape == (k,)

    def test_non_ess_detected_for_constant_policy(self, small_values):
        # Under the constant policy the symmetric equilibrium (point mass on the
        # top site) is invadable-neutral: mutants playing the same thing tie, but
        # the equilibrium point mass cannot strictly beat a mutant that also
        # sits on the top site... use a genuinely different resident to check
        # the negative path of the characterisation.
        resident = Strategy.uniform(4)
        mutant = Strategy.point_mass(4, 0)
        comparison = ess_conditions_against(
            small_values, resident, mutant, 3, ConstantPolicy()
        )
        assert not comparison.resists


GAP_POLICIES = {
    "exclusive": ExclusivePolicy(),
    "sharing": SharingPolicy(),
    "two-level": TwoLevelPolicy(0.3),
    "power-law": PowerLawPolicy(2.0),
    "aggressive": AggressivePolicy(0.5),
}


class TestPayoffGapsMatchEnumeration:
    """Every ``D[b, l]`` of the stacked audit against the enumerated opponent profiles."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("policy", GAP_POLICIES.values(), ids=GAP_POLICIES.keys())
    def test_gaps_match_enumeration(self, policy, m, k):
        rng = np.random.default_rng(100 * m + k)
        f = np.sort(rng.uniform(0.1, 1.0, m))[::-1]
        sigma = rng.dirichlet(np.ones(m))
        if m > 2:
            sigma[-1] = 0.0  # a resident with a proper support
            sigma /= sigma.sum()
        support = sigma > 0
        mutants = np.stack(
            [
                rng.dirichlet(np.ones(m)),
                np.eye(m)[-1],  # a point mass
                support / support.sum(),  # supported inside the resident's support
                sigma,  # equal to the resident on its support
            ]
        )
        gaps = ess_module._payoff_gaps(f, sigma, mutants, k, policy)
        assert gaps.shape == (len(mutants), k)
        for row, mutant in zip(gaps, mutants):
            np.testing.assert_allclose(
                row, enumerated_payoff_gaps(f, sigma, mutant, k, policy), rtol=0, atol=1e-12
            )
        assert np.all(gaps[-1] == 0.0)


class TestPmfBuildsPerAudit:
    def test_laws_per_audit_do_not_grow_with_mutants(self, monkeypatch):
        # One resident law and one stacked mutant law per composition, however
        # many mutants: at most 2k binomial laws per audit.
        calls = []
        build = ess_module.binomial_pmf_tensor

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(ess_module, "binomial_pmf_tensor", counted)
        rng = np.random.default_rng(3)
        values = SiteValues.random(6, rng)
        k = 8
        star = sigma_star(values, k).strategy
        counts = {}
        for n_mutants in (10, 60):
            mutants = [Strategy.random(6, rng) for _ in range(n_mutants)]
            calls.clear()
            assert ess_report(values, star, k, ExclusivePolicy(), mutants=mutants).is_ess
            counts[n_mutants] = len(calls)
        assert 0 < counts[10] <= 2 * k
        assert counts[60] == counts[10]


class TestInvasionBarrier:
    def test_positive_barrier_for_sigma_star(self, small_values):
        k = 3
        star = sigma_star(small_values, k).strategy
        barrier = invasion_barrier(
            small_values, star, Strategy.uniform(4), k, ExclusivePolicy()
        )
        assert barrier > 0

    def test_zero_barrier_when_resident_is_invadable(self, small_values):
        k = 3
        resident = Strategy.point_mass(4, 3)  # clearly not an equilibrium
        mutant = sigma_star(small_values, k).strategy
        barrier = invasion_barrier(small_values, resident, mutant, k, ExclusivePolicy())
        assert barrier == pytest.approx(0.0)

    def test_resident_vs_mutant_payoffs_ordering(self, small_values):
        k = 3
        star = sigma_star(small_values, k).strategy
        mutant = Strategy.proportional(small_values.as_array())
        res = mixture_payoff(small_values, star, star, mutant, 0.01, k, ExclusivePolicy())
        mut = mixture_payoff(small_values, mutant, star, mutant, 0.01, k, ExclusivePolicy())
        assert res > mut


class TestESSReport:
    def test_sigma_star_full_audit(self, small_values):
        k = 3
        star = sigma_star(small_values, k).strategy
        report = ess_report(
            small_values, star, k, ExclusivePolicy(), n_random_mutants=20, rng=0
        )
        assert report.is_ess
        assert report.n_resisted == report.n_mutants
        assert report.worst_margin > 0
        assert report.failures == ()

    def test_non_equilibrium_fails_audit(self, small_values):
        report = ess_report(
            small_values,
            Strategy.uniform(4),
            3,
            ExclusivePolicy(),
            n_random_mutants=5,
            rng=0,
        )
        assert not report.is_ess
        assert len(report.failures) > 0

    def test_explicit_mutant_list(self, small_values):
        k = 2
        star = sigma_star(small_values, k).strategy
        mutants = [Strategy.uniform(4), Strategy.point_mass(4, 2)]
        report = ess_report(small_values, star, k, ExclusivePolicy(), mutants=mutants)
        assert report.n_mutants == 2
        assert report.is_ess

    @given(seed=st.integers(min_value=0, max_value=500), k=st.integers(min_value=2, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_theorem3_randomised(self, seed, k):
        rng = np.random.default_rng(seed)
        values = SiteValues.random(5, rng)
        star = sigma_star(values, k).strategy
        report = ess_report(values, star, k, ExclusivePolicy(), n_random_mutants=8, rng=rng)
        assert report.is_ess

    def test_sharing_ifd_is_nash_but_need_not_resist_all_at_m1(self, small_values):
        # Sanity: the sharing IFD passes the Nash check; the full ESS audit is
        # not claimed by the paper for sharing, so we only require Nash here.
        k = 3
        result = ideal_free_distribution(small_values, k, SharingPolicy())
        assert is_symmetric_nash(small_values, result.strategy, k, SharingPolicy(), atol=1e-6)
