"""Tests for the closed-form sigma_star (Section 2.1, Claim 7)."""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifd import verify_ifd
from repro.core.policies import ExclusivePolicy
from repro.core.sigma_star import normalization_constant, sigma_star, support_size
from repro.core.strategy import Strategy
from repro.core.values import SiteValues


def random_values(seed: int, m: int) -> SiteValues:
    return SiteValues.random(m, np.random.default_rng(seed))


def exact_closed_form(values, k: int) -> tuple[int, Decimal, Decimal]:
    """``(W, alpha, alpha**(k-1))`` of Section 2.1 in 50-digit decimal arithmetic."""
    with localcontext() as context:
        context.prec = 50
        f = [Decimal(float(v)) for v in values]
        inv = [(-x.ln() / (k - 1)).exp() for x in f]  # f(x)**(-1/(k-1))
        w = max(
            y for y in range(1, len(f) + 1)
            if y - (f[y - 1].ln() / (k - 1)).exp() * sum(inv[:y]) <= 1
        )
        alpha = (w - 1) / sum(inv[:w])
        return w, alpha, alpha ** (k - 1)


class TestSupportSize:
    def test_single_site(self):
        assert support_size(SiteValues.uniform(1), 5) == 1

    def test_single_player(self):
        assert support_size(SiteValues.uniform(10), 1) == 1

    def test_uniform_values_full_support(self):
        # With equal values every site enters the support.
        assert support_size(SiteValues.uniform(7), 3) == 7

    def test_two_sites_always_in_support(self):
        # For M >= 2, k >= 2 the support has at least 2 sites.
        values = SiteValues.from_values([1.0, 1e-6])
        assert support_size(values, 2) == 2

    def test_steep_values_limit_support(self):
        # Extremely steep decay keeps the support small.
        values = SiteValues.geometric(20, ratio=1e-4)
        assert support_size(values, 2) == 2

    def test_support_grows_with_k(self):
        values = SiteValues.zipf(50, exponent=1.0)
        supports = [support_size(values, k) for k in (2, 4, 8, 16)]
        assert np.all(np.diff(supports) >= 0)

    def test_slowly_decreasing_support_exceeds_2k(self):
        # The premise used in the Theorem 6 proof.
        k = 4
        values = SiteValues.slowly_decreasing(40, k)
        assert support_size(values, k) >= 2 * k

    def test_raw_array_must_be_sorted(self):
        with pytest.raises(ValueError):
            support_size(np.array([0.5, 1.0]), 2)


class TestNormalizationConstant:
    def test_w_equals_one_gives_zero(self):
        assert normalization_constant(SiteValues.uniform(3), 3, w=1) == 0.0

    def test_matches_formula(self):
        values = SiteValues.from_values([1.0, 0.5, 0.25])
        k = 3
        w = support_size(values, k)
        alpha = normalization_constant(values, k, w)
        expected = (w - 1) / np.sum(values.as_array()[:w] ** (-1.0 / (k - 1)))
        assert alpha == pytest.approx(expected)

    def test_out_of_range_w(self):
        with pytest.raises(ValueError):
            normalization_constant(SiteValues.uniform(3), 2, w=5)


class TestSigmaStar:
    def test_two_sites_closed_form(self):
        # k = 2, f = (1, f2): sigma*(1) = 1/(1 + f2), sigma*(2) = f2/(1 + f2) ... no:
        # alpha = 1 / (1 + 1/f2) and sigma*(x) = 1 - alpha / f(x).
        f2 = 0.3
        result = sigma_star(SiteValues.two_sites(f2), 2)
        alpha = 1.0 / (1.0 + 1.0 / f2)
        np.testing.assert_allclose(
            result.strategy.as_array(), [1.0 - alpha, 1.0 - alpha / f2], atol=1e-12
        )
        assert result.support_size == 2
        assert result.alpha == pytest.approx(alpha)
        assert result.equilibrium_value == pytest.approx(alpha)

    def test_uniform_values_give_uniform_strategy(self):
        result = sigma_star(SiteValues.uniform(6), 4)
        np.testing.assert_allclose(result.strategy.as_array(), np.full(6, 1 / 6), atol=1e-12)

    def test_single_player_picks_best_site(self):
        result = sigma_star(SiteValues.from_values([1.0, 0.9, 0.8]), 1)
        assert result.strategy == Strategy.point_mass(3, 0)
        assert result.equilibrium_value == pytest.approx(1.0)

    def test_single_site_many_players(self):
        result = sigma_star(SiteValues.uniform(1), 4)
        assert result.strategy == Strategy.point_mass(1, 0)
        assert result.equilibrium_value == 0.0

    def test_is_valid_distribution(self, medium_values):
        for k in (2, 3, 7, 15):
            result = sigma_star(medium_values, k)
            probs = result.strategy.as_array()
            assert probs.sum() == pytest.approx(1.0)
            assert np.all(probs >= 0)

    def test_support_is_prefix_and_monotone(self, medium_values):
        result = sigma_star(medium_values, 5)
        probs = result.strategy.as_array()
        assert result.strategy.has_prefix_support()
        within = probs[: result.support_size]
        # Higher-value sites are explored with higher probability.
        assert np.all(np.diff(within) <= 1e-12)

    def test_equilibrium_value_matches_site_values(self, small_values):
        # Claim 7: on the support nu(x) = alpha^(k-1) and below it nu(x) = f(x) < alpha^(k-1).
        k = 3
        result = sigma_star(small_values, k)
        f = small_values.as_array()
        nu = f * (1.0 - result.strategy.as_array()) ** (k - 1)
        np.testing.assert_allclose(
            nu[: result.support_size], result.equilibrium_value, atol=1e-12
        )
        if result.support_size < small_values.m:
            assert np.all(
                f[result.support_size :] < result.equilibrium_value + 1e-12
            )

    def test_satisfies_ifd_conditions(self, small_values):
        for k in (2, 3, 6):
            result = sigma_star(small_values, k)
            report = verify_ifd(small_values, result.strategy, k, ExclusivePolicy())
            assert report.is_ifd

    def test_scale_invariance(self, small_values):
        # Scaling all values by a constant does not change sigma_star.
        k = 4
        base = sigma_star(small_values, k).strategy.as_array()
        scaled = sigma_star(small_values.scaled(7.3), k).strategy.as_array()
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_accepts_sorted_raw_array(self):
        result = sigma_star(np.array([1.0, 0.5]), 2)
        assert result.support_size == 2

    def test_rejects_unsorted_raw_array(self):
        with pytest.raises(ValueError):
            sigma_star(np.array([0.5, 1.0]), 2)

    def test_rejects_bad_k(self, small_values):
        with pytest.raises(ValueError):
            sigma_star(small_values, 0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize(
        "values",
        [[1, 1e-300], [1e300, 1e-300], [1e308, 1e308, 1], [1e-300, 1e-300, 1e-301]],
        ids=["1:1e-300", "1e300:1e-300", "1e308-ties", "1e-300-ties"],
    )
    def test_wide_value_spreads_match_exact_arithmetic(self, values, k):
        w, alpha, equilibrium = exact_closed_form(values, k)
        result = sigma_star(np.array(values, dtype=float), k)
        assert result.support_size == w
        assert result.alpha == pytest.approx(float(alpha), rel=1e-12)
        assert result.equilibrium_value == pytest.approx(float(equilibrium), rel=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        m=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_sigma_star_properties(self, seed, m, k):
        values = random_values(seed, m)
        result = sigma_star(values, k)
        probs = result.strategy.as_array()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= -1e-12)
        assert 1 <= result.support_size <= m
        # IFD conditions hold for every instance (Claim 7).
        if k >= 2:
            report = verify_ifd(values, result.strategy, k, ExclusivePolicy(), atol=1e-7)
            assert report.is_ifd

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=30, deadline=None)
    def test_support_at_least_two_for_multi_site_multi_player(self, seed):
        values = random_values(seed, 6)
        assert sigma_star(values, 2).support_size >= 2
