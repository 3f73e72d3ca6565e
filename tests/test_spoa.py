"""Tests for the symmetric price of anarchy (Corollary 5, Theorem 6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    ExponentialPolicy,
    PowerLawPolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.spoa import (
    adversarial_values,
    spoa_instance,
    spoa_lower_bound_certificate,
    spoa_search,
)
from repro.core.sigma_star import support_size
from repro.core.values import SiteValues


class TestCorollary5:
    """SPoA of the exclusive policy is exactly 1."""

    def test_fixture_instance(self, small_values):
        for k in (2, 3, 6):
            result = spoa_instance(small_values, k, ExclusivePolicy())
            assert result.ratio == pytest.approx(1.0, abs=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        m=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_randomised(self, seed, m, k):
        values = SiteValues.random(m, np.random.default_rng(seed))
        result = spoa_instance(values, k, ExclusivePolicy())
        assert result.ratio == pytest.approx(1.0, abs=1e-8)

    def test_search_never_exceeds_one(self):
        ratio, _ = spoa_search(
            ExclusivePolicy(), k_values=(2, 3), m_values=(2, 6), n_random=5, rng=0
        )
        assert ratio == pytest.approx(1.0, abs=1e-8)


class TestTheorem6:
    """Every non-exclusive congestion policy has SPoA strictly above 1."""

    @pytest.mark.parametrize(
        "policy",
        [
            SharingPolicy(),
            ConstantPolicy(),
            TwoLevelPolicy(0.3),
            TwoLevelPolicy(-0.3),
            AggressivePolicy(0.75),
            PowerLawPolicy(0.5),
            PowerLawPolicy(3.0),
            ExponentialPolicy(0.5),
        ],
        ids=["sharing", "constant", "c=+0.3", "c=-0.3", "aggressive", "pow0.5", "pow3", "exp0.5"],
    )
    def test_certificate_instance_strictly_above_one(self, policy):
        for k in (2, 3, 5):
            certificate = spoa_lower_bound_certificate(policy, k)
            assert certificate.ratio > 1.0 + 1e-9, (policy.name, k, certificate)

    def test_adversarial_values_support_premise(self):
        # The adversarial profile forces the exclusive support beyond 2k sites.
        for k in (2, 4, 7):
            values = adversarial_values(SharingPolicy(), k)
            assert support_size(values, k) >= 2 * k

    def test_exclusive_certificate_is_exactly_one(self):
        certificate = spoa_lower_bound_certificate(ExclusivePolicy(), 4)
        assert certificate.ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "m, k_grid", [(100, (2, 4, 8)), (200, (2, 4, 8, 16))], ids=["k<=8", "k<=16"]
    )
    def test_constant_policy_spoa_grows_with_k(self, m, k_grid):
        # Under C == 1 everyone sits on the top site, so on near-uniform values
        # the SPoA is close to k (the paper's "roughly k" remark).
        values = SiteValues.slowly_decreasing(m, k_grid[-1])
        ratios = [spoa_instance(values, k, ConstantPolicy()).ratio for k in k_grid]
        assert np.all(np.diff(ratios) > 0)
        assert ratios[-1] > k_grid[-1] / 2


class TestSharingBound:
    """Kleinberg-Oren / Vetta: SPoA of the sharing policy is at most 2."""

    def test_randomised_search_below_two(self):
        ratio, instance = spoa_search(
            SharingPolicy(),
            k_values=(2, 3, 5),
            m_values=(2, 5, 10),
            n_random=10,
            rng=1,
        )
        assert 1.0 <= ratio <= 2.0 + 1e-9
        assert instance.equilibrium_coverage > 0

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        m=st.integers(min_value=2, max_value=12),
        k=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_instance_bound(self, seed, m, k):
        values = SiteValues.random(m, np.random.default_rng(seed))
        result = spoa_instance(values, k, SharingPolicy())
        assert result.ratio <= 2.0 + 1e-6


class TestSPoAInstanceFields:
    def test_fields(self, small_values):
        result = spoa_instance(small_values, 3, SharingPolicy())
        assert result.m == 4
        assert result.k == 3
        assert result.optimal_coverage >= result.equilibrium_coverage > 0
        assert result.ratio == pytest.approx(
            result.optimal_coverage / result.equilibrium_coverage
        )

    @pytest.mark.parametrize(
        "policy, ratio, k, m",
        [
            (SharingPolicy(), 1.1683569804025968, 5, 2),
            (AggressivePolicy(0.5), 1.2954274520298577, 8, 2),
        ],
        ids=["sharing", "aggressive"],
    )
    def test_default_search_finds_the_pinned_instance(self, policy, ratio, k, m):
        # Values of a one-instance-at-a-time search; batching each (k, m)
        # cell must not move them.
        best, instance = spoa_search(policy, rng=0)
        assert best == pytest.approx(ratio, rel=1e-12)
        assert (instance.k, instance.m) == (k, m)

    def test_search_returns_best_instance(self):
        ratio, instance = spoa_search(
            TwoLevelPolicy(0.4), k_values=(2,), m_values=(2, 4), n_random=3, rng=2
        )
        assert ratio == pytest.approx(instance.ratio)
        assert ratio > 1.0
