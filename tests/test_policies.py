"""Tests for congestion policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    AggressivePolicy,
    CallablePolicy,
    ConstantPolicy,
    CooperativeSharingPolicy,
    ExclusivePolicy,
    ExponentialPolicy,
    PowerLawPolicy,
    SharingPolicy,
    TabulatedPolicy,
    TwoLevelPolicy,
)


class TestExclusive:
    def test_values(self):
        policy = ExclusivePolicy()
        assert policy.congestion(1) == 1.0
        assert policy.congestion(2) == 0.0
        np.testing.assert_allclose(policy.table(4), [1.0, 0.0, 0.0, 0.0])

    def test_reward(self):
        policy = ExclusivePolicy()
        assert policy.reward(0.7, 1) == pytest.approx(0.7)
        assert policy.reward(0.7, 3) == pytest.approx(0.0)

    def test_is_exclusive(self):
        assert ExclusivePolicy().is_exclusive(5)
        assert not SharingPolicy().is_exclusive(5)
        assert TwoLevelPolicy(0.0).is_exclusive(5)
        assert not TwoLevelPolicy(1e-3).is_exclusive(5)

    @given(
        head=st.sampled_from(
            [1.0, 1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 1e-5 + 1e-12, 1.0 + 2e-5, np.nan, np.inf]
        ),
        tail=st.lists(
            st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 2e-12, 1e-13, 1e-9, np.nan, -np.inf]),
            max_size=6,
        ),
        atol=st.sampled_from([1e-12, 0.0, 1e-9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_exclusive_decides_like_allclose(self, head, tail, atol):
        table = [head, *tail]
        policy = TabulatedPolicy(table, validate=False)
        expected = np.zeros(len(table))
        expected[0] = 1.0
        decision = bool(np.allclose(policy.table(len(table)), expected, atol=atol))
        assert policy.is_exclusive(len(table), atol=atol) is decision

    def test_rejects_zero_occupancy(self):
        with pytest.raises(ValueError):
            ExclusivePolicy().congestion(0)


class TestSharing:
    def test_values(self):
        policy = SharingPolicy()
        np.testing.assert_allclose(policy.table(4), [1.0, 0.5, 1 / 3, 0.25])

    def test_total_reward_conserved(self):
        # Sharing splits the site's value exactly: l * C(l) == 1.
        policy = SharingPolicy()
        ell = np.arange(1, 20)
        np.testing.assert_allclose(ell * policy.congestion(ell), 1.0)


class TestConstant:
    def test_values(self):
        np.testing.assert_allclose(ConstantPolicy().table(3), [1.0, 1.0, 1.0])


class TestTwoLevel:
    def test_interpolates_between_exclusive_and_sharing(self):
        np.testing.assert_allclose(TwoLevelPolicy(0.0).table(3), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(TwoLevelPolicy(0.5).table(2), SharingPolicy().table(2))

    def test_negative_collision_value(self):
        np.testing.assert_allclose(TwoLevelPolicy(-0.4).table(3), [1.0, -0.4, -0.4])

    def test_rejects_value_above_one(self):
        with pytest.raises(ValueError):
            TwoLevelPolicy(1.1)

    def test_scalar_output_type(self):
        assert isinstance(TwoLevelPolicy(0.2).congestion(2), float)


class TestPowerLaw:
    def test_gamma_one_is_sharing(self):
        np.testing.assert_allclose(PowerLawPolicy(1.0).table(5), SharingPolicy().table(5))

    def test_gamma_zero_is_constant(self):
        np.testing.assert_allclose(PowerLawPolicy(0.0).table(5), ConstantPolicy().table(5))

    def test_cooperative_regime(self):
        policy = PowerLawPolicy(0.5)
        table = policy.table(5)
        assert np.all(table[1:] > SharingPolicy().table(5)[1:])

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            PowerLawPolicy(-1.0)


class TestExponential:
    def test_values(self):
        policy = ExponentialPolicy(np.log(2.0))
        np.testing.assert_allclose(policy.table(3), [1.0, 0.5, 0.25])

    def test_beta_zero_is_constant(self):
        np.testing.assert_allclose(ExponentialPolicy(0.0).table(4), [1.0] * 4)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ExponentialPolicy(-0.1)


class TestAggressive:
    def test_values(self):
        np.testing.assert_allclose(AggressivePolicy(0.5).table(3), [1.0, -0.5, -0.5])

    def test_zero_penalty_is_exclusive(self):
        assert AggressivePolicy(0.0).is_exclusive(4)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            AggressivePolicy(-1.0)


class TestCooperativeSharing:
    def test_above_equal_share(self):
        policy = CooperativeSharingPolicy(synergy=1.5)
        table = policy.table(4)
        assert table[0] == 1.0
        assert np.all(table[1:] >= SharingPolicy().table(4)[1:])

    def test_rejects_synergy_below_one(self):
        with pytest.raises(ValueError):
            CooperativeSharingPolicy(0.5)


class TestTabulated:
    def test_lookup_and_extension(self):
        policy = TabulatedPolicy([1.0, 0.4, 0.1])
        assert policy.congestion(2) == pytest.approx(0.4)
        # Occupancies beyond the table reuse the last value.
        assert policy.congestion(10) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedPolicy([0.9, 0.4])
        with pytest.raises(ValueError):
            TabulatedPolicy([1.0, 0.4, 0.6])
        with pytest.raises(ValueError):
            TabulatedPolicy([])

    def test_validation_can_be_disabled(self):
        policy = TabulatedPolicy([1.0, 1.2], validate=False)
        assert policy.congestion(2) == pytest.approx(1.2)
        assert not policy.is_valid(2)


class TestCallable:
    def test_wraps_function(self):
        policy = CallablePolicy(lambda ell: 1.0 / ell**2, name="inverse-square")
        assert policy.congestion(2) == pytest.approx(0.25)
        assert policy.name == "inverse-square"
        np.testing.assert_allclose(policy.table(3), [1.0, 0.25, 1 / 9])


class TestValidation:
    @pytest.mark.parametrize(
        "policy",
        [
            ExclusivePolicy(),
            SharingPolicy(),
            ConstantPolicy(),
            TwoLevelPolicy(0.3),
            TwoLevelPolicy(-0.3),
            PowerLawPolicy(2.0),
            ExponentialPolicy(0.7),
            AggressivePolicy(1.0),
            CooperativeSharingPolicy(2.0),
            TabulatedPolicy([1.0, 0.5, 0.2]),
        ],
    )
    def test_all_policies_satisfy_axioms(self, policy):
        policy.validate(10)
        assert policy.is_valid(10)

    def test_invalid_callable_detected(self):
        policy = CallablePolicy(lambda ell: ell, name="increasing")
        assert not policy.is_valid(3)
        with pytest.raises(ValueError):
            policy.validate(3)

    @given(c=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_two_level_table_non_increasing(self, c):
        table = TwoLevelPolicy(c).table(6)
        assert table[0] == 1.0
        assert np.all(np.diff(table) <= 1e-12)
