"""Unit and property tests for repro.utils.numerics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.numerics import (
    binomial_pmf_tensor,
    is_non_increasing,
    log_factorial,
    safe_power,
    simplex_projection,
)


class TestIsNonIncreasing:
    def test_true_cases(self):
        assert is_non_increasing([3.0, 2.0, 2.0, 1.0])
        assert is_non_increasing([5.0])
        assert is_non_increasing([])

    def test_false_case(self):
        assert not is_non_increasing([1.0, 2.0])

    def test_tolerance(self):
        assert is_non_increasing([1.0, 1.0 + 1e-12], atol=1e-9)


class TestSafePower:
    def test_positive_base(self):
        np.testing.assert_allclose(safe_power(np.array([4.0, 9.0]), 0.5), [2.0, 3.0])

    def test_zero_base_negative_exponent_is_inf(self):
        out = safe_power(np.array([0.0, 2.0]), -1.0)
        assert np.isinf(out[0]) and out[1] == pytest.approx(0.5)

    def test_zero_base_zero_exponent_is_one(self):
        out = safe_power(np.array([0.0]), 0.0)
        assert out[0] == 1.0

    def test_zero_base_positive_exponent_is_zero(self):
        assert safe_power(np.array([0.0]), 2.0)[0] == 0.0

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError):
            safe_power(np.array([-1.0]), 0.5)

    def test_scalar_round_trip(self):
        assert float(safe_power(2.0, 3.0)) == pytest.approx(8.0)


class TestFactorialsAndBinomials:
    def test_log_factorial_small_values(self):
        lf = log_factorial(5)
        np.testing.assert_allclose(np.exp(lf), [1, 1, 2, 6, 24, 120])

    def test_log_factorial_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


def binomial_pmf_row(n: int, probs) -> np.ndarray:
    """One binomial law per entry of ``probs``: the one-row tensor call, ``(M, n + 1)``."""
    return binomial_pmf_tensor(n, np.asarray(probs, dtype=float)[None])[0]


class TestBinomialPmfOneRow:
    def test_rows_sum_to_one(self):
        pmf = binomial_pmf_row(7, np.linspace(0, 1, 9))
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0)

    def test_matches_scipy(self):
        from scipy.stats import binom

        probs = np.array([0.0, 0.1, 0.5, 0.93, 1.0])
        pmf = binomial_pmf_row(6, probs)
        expected = np.vstack([binom.pmf(np.arange(7), 6, p) for p in probs])
        np.testing.assert_allclose(pmf, expected, atol=1e-12)

    def test_zero_trials(self):
        pmf = binomial_pmf_row(0, np.array([0.3, 0.7]))
        np.testing.assert_allclose(pmf, [[1.0], [1.0]])

    def test_degenerate_probabilities(self):
        pmf = binomial_pmf_row(4, np.array([0.0, 1.0]))
        assert pmf[0, 0] == pytest.approx(1.0)
        assert pmf[1, 4] == pytest.approx(1.0)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError):
            binomial_pmf_row(-1, np.array([0.5]))

    def test_rejects_out_of_range_probs(self):
        with pytest.raises(ValueError):
            binomial_pmf_row(3, np.array([1.5]))

    def test_rejects_non_matrix_probs(self):
        with pytest.raises(ValueError):
            binomial_pmf_tensor(3, np.zeros(2))
        with pytest.raises(ValueError):
            binomial_pmf_tensor(3, np.zeros((1, 2, 2)))

    def test_large_n_without_overflow(self):
        # C(n, j) alone overflows a double past n = 1029; the law must not.
        n = 5000
        probs = np.array([0.0, 1e-3, 0.3, 0.999, 1.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            pmf = binomial_pmf_row(n, probs)
        assert np.all(np.isfinite(pmf)) and np.all(pmf >= 0.0)
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pmf @ np.arange(n + 1), n * probs, rtol=1e-9, atol=1e-9)

    @given(
        n=st.integers(min_value=1, max_value=15),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mean_matches_np(self, n, p):
        pmf = binomial_pmf_row(n, np.array([p]))[0]
        mean = float(np.dot(np.arange(n + 1), pmf))
        assert mean == pytest.approx(n * p, abs=1e-9)


class TestSimplexProjection:
    def test_already_on_simplex_is_fixed_point(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(simplex_projection(v), v, atol=1e-12)

    def test_output_is_distribution(self):
        out = simplex_projection(np.array([5.0, -3.0, 0.4]))
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0)

    def test_single_element(self):
        np.testing.assert_allclose(simplex_projection(np.array([42.0])), [1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            simplex_projection(np.array([]))

    @given(
        v=arrays(
            dtype=float,
            shape=st.integers(min_value=1, max_value=12),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_projection_properties(self, v):
        out = simplex_projection(v)
        assert out.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(out >= -1e-12)

    def test_projection_is_closest_point(self, rng):
        # Compare against a brute-force search over random simplex points.
        v = rng.normal(size=4)
        projected = simplex_projection(v)
        candidates = rng.dirichlet(np.ones(4), size=2000)
        best = candidates[np.argmin(((candidates - v) ** 2).sum(axis=1))]
        assert np.linalg.norm(projected - v) <= np.linalg.norm(best - v) + 1e-6


class TestPlanMemo:
    """Cross-call memoization of binomial-PMF plans (repro.utils.memo)."""

    def _fresh(self, max_entries=4):
        from repro.utils.memo import PlanMemo

        return PlanMemo(max_entries=max_entries)

    def test_hit_miss_counters_and_reuse(self):
        memo = self._fresh()
        first = memo.get(5, batch_size=3)
        again = memo.get(5, batch_size=3)
        assert again is first  # the same plan object, not a rebuild
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["hit_rate"] == 0.5

    def test_distinct_shapes_get_distinct_entries(self):
        memo = self._fresh()
        first = memo.get(5, batch_size=3)
        memo.get(5, batch_size=4)  # different broadcast width: new entry
        memo.get(np.array([5, 6, 7]))  # ragged roster: new entry
        assert len(memo) == 3
        # A constant roster collapses to the scalar spelling's key — the
        # plans are interchangeable, so this is a hit, not a new entry.
        assert memo.get(np.array([5, 5, 5])) is first
        assert len(memo) == 3

    def test_lru_eviction_is_bounded(self):
        memo = self._fresh(max_entries=2)
        for n in (3, 4, 5, 6):
            memo.get(n, batch_size=1)
        assert len(memo) == 2
        assert memo.stats()["evictions"] == 2

    def test_plan_path_is_elementwise_identical_to_no_plan(self):
        from repro.utils.memo import PlanMemo
        from repro.utils.numerics import binomial_pmf_tensor

        rng = np.random.default_rng(99)
        probs = rng.uniform(0.0, 1.0, size=(4, 6))
        memo = PlanMemo()
        for n in (1, 2, 7):
            plan = memo.get(n, batch_size=probs.shape[0])
            with_plan = binomial_pmf_tensor(n, probs, plan=plan)
            without = binomial_pmf_tensor(n, probs)
            np.testing.assert_array_equal(with_plan, without)

    def test_disabled_context_bypasses_without_caching(self):
        memo = self._fresh()
        with memo.disabled():
            memo.get(5, batch_size=2)
            memo.get(5, batch_size=2)
        stats = memo.stats()
        assert len(memo) == 0
        assert stats["bypasses"] == 2 and stats["hits"] == 0

    def test_module_singleton_feeds_the_solver_hot_path(self):
        from repro.batch.ifd import ifd_batch
        from repro.batch.padding import PaddedValues
        from repro.core.policies import SharingPolicy
        from repro.utils.memo import plan_memo

        padded = PaddedValues.from_instances(
            [np.sort(np.random.default_rng(7).uniform(0.5, 2.0, 9))[::-1]]
        )
        plan_memo.clear()
        plan_memo.reset_counters()
        ifd_batch(padded, [4], SharingPolicy())
        assert plan_memo.stats()["misses"] == 1  # one final realised-value pass
        solved = ifd_batch(padded, [4], SharingPolicy())
        assert plan_memo.stats()["hits"] == 1  # the next solve reuses its plan
        with plan_memo.disabled():
            reference = ifd_batch(padded, [4], SharingPolicy())
        np.testing.assert_array_equal(solved.probabilities, reference.probabilities)
        np.testing.assert_array_equal(solved.values, reference.values)
