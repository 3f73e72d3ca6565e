"""Exact Von Schelling coverage-time laws vs the exponential-race estimator.

The headline contract of this module: the closed-form coverage-time kernels
of :mod:`repro.batch.coverage_times` agree with the exponential-race
Monte-Carlo estimator — ``E[T]`` within four standard errors, the empirical
CDF inside a four-sigma DKW band — on a seeded 64-row grid of ragged,
mixed-``k``, partly near-degenerate visit distributions, and again at
``M = 12`` and ``M = 16``; censored rows are flagged and excluded rather
than silently biasing the comparison (the SEM/DKW machinery lives in
``tests/stat_helpers.py`` and is shared with the other stochastic suites).
The race shares no algebra with the inclusion-exclusion kernels, so it is
an independent oracle.

Around the headline sit the deterministic anchors:

* a brute-force subset-state dynamic program reproduces the exact CDF,
  expectation and every partial expectation on small instances;
* distribution-free properties — CDF monotone in ``[0, 1]`` with
  ``F(0) = 0``, ``t`` rounds of ``k`` draws equals ``kt`` single draws,
  uniform rows collapse to the classical coupon collector
  (``m H_m`` harmonics at any ``M``), ``E[T]`` is minimised by the uniform
  distribution, partial coverage interpolates between ``j = 1`` and
  ``j = M``;
* the where-masked degenerate contract (``inf`` expectations, zero CDFs,
  no floating-point warnings) and the staging/validation error paths.

The whole module runs once per available array backend through the autouse
fixture, mirroring the other batch suites.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import backend_params
from repro.backend import use_backend
from repro.batch.coverage_times import (
    DEFAULT_MAX_EXACT_SITES,
    as_visit_distribution_batch,
    coverage_time_cdf_batch,
    estimate_coverage_time_mc,
    expected_coverage_time_batch,
    partial_coverage_time_batch,
)
from repro.search import (
    BayesianSearchProblem,
    coverage_time_cdf,
    expected_coverage_time,
    partial_coverage_time,
    sigma_star_strategy,
    uniform_strategy,
)
from stat_helpers import assert_cdf_within_band, assert_z_within

SIGMAS = 4.0


@pytest.fixture(autouse=True, params=backend_params())
def array_backend(request):
    """Re-run every coverage-time property test under each available backend."""
    with use_backend(request.param):
        yield request.param


def brute_force_laws(p, k, t_max, tol=1e-13):
    """Subset-state DP: exact CDFs of |visited| >= j for every j, plus E[T_j].

    State = the set of visited sites; one round composes ``k`` single-draw
    transitions.  Returns ``(cdfs, expectations)`` where ``cdfs[j - 1]`` is
    the CDF grid of the time to visit ``j`` distinct sites on
    ``t = 0..t_max`` and ``expectations[j - 1]`` its mean via the survival
    sum (truncated once the full-coverage survival drops below ``tol``).
    """
    p = np.asarray(p, dtype=float)
    m = p.size
    size = np.array([bin(state).count("1") for state in range(1 << m)])

    def step(dist):
        out = np.zeros_like(dist)
        for state in range(1 << m):
            if dist[state] == 0.0:
                continue
            for site in range(m):
                out[state | (1 << site)] += dist[state] * p[site]
        return out

    dist = np.zeros(1 << m)
    dist[0] = 1.0
    cdfs = [[0.0] for _ in range(m)]
    expectations = np.zeros(m)
    t = 0
    while True:
        survival = 1.0 - cdfs[m - 1][-1]
        expectations += np.array([1.0 - row[-1] for row in cdfs])
        if (survival < tol and t >= t_max) or t > 100_000:
            break
        for _ in range(k):
            dist = step(dist)
        t += 1
        for j in range(1, m + 1):
            cdfs[j - 1].append(float(dist[size >= j].sum()))
    return [np.asarray(row[: t_max + 1]) for row in cdfs], expectations


def ragged_rows(rng, count, m_range=(2, 6), near_degenerate_every=5):
    """A ragged batch of visit distributions with a few near-degenerate rows."""
    rows = []
    for index in range(count):
        m = int(rng.integers(*m_range))
        if near_degenerate_every and index % near_degenerate_every == 0 and m >= 2:
            # Almost all mass on one site: long but finite coverage times.
            row = np.full(m, 0.05 / (m - 1))
            row[int(rng.integers(m))] = 0.95
        else:
            row = rng.dirichlet(np.ones(m) * 0.9)
        rows.append(row)
    return rows


def race_partial_rounds(p, k, j, n_trials, rng):
    """Samples of ``T_j`` from the exponential race's ``j``-th order statistic.

    With single draws arriving as a rate-1 Poisson process, site ``x`` is
    first visited at ``E_x ~ Exp(p_x)``; ``j`` sites are covered at the
    ``j``-th smallest ``E``, by which time ``j`` first visits plus
    ``Poisson(sum_x p_x (tau_j - E_x)^+)`` repeat visits have been drawn.
    """
    first = rng.standard_exponential((n_trials, p.size)) / p
    tau = np.sort(first, axis=1)[:, j - 1 : j]
    repeats = rng.poisson(np.sum(p * np.clip(tau - first, 0.0, None), axis=1))
    return np.ceil((j + repeats) / k)


class TestStaging:
    def test_ragged_sequence_packs_and_normalises(self):
        probs, counts = as_visit_distribution_batch([[2.0, 2.0], [1.0, 1.0, 2.0]])
        assert probs.shape == (2, 3)
        assert counts.tolist() == [2, 3]
        assert np.allclose(probs[0], [0.5, 0.5, 0.0])
        assert np.allclose(probs[1], [0.25, 0.25, 0.5])

    def test_matrix_with_sizes_keeps_padding_clean(self):
        matrix = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        probs, counts = as_visit_distribution_batch(matrix, sizes=[2, 3])
        assert counts.tolist() == [2, 3]
        assert probs[0, 2] == 0.0

    def test_strategy_objects_are_accepted(self):
        problem = BayesianSearchProblem.from_weights([3.0, 2.0, 1.0])
        probs, counts = as_visit_distribution_batch([uniform_strategy(problem)])
        assert counts.tolist() == [3]
        assert np.allclose(probs[0], 1.0 / 3.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_visit_distribution_batch(np.empty((0, 3)))
        with pytest.raises(ValueError, match="empty batch"):
            as_visit_distribution_batch([])
        with pytest.raises(ValueError, match="finite and non-negative"):
            as_visit_distribution_batch([[0.5, -0.5]])
        with pytest.raises(ValueError, match="positive mass"):
            as_visit_distribution_batch([[0.0, 0.0]])
        with pytest.raises(ValueError, match="zero mass"):
            as_visit_distribution_batch(np.array([[0.5, 0.5]]), sizes=[1])
        with pytest.raises(ValueError, match="sizes"):
            as_visit_distribution_batch(np.eye(2), sizes=[1, 2, 3])
        # Sizes are counts: 2.9 is refused, not truncated to 2.
        with pytest.raises(ValueError, match="sizes"):
            as_visit_distribution_batch(np.array([[0.5, 0.5, 0.0]]), sizes=[2.9])

    def test_times_and_j_validation(self):
        row = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="non-negative"):
            coverage_time_cdf_batch(row, 1, -1)
        with pytest.raises(ValueError, match="1 <= j"):
            partial_coverage_time_batch(row, 1, 3)
        with pytest.raises(ValueError, match="1 <= j"):
            partial_coverage_time_batch(row, 1, 0)
        with pytest.raises(ValueError, match=r"\(1,\) roster"):
            partial_coverage_time_batch(row, 1, [1, 2])
        # Bools and non-integral counts are refused, not cast to k = 1 or j = 2.
        for bad in (True, 2.000001):
            with pytest.raises(ValueError, match="integers"):
                expected_coverage_time_batch(row, bad)
        with pytest.raises(ValueError, match="integers"):
            partial_coverage_time_batch(row, 2, 2.5)

    def test_non_uniform_rows_beyond_max_sites_refuse(self):
        wide = np.linspace(1.0, 2.0, DEFAULT_MAX_EXACT_SITES + 1)
        with pytest.raises(ValueError, match="max_sites"):
            expected_coverage_time_batch(wide[None, :] / wide.sum(), 2)
        # An explicit cap raise admits the same row.
        value = expected_coverage_time_batch(
            wide[None, :] / wide.sum(), 2, max_sites=DEFAULT_MAX_EXACT_SITES + 1
        )
        assert np.isfinite(value[0])
        # Uniform rows bypass enumeration entirely, at any width.
        big = np.full((1, 50), 1.0 / 50.0)
        assert np.isfinite(expected_coverage_time_batch(big, 2)[0])


class TestBruteForceAnchor:
    def test_all_laws_match_subset_state_dp(self, rng):
        for m in (2, 3, 4):
            for k in (1, 2, 3):
                p = rng.dirichlet(np.ones(m) * 0.8)
                t_max = 12
                cdfs, expectations = brute_force_laws(p, k, t_max)
                grid = np.arange(t_max + 1)
                full = coverage_time_cdf_batch(p[None, :], k, grid)[0]
                assert np.allclose(full, cdfs[m - 1], atol=1e-10)
                value = expected_coverage_time_batch(p[None, :], k)[0]
                assert abs(value - expectations[m - 1]) < 1e-8 * max(1.0, expectations[m - 1])
                for j in range(1, m + 1):
                    partial = partial_coverage_time_batch(p[None, :], k, j)[0]
                    assert abs(partial - expectations[j - 1]) < 1e-8 * max(
                        1.0, expectations[j - 1]
                    )

    def test_uniform_rows_match_dp_for_k_greater_than_one(self):
        for m, k in ((3, 2), (4, 3)):
            p = np.full(m, 1.0 / m)
            _, expectations = brute_force_laws(p, k, 1)
            value = expected_coverage_time_batch(p[None, :], k)[0]
            assert abs(value - expectations[m - 1]) < 1e-8 * max(1.0, expectations[m - 1])


class TestProperties:
    def test_cdf_is_monotone_in_unit_interval_from_zero(self, rng):
        rows = ragged_rows(rng, 6)
        probs, counts = as_visit_distribution_batch(rows)
        ks = np.asarray([1, 2, 3, 5, 2, 1])
        grid = np.arange(0, 40)
        cdf = coverage_time_cdf_batch(probs, ks, grid, sizes=counts)
        assert cdf.shape == (6, 40)
        assert np.all(cdf[:, 0] == 0.0)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf, axis=1) >= -1e-12)

    def test_k_rounds_reduce_to_single_draws(self, rng):
        p = rng.dirichlet(np.ones(5))
        grid = np.arange(0, 15)
        for k in (2, 3, 4):
            many = coverage_time_cdf_batch(p[None, :], k, grid)[0]
            single = coverage_time_cdf_batch(p[None, :], 1, k * grid)[0]
            assert np.allclose(many, single, atol=1e-12)

    def test_uniform_is_the_classical_coupon_collector(self):
        for m in (1, 2, 7, 40, 500):
            harmonic = float(np.sum(1.0 / np.arange(1, m + 1)))
            value = expected_coverage_time_batch(np.full((1, m), 1.0 / m), 1)[0]
            assert abs(value - m * harmonic) < 1e-9 * max(1.0, m * harmonic)
        # Partial coverage: E[T_j] = m (H_m - H_{m-j}).
        m, j = 30, 12
        harmonics = np.cumsum(1.0 / np.arange(1, m + 1))
        expected = m * (harmonics[-1] - harmonics[m - j - 1])
        value = partial_coverage_time_batch(np.full((1, m), 1.0 / m), 1, j)[0]
        assert abs(value - expected) < 1e-9 * expected

    def test_uniform_minimises_expected_coverage_time(self, rng):
        for m in (3, 4, 5):
            uniform = expected_coverage_time_batch(np.full((1, m), 1.0 / m), 1)[0]
            for _ in range(5):
                p = rng.dirichlet(np.ones(m))
                skewed = expected_coverage_time_batch(p[None, :], 1)[0]
                assert skewed >= uniform - 1e-9

    def test_partial_coverage_interpolates(self, rng):
        p = rng.dirichlet(np.ones(5))
        full = expected_coverage_time_batch(p[None, :], 2)[0]
        previous = 0.0
        for j in range(1, 6):
            value = partial_coverage_time_batch(p[None, :], 2, j)[0]
            assert value >= previous - 1e-12
            previous = value
        assert abs(previous - full) < 1e-10 * max(1.0, full)
        assert partial_coverage_time_batch(p[None, :], 2, 1)[0] == pytest.approx(1.0)

    def test_single_site_is_immediate(self):
        one = np.ones((1, 1))
        assert expected_coverage_time_batch(one, 3)[0] == pytest.approx(1.0)
        cdf = coverage_time_cdf_batch(one, 3, [0, 1, 2])[0]
        assert np.allclose(cdf, [0.0, 1.0, 1.0])

    def test_mixed_j_roster(self, rng):
        rows = [rng.dirichlet(np.ones(m)) for m in (3, 4, 5)]
        probs, counts = as_visit_distribution_batch(rows)
        js = np.asarray([1, 2, 5])
        values = partial_coverage_time_batch(probs, 2, js, sizes=counts)
        for index, j in enumerate(js):
            scalar = partial_coverage_time_batch(
                rows[index][None, :], 2, int(j)
            )[0]
            assert values[index] == pytest.approx(scalar)


class TestDegenerateContract:
    def test_uncoverable_rows_are_inf_without_warnings(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = expected_coverage_time_batch(probs, 2)
            cdf = coverage_time_cdf_batch(probs, 2, [0, 4, 64])
            partial = partial_coverage_time_batch(probs, 2, [3, 3])
        assert np.isinf(expected[0]) and np.isfinite(expected[1])
        assert np.all(cdf[0] == 0.0) and cdf[1, -1] > 0.9
        assert np.isinf(partial[0]) and np.isfinite(partial[1])
        # j within the positive support is still reachable.
        reachable = partial_coverage_time_batch(probs, 2, [2, 2])
        assert np.isfinite(reachable).all()

    def test_sigma_star_with_small_support_is_flagged(self):
        problem = BayesianSearchProblem.from_weights([5.0, 1.0, 0.5, 0.1])
        strategy = sigma_star_strategy(problem, 1)  # concentrates on one box
        probs, counts = as_visit_distribution_batch([strategy])
        if float(np.count_nonzero(probs[0])) < counts[0]:
            assert np.isinf(expected_coverage_time_batch(probs, 1, sizes=counts)[0])


class TestScalarWrappers:
    def test_wrappers_agree_with_batch(self, rng):
        p = rng.dirichlet(np.ones(4))
        assert expected_coverage_time(p, 2) == pytest.approx(
            float(expected_coverage_time_batch(p[None, :], 2)[0])
        )
        grid = [0, 3, 9]
        vector = coverage_time_cdf(p, 2, grid)
        assert vector.shape == (3,)
        assert np.allclose(vector, coverage_time_cdf_batch(p[None, :], 2, grid)[0])
        scalar = coverage_time_cdf(p, 2, 3)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(float(vector[1]))
        assert partial_coverage_time(p, 2, 3) == pytest.approx(
            float(partial_coverage_time_batch(p[None, :], 2, 3)[0])
        )

    def test_wrapper_validation(self):
        with pytest.raises(ValueError):
            expected_coverage_time([0.5, 0.5], 0)
        with pytest.raises(ValueError):
            partial_coverage_time([0.5, 0.5], 1, 0)
        with pytest.raises(ValueError):
            expected_coverage_time([], 1)


class TestMonteCarloCrossValidation:
    def test_headline_grid_agrees_within_four_sigma(self):
        # The acceptance grid: >= 64 ragged rows, mixed k, near-degenerate
        # rows every fifth position, one seeded estimator pass.
        rng = np.random.default_rng(20180503)
        rows = ragged_rows(rng, 64)
        probs, counts = as_visit_distribution_batch(rows)
        ks = np.asarray([(1, 2, 3, 5)[index % 4] for index in range(64)])
        grid = np.asarray([1, 2, 4, 8, 16, 64, 256])

        exact_mean = expected_coverage_time_batch(probs, ks, sizes=counts)
        exact_cdf = coverage_time_cdf_batch(probs, ks, grid, sizes=counts)
        estimate = estimate_coverage_time_mc(
            probs, ks, 3000, sizes=counts, times=grid, rng=rng
        )

        assert np.all(np.isfinite(exact_mean))
        assert np.all(estimate.censored_counts == 0)
        assert_z_within(
            estimate.means, exact_mean, estimate.sems, SIGMAS, context="E[T]"
        )
        assert_cdf_within_band(
            estimate.cdfs, exact_cdf, estimate.n_trials, SIGMAS, context="P(T <= t)"
        )

    @pytest.mark.parametrize("m", [12, 16])
    def test_wide_rows_agree_within_four_sigma(self, m):
        rng = np.random.default_rng(m)
        probs = rng.dirichlet(np.full(m, 2.0), size=8)
        ks = np.asarray([1, 2, 3, 5] * 2)
        grid = np.unique(np.geomspace(1, 4096, 13).astype(int))

        exact_mean = expected_coverage_time_batch(probs, ks)
        exact_cdf = coverage_time_cdf_batch(probs, ks, grid)
        estimate = estimate_coverage_time_mc(probs, ks, 3000, times=grid, rng=rng)

        assert np.all(estimate.censored_counts == 0)
        assert_z_within(estimate.means, exact_mean, estimate.sems, SIGMAS, context="E[T]")
        assert_cdf_within_band(
            estimate.cdfs, exact_cdf, estimate.n_trials, SIGMAS, context="P(T <= t)"
        )

    def test_race_order_statistic_matches_partial_coverage(self, rng):
        n_trials = 4000
        for m, k in ((4, 1), (7, 2), (10, 3)):
            p = rng.dirichlet(np.ones(m))
            j = -(-m // 2)
            rounds = race_partial_rounds(p, k, j, n_trials, rng)
            exact = partial_coverage_time_batch(p[None, :], k, j)[0]
            assert_z_within(
                rounds.mean(),
                exact,
                rounds.std(ddof=1) / np.sqrt(n_trials),
                SIGMAS,
                context=f"E[T_{j}] m={m} k={k}",
            )

    def test_estimator_flags_censored_rows(self):
        probs = np.array([[0.98, 0.02]])
        estimate = estimate_coverage_time_mc(probs, 1, 300, max_rounds=3, rng=0)
        assert estimate.censored_counts[0] > 0
        assert np.isnan(estimate.means[0]) and np.isnan(estimate.sems[0])

    def test_estimator_flags_degenerate_rows(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        estimate = estimate_coverage_time_mc(probs, 2, 120, times=[4], rng=1)
        assert estimate.censored_counts[0] == estimate.n_trials
        assert np.isnan(estimate.means[0])
        assert np.all(np.isnan(estimate.cdfs[0]))
        assert np.isfinite(estimate.means[1])

    def test_estimator_survives_rates_past_the_poisson_sampler(self):
        # A 1e-22 site waits ~1e22 draws for its first visit: far past what
        # numpy's Poisson sampler accepts, yet only ~1e4 rounds of 1e18 draws.
        probs = np.array([[1.0 - 1e-22, 1e-22], [1.0 - 1e-30, 1e-30]])
        k = 10**18
        estimate = estimate_coverage_time_mc(probs, k, 400, max_rounds=10**9, rng=3)
        exact = expected_coverage_time_batch(probs, k)
        assert estimate.censored_counts.tolist() == [0, 400]
        assert_z_within(estimate.means[0], exact[0], estimate.sems[0], SIGMAS)

    def test_estimator_is_seed_deterministic(self):
        probs = np.array([[0.3, 0.7], [0.5, 0.5]])
        first = estimate_coverage_time_mc(probs, 2, 200, times=[2, 8], rng=42)
        second = estimate_coverage_time_mc(probs, 2, 200, times=[2, 8], rng=42)
        assert np.array_equal(first.means, second.means)
        assert np.array_equal(first.cdfs, second.cdfs)
