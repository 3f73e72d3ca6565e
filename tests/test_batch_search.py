"""Property tests for the batched Bayesian-search kernels of ``repro.batch.search``.

The core contracts:

* the closed-form kernels agree **elementwise** with the scalar
  :mod:`repro.search.simulator` formulas on ragged batches with mixed
  per-row ``k``, including rows whose expected discovery time is infinite;
* infinite rows are produced by where-masking — no floating-point warnings;
* the simulator's geometric inversion agrees in distribution with the
  closed forms and with :func:`oracles.lockstep_search_rounds`, which plays
  every round explicitly; censored trials report ``max_rounds + 1``;
* ``k <= 0`` rosters fail with a clear validation error.

The whole module runs once per available array backend through the autouse
fixture, mirroring the other batch suites.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import backend_params
from oracles import lockstep_search_rounds
from repro.backend import use_backend
from stat_helpers import assert_two_sample_z_within, assert_z_within
from repro.batch.search import (
    as_prior_batch,
    as_search_strategy_batch,
    expected_discovery_time_batch,
    simulate_search_batch,
    success_probability_batch,
)
from repro.core.strategy import Strategy
from repro.search import (
    BayesianSearchProblem,
    expected_discovery_time,
    greedy_top_k_strategy,
    proportional_strategy,
    sigma_star_strategy,
    simulate_search,
    single_round_success_probability,
    uniform_strategy,
)

SIGMAS = 6.0


@pytest.fixture(autouse=True, params=backend_params())
def array_backend(request):
    """Re-run every search property test under each available backend."""
    with use_backend(request.param):
        yield request.param


def ragged_search_batch(rng, count=8):
    """Problems with ragged box counts, mixed k, and a mixed strategy roster."""
    problems, strategies, ks = [], [], []
    for index in range(count):
        m = int(rng.integers(3, 9))
        problem = BayesianSearchProblem.from_weights(rng.uniform(0.1, 2.0, m))
        k = int(rng.integers(1, 6))
        factory = (
            sigma_star_strategy,
            lambda p, _k: uniform_strategy(p),
            lambda p, _k: proportional_strategy(p),
            greedy_top_k_strategy,
        )[index % 4]
        problems.append(problem)
        strategies.append(factory(problem, k))
        ks.append(k)
    priors = as_prior_batch(problems)
    matrix = as_search_strategy_batch(strategies, priors)
    return problems, strategies, np.asarray(ks, dtype=np.int64), priors, matrix


class TestClosedForms:
    def test_success_probability_matches_scalar_elementwise(self, rng):
        problems, strategies, ks, priors, matrix = ragged_search_batch(rng)
        batch = success_probability_batch(priors, matrix, ks)
        for index, (problem, strategy) in enumerate(zip(problems, strategies)):
            scalar = single_round_success_probability(problem, strategy, int(ks[index]))
            assert batch[index] == pytest.approx(scalar, abs=1e-12)

    def test_expected_discovery_time_matches_scalar_elementwise(self, rng):
        problems, strategies, ks, priors, matrix = ragged_search_batch(rng)
        batch = expected_discovery_time_batch(priors, matrix, ks)
        for index, (problem, strategy) in enumerate(zip(problems, strategies)):
            scalar = expected_discovery_time(problem, strategy, int(ks[index]))
            if np.isinf(scalar):
                assert np.isinf(batch[index])
            else:
                assert batch[index] == pytest.approx(scalar, rel=1e-12)

    def test_infinite_rows_without_warnings(self):
        # Row 0 ignores a possible box (-> inf); row 1 covers everything.
        priors = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25]])
        strategies = np.array([[1.0, 0.0, 0.0], [0.4, 0.3, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = expected_discovery_time_batch(priors, strategies, 2)
        assert np.isinf(times[0])
        assert np.isfinite(times[1])

    def test_scalar_wrapper_infinite_without_warnings(self):
        problem = BayesianSearchProblem.uniform(4)
        strategy = Strategy(np.array([0.5, 0.5, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_discovery_time(problem, strategy, 2) == np.inf

    def test_mixed_per_row_k(self, rng):
        problem = BayesianSearchProblem.zipf(6)
        priors = as_prior_batch([problem, problem])
        strategy = uniform_strategy(problem)
        matrix = as_search_strategy_batch([strategy, strategy], priors)
        out = success_probability_batch(priors, matrix, [1, 8])
        assert out[1] > out[0]

    def test_k_roster_validation(self):
        priors = np.array([[0.5, 0.5]])
        strategies = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match=">= 1"):
            success_probability_batch(priors, strategies, 0)
        with pytest.raises(ValueError, match=">= 1"):
            expected_discovery_time_batch(priors, strategies, [-2])
        with pytest.raises(ValueError, match="roster"):
            success_probability_batch(priors, strategies, [2, 3])
        for bad in (True, 2.000001, [2.5]):
            with pytest.raises(ValueError, match="integers"):
                expected_discovery_time_batch(priors, strategies, bad)


class TestSimulation:
    def test_geometric_b1_matches_scalar_wrapper(self):
        problem = BayesianSearchProblem.zipf(8)
        strategy = proportional_strategy(problem)
        outcome = simulate_search(problem, strategy, 3, 500, max_rounds=50, rng=5)
        batch = simulate_search_batch(
            problem.prior[None, :],
            strategy.as_array()[None, :],
            3,
            500,
            max_rounds=50,
            rng=5,
        )
        assert outcome.success_rate == batch.success_rates[0]
        assert outcome.round_one_success_rate == batch.round_one_success_rates[0]
        np.testing.assert_array_equal(outcome.rounds, batch.rounds[0])

    @pytest.mark.parametrize("method", ["geometric", "lockstep"])
    def test_round_one_rate_matches_closed_form(self, rng, method):
        problems, _, ks, priors, matrix = ragged_search_batch(rng, count=4)
        n_trials = 3_000
        if method == "geometric":
            batch = simulate_search_batch(priors, matrix, ks, n_trials, max_rounds=100, rng=3)
            rates = batch.round_one_success_rates
        else:
            rounds = lockstep_search_rounds(priors, matrix, ks, n_trials, 100, 3)
            rates = (rounds == 1).mean(axis=1)
        expected = success_probability_batch(priors, matrix, ks)
        # Under the null the round-one count is Binomial(n, p): SEM-aware
        # z-test instead of an ad-hoc absolute tolerance.
        sems = np.sqrt(np.maximum(expected * (1 - expected), 1e-12) / n_trials)
        assert_z_within(rates, expected, sems, SIGMAS, context=f"round-one rate ({method})")

    def test_methods_agree_in_distribution(self):
        problem = BayesianSearchProblem.uniform(5)
        strategy = uniform_strategy(problem)
        priors = problem.prior[None, :]
        matrix = strategy.as_array()[None, :]
        n_trials = 4_000
        geometric = simulate_search_batch(priors, matrix, 2, n_trials, max_rounds=300, rng=0)
        lockstep = lockstep_search_rounds(priors, matrix, 2, n_trials, 300, 1)[0]
        assert geometric.censored_counts[0] == 0
        assert np.all(lockstep <= 300)
        expected = expected_discovery_time_batch(priors, matrix, 2)[0]
        # Exact-vs-empirical and simulator-vs-oracle in sampling units: the
        # SEM of each uncensored mean replaces the old 10% relative tolerance.
        means = [geometric.mean_rounds_when_found[0], lockstep.mean()]
        sems = [
            float(np.std(rounds, ddof=1) / np.sqrt(n_trials))
            for rounds in (geometric.rounds[0], lockstep)
        ]
        for name, mean, sem in zip(("geometric", "lockstep"), means, sems):
            assert_z_within(mean, expected, sem, SIGMAS, context=f"mean rounds ({name})")
        assert_two_sample_z_within(
            means[0], sems[0], means[1], sems[1], SIGMAS,
            context="geometric vs lockstep mean rounds",
        )

    def test_ragged_batch_agrees_with_lockstep_oracle(self, rng):
        # Ragged box counts, mixed k and greedy rows that can never reach
        # some boxes (censored trials): per row, the success rate and the
        # mean round of the found trials agree with the round-by-round oracle.
        _, _, ks, priors, matrix = ragged_search_batch(rng, count=6)
        n_trials, max_rounds = 2_000, 1_000
        batch = simulate_search_batch(priors, matrix, ks, n_trials, max_rounds=max_rounds, rng=7)
        oracle = lockstep_search_rounds(priors, matrix, ks, n_trials, max_rounds, 8)
        assert np.any(batch.censored_counts > 0)
        for name, rounds in (("geometric", batch.rounds), ("lockstep", oracle)):
            assert np.all((rounds >= 1) & (rounds <= max_rounds + 1)), name
        found = [rounds <= max_rounds for rounds in (batch.rounds, oracle)]
        rates = [mask.mean(axis=1) for mask in found]
        rate_sems = [np.sqrt(rate * (1 - rate) / n_trials) for rate in rates]
        assert_two_sample_z_within(
            rates[0], rate_sems[0], rates[1], rate_sems[1], SIGMAS,
            context="success rate, geometric vs lockstep",
        )
        means, mean_sems = [], []
        for rounds, mask in zip((batch.rounds, oracle), found):
            kept = [row[hit] for row, hit in zip(rounds, mask)]
            means.append(np.array([row.mean() for row in kept]))
            mean_sems.append(np.array([row.std(ddof=1) / np.sqrt(row.size) for row in kept]))
        np.testing.assert_array_equal(means[0], batch.mean_rounds_when_found)
        assert_two_sample_z_within(
            means[0], mean_sems[0], means[1], mean_sems[1], SIGMAS,
            context="mean found round, geometric vs lockstep",
        )

    def test_lockstep_early_exit_when_treasure_is_certain(self):
        # One box: every search ends in round one, so the oracle's loop exits
        # after it, and the simulator agrees.
        priors = np.array([[1.0]])
        strategies = np.array([[1.0]])
        assert np.all(lockstep_search_rounds(priors, strategies, 2, 100, 10_000, 0) == 1)
        batch = simulate_search_batch(priors, strategies, 2, 100, max_rounds=10_000, rng=0)
        assert np.all(batch.rounds == 1)
        assert batch.success_rates[0] == 1.0

    def test_censoring_marks_unfound_trials(self):
        # Row 0 can never find its treasure when it hides in box 1.
        priors = np.array([[0.5, 0.5], [0.5, 0.5]])
        strategies = np.array([[1.0, 0.0], [0.5, 0.5]])
        batch = simulate_search_batch(priors, strategies, [1, 2], 2_000, max_rounds=3, rng=4)
        oracle = lockstep_search_rounds(priors, strategies, [1, 2], 2_000, 3, 4)
        for rounds in (batch.rounds, oracle):
            assert np.mean(rounds[0] <= 3) == pytest.approx(0.5, abs=0.05)
            assert rounds.max() == 4  # max_rounds + 1 = censored marker
            assert np.all(rounds >= 1)
        assert batch.success_rates[0] == pytest.approx(0.5, abs=0.05)
        # The explicit censored-count field mirrors the rounds marker exactly.
        np.testing.assert_array_equal(
            batch.censored_counts, (batch.rounds > batch.max_rounds).sum(axis=1)
        )
        assert batch.censored_counts[0] > 0

    def test_censored_rows_are_excluded_from_exact_comparisons(self, rng):
        # Regression: a harshly censored row's conditional mean is biased
        # low; the censored_counts flag is what exempts it from the
        # exact-vs-empirical z-test (comparing it anyway would fail).
        problem = BayesianSearchProblem.zipf(8)
        priors = as_prior_batch([problem, problem])
        strategy = uniform_strategy(problem)
        matrix = as_search_strategy_batch([strategy, strategy], priors)
        n_trials = 2_000
        batch = simulate_search_batch(
            priors, matrix, [1, 1], n_trials, max_rounds=4, rng=11
        )
        assert np.all(batch.censored_counts > 0)
        expected = expected_discovery_time_batch(priors, matrix, [1, 1])
        sems = np.std(batch.rounds, axis=1, ddof=1) / np.sqrt(n_trials)
        means = np.where(batch.censored_counts > 0, np.nan, batch.mean_rounds_when_found)
        # NaN-flagged rows are skipped by the helper: the assertion passes
        # only because every biased row is masked out.
        z = assert_z_within(means, expected, sems, SIGMAS, context="censored rows")
        assert np.all(np.isnan(z))
        with pytest.raises(AssertionError, match="z-score"):
            assert_z_within(
                batch.mean_rounds_when_found, expected, sems, SIGMAS, context="biased"
            )

    def test_scalar_outcome_reports_censored_count(self):
        problem = BayesianSearchProblem.uniform(6)
        outcome = simulate_search(
            problem, uniform_strategy(problem), 1, 400, max_rounds=2, rng=9
        )
        assert outcome.n_censored == int(np.sum(outcome.rounds > outcome.max_rounds))
        assert outcome.n_censored > 0
        covered = simulate_search(
            problem, uniform_strategy(problem), 4, 100, max_rounds=5_000, rng=9
        )
        assert covered.n_censored == 0

    def test_nothing_found_reports_nan_mean_rounds(self):
        priors = np.array([[1.0, 0.0]])
        strategies = np.array([[0.0, 1.0]])  # searches only the impossible box
        batch = simulate_search_batch(priors, strategies, 2, 50, max_rounds=5, rng=0)
        assert batch.success_rates[0] == 0.0
        assert np.isnan(batch.mean_rounds_when_found[0])
        assert np.all(batch.rounds[0] == 6)

    def test_trial_and_round_counts_are_validated(self):
        one = np.array([[1.0]])
        with pytest.raises(ValueError, match="n_trials"):
            simulate_search_batch(one, one, 1, 0)
        with pytest.raises(ValueError, match="max_rounds"):
            simulate_search_batch(one, one, 1, 5, max_rounds=0)


class TestStaging:
    def test_prior_rows_are_normalised_and_zero_padded(self):
        packed = as_prior_batch([np.array([2.0, 2.0]), np.array([1.0, 1.0, 2.0])])
        np.testing.assert_allclose(packed[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(packed[1], [0.25, 0.25, 0.5])

    def test_prior_validation(self):
        with pytest.raises(ValueError, match="positive mass"):
            as_prior_batch(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            as_prior_batch(np.array([[-0.5, 1.5]]))

    def test_strategy_validation(self):
        priors = as_prior_batch([np.array([1.0, 1.0])])
        with pytest.raises(ValueError, match="sum to one"):
            as_search_strategy_batch(np.array([[0.7, 0.7]]), priors)
        with pytest.raises(ValueError, match="boxes"):
            as_search_strategy_batch(np.ones((1, 3)) / 3, priors)
