"""Property tests for the batched payoff kernel and the unified dynamics engine.

The core contract: every batched dynamics rule agrees **elementwise** with the
scalar wrappers of :mod:`repro.dynamics` — including ragged site counts, mixed
per-row player counts, rows that start at their equilibrium, and non-trivial
``record_every`` strides — and rows that converge are frozen (never updated
again) while the rest of the batch keeps stepping.  The payoff kernels and
the binomial law are checked against the independent oracles of
``tests/oracles.py`` (enumeration, term-by-term sums), since the scalar
payoff calculus is a view of the same kernel.

The whole module runs once per available array backend (numpy always;
``array_api_strict`` when installed, skip-marked otherwise) through the
autouse ``array_backend`` fixture, so the engine's scatter-free stepping path
is exercised under the strict namespace while the scalar references stay on
the host.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import backend_params
from oracles import binomial_law, brute_force_site_payoffs, replicator_loop
from repro.backend import from_numpy, resolve_backend, to_numpy, use_backend
from repro.batch import (
    PaddedValues,
    best_response_batch,
    best_response_value_batch,
    congestion_table_batch,
    exploitability_batch,
    expected_payoff_batch,
    invasion_batch,
    logit_batch,
    make_rule,
    occupancy_congestion_factor_batch,
    replicator_batch,
    site_values_batch,
)
from repro.batch.dynamics import DynamicsEngine
from repro.batch.ifd import DE_CASTELJAU_MAX_DEGREE, bernstein_evaluator
from repro.batch.payoffs import as_k_vector
from repro.core.payoffs import site_values
from repro.core.policies import (
    AggressivePolicy,
    ExclusivePolicy,
    PowerLawPolicy,
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
    replicator_dynamics,
)
from repro.utils.numerics import binomial_pmf_tensor

POLICIES = [ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.2)]


@pytest.fixture(autouse=True, params=backend_params())
def array_backend(request):
    """Re-run every dynamics property test under each available backend."""
    with use_backend(request.param):
        yield request.param


@pytest.fixture
def ragged_batch():
    """Ragged instances with mixed per-row player counts."""
    rng = np.random.default_rng(7)
    instances = [SiteValues.random(int(m), rng) for m in (4, 9, 6, 3, 11)]
    ks = np.array([2, 5, 3, 4, 2], dtype=np.int64)
    return PaddedValues.from_instances(instances), instances, ks


def random_states(padded: PaddedValues, rng: np.random.Generator) -> np.ndarray:
    states = np.where(padded.mask, rng.random(padded.values.shape), 0.0)
    return states / states.sum(axis=1, keepdims=True)


class TestBinomialPmfTensor:
    def test_matches_term_by_term_law_per_row(self, ragged_batch):
        padded, _, ks = ragged_batch
        rng = np.random.default_rng(3)
        probs = rng.random(padded.values.shape)
        tensor = binomial_pmf_tensor(ks - 1, probs)
        for row, k in enumerate(ks):
            n = int(k) - 1
            expected = binomial_law(n, probs[row]).T
            np.testing.assert_allclose(tensor[row, :, : n + 1], expected, atol=1e-14)
            assert np.all(tensor[row, :, n + 1 :] == 0.0)

    def test_scalar_trials_broadcast(self):
        probs = np.array([[0.2, 0.8], [0.5, 0.5]])
        tensor = binomial_pmf_tensor(3, probs)
        assert tensor.shape == (2, 2, 4)
        np.testing.assert_allclose(tensor.sum(axis=2), 1.0)

    def test_zero_trials(self):
        tensor = binomial_pmf_tensor(0, np.array([[0.3, 0.7]]))
        np.testing.assert_allclose(tensor, np.ones((1, 2, 1)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binomial_pmf_tensor(-1, np.array([[0.5]]))
        with pytest.raises(ValueError):
            binomial_pmf_tensor(2, np.array([0.5]))
        with pytest.raises(ValueError):
            binomial_pmf_tensor(2, np.array([[1.5]]))

    def test_rejects_nan_probabilities(self):
        # A NaN entry used to pass the range check and come back as an
        # all-zero "law".
        with pytest.raises(ValueError, match=r"probs must lie in \[0, 1\]"):
            binomial_pmf_tensor(2, np.array([[np.nan, 0.5]]))


class TestBernsteinEvaluator:
    """The shared ``g``/``g'`` evaluator of the IFD solver and the dynamics engine."""

    @staticmethod
    def reference(tables, degrees, q):
        """``g`` and ``g'`` contracted from the binomial laws on the host."""
        pmf = binomial_pmf_tensor(degrees, q)
        g = np.sum(pmf * tables[:, None, : pmf.shape[2]], axis=2)
        lower = np.maximum(degrees - 1, 0)
        slope_pmf = binomial_pmf_tensor(lower, q)
        width = slope_pmf.shape[2]
        diffs = tables[:, 1 : width + 1] - tables[:, :width]
        diffs = np.where(np.arange(width)[None, :] < degrees[:, None], diffs, 0.0)
        return g, degrees[:, None] * np.sum(slope_pmf * diffs[:, None, :], axis=2)

    # The largest k of the batch picks de Casteljau (k <= 25) or log-space.
    @pytest.mark.parametrize("k_max", [DE_CASTELJAU_MAX_DEGREE + 1, 60])
    @pytest.mark.parametrize(
        "policy", [SharingPolicy(), AggressivePolicy(0.5), TwoLevelPolicy(0.4), PowerLawPolicy(2.0)]
    )
    def test_matches_pmf_contraction_on_batch_and_subsets(self, k_max, policy):
        rng = np.random.default_rng(k_max)
        degrees = rng.permutation(np.arange(0, k_max))  # k = 1 .. k_max
        tables = congestion_table_batch(policy, degrees)
        q = rng.random((degrees.size, 7))
        q[:, 0], q[:, 1] = 0.0, 1.0
        be = resolve_backend(None)
        evaluate = bernstein_evaluator(tables, degrees, be)
        expected_g, expected_slope = self.reference(tables, degrees, q)

        g, slope = evaluate(from_numpy(be, q, dtype=be.float_dtype))
        g = to_numpy(g)
        slope = np.broadcast_to(to_numpy(slope), q.shape)
        np.testing.assert_allclose(g, expected_g, rtol=0, atol=1e-13)
        np.testing.assert_allclose(slope, expected_slope, rtol=0, atol=1e-13)

        for rows in (np.array([3]), np.sort(rng.choice(degrees.size, 9, replace=False)),
                     rng.permutation(degrees.size)[:12]):
            sub_g, sub_slope = evaluate(from_numpy(be, q[rows], dtype=be.float_dtype), rows)
            sub_g = to_numpy(sub_g)
            np.testing.assert_array_equal(sub_g, g[rows])
            np.testing.assert_array_equal(
                np.broadcast_to(to_numpy(sub_slope), sub_g.shape), slope[rows]
            )
            only_g, none = evaluate(from_numpy(be, q[rows], dtype=be.float_dtype), rows, slope=False)
            assert none is None
            np.testing.assert_array_equal(to_numpy(only_g), g[rows])


def enumerated_nu(values, state, k, policy):
    """``nu`` of one row by enumerating its ``k - 1`` opponents' site choices."""
    return brute_force_site_payoffs(values, 0.0, state, int(k), policy)


class TestBatchedPayoffKernel:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_site_values_match_enumeration(self, ragged_batch, policy):
        padded, instances, ks = ragged_batch
        states = random_states(padded, np.random.default_rng(11))
        nu = site_values_batch(padded, states, ks, policy)
        for row, (values, k) in enumerate(zip(instances, ks)):
            m = values.m
            expected = enumerated_nu(values.as_array(), states[row, :m], k, policy)
            np.testing.assert_allclose(nu[row, :m], expected, atol=1e-12)
            assert np.all(nu[row, m:] == 0.0)

    def test_congestion_tables_are_zero_padded_per_row(self):
        tables = congestion_table_batch(SharingPolicy(), np.array([1, 3, 0]))
        np.testing.assert_allclose(tables[0], [1.0, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(tables[1], [1.0, 0.5, 1 / 3, 0.25])
        np.testing.assert_allclose(tables[2], [1.0, 0.0, 0.0, 0.0])

    def test_occupancy_factor_matches_enumeration(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = SharingPolicy()
        states = random_states(padded, np.random.default_rng(13))
        factor = occupancy_congestion_factor_batch(policy, states, ks - 1)
        for row, k in enumerate(ks):
            expected = enumerated_nu(np.ones(padded.width), states[row], k, policy)
            np.testing.assert_allclose(factor[row], expected, atol=1e-12)

    @pytest.mark.parametrize("policy", POLICIES + [AggressivePolicy(0.7)])
    def test_exploitability_and_best_response_match_enumeration(self, ragged_batch, policy):
        padded, instances, ks = ragged_batch
        states = random_states(padded, np.random.default_rng(17))
        gaps = exploitability_batch(padded, states, ks, policy)
        best = best_response_value_batch(padded, states, ks, policy)
        for row, (values, k) in enumerate(zip(instances, ks)):
            m = values.m
            nu = enumerated_nu(values.as_array(), states[row, :m], k, policy)
            assert np.isclose(gaps[row], nu.max() - states[row, :m] @ nu, atol=1e-12)
            assert np.isclose(best[row], nu.max(), atol=1e-12)

    def test_expected_payoff_matches_enumeration(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = SharingPolicy()
        rng = np.random.default_rng(19)
        focal = random_states(padded, rng)
        opponents = random_states(padded, rng)
        payoffs = expected_payoff_batch(padded, focal, opponents, ks, policy)
        for row, (values, k) in enumerate(zip(instances, ks)):
            m = values.m
            nu = enumerated_nu(values.as_array(), opponents[row, :m], k, policy)
            assert np.isclose(payoffs[row], focal[row, :m] @ nu, atol=1e-12)

    def test_masked_best_response_beats_padding_zeros(self):
        # Aggressive payoffs are all negative away from singleton occupancy;
        # the padded columns' zero nu must not win the max.
        padded = PaddedValues.from_instances([[1.0, 0.9], [1.0, 0.8, 0.6]])
        states = np.array([[0.5, 0.5, 0.0], [0.4, 0.3, 0.3]])
        policy = AggressivePolicy(2.0)
        best = best_response_value_batch(padded, states, [3, 3], policy)
        enumerated0 = enumerated_nu(np.array([1.0, 0.9]), states[0, :2], 3, policy).max()
        assert enumerated0 < 0.0
        assert np.isclose(best[0], enumerated0, atol=1e-12)

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
    def test_out_of_range_strategies_are_refused(self, bad):
        # A probability outside [0, 1] must be refused, never clipped into range.
        values = np.array([[1.0, 0.5]])
        states = np.array([[bad, 0.5]])
        policy = SharingPolicy()
        calls = {
            "site_values": lambda: site_values(values[0], states[0], 3, policy),
            "occupancy_congestion_factor_batch": lambda: occupancy_congestion_factor_batch(
                policy, states, 2
            ),
            "site_values_batch": lambda: site_values_batch(values, states, 3, policy),
            "expected_payoff_batch": lambda: expected_payoff_batch(
                values, np.array([[0.5, 0.5]]), states, 3, policy
            ),
            "best_response_value_batch": lambda: best_response_value_batch(
                values, states, 3, policy
            ),
            "exploitability_batch": lambda: exploitability_batch(values, states, 3, policy),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                call()
                pytest.fail(f"{name} accepted p = {bad}")

    def test_shape_validation(self, ragged_batch):
        padded, _, ks = ragged_batch
        with pytest.raises(ValueError):
            site_values_batch(padded, np.zeros((2, 2)), ks, SharingPolicy())
        with pytest.raises(ValueError):
            as_k_vector([2, 3], 5)
        with pytest.raises(ValueError):
            as_k_vector(0, 3)
        for bad in (True, [2, 2.000001, 3]):
            with pytest.raises(ValueError, match="integers"):
                as_k_vector(bad, 3)


def scalar_replicator(values, k, **kwargs):
    return replicator_dynamics(values, int(k), kwargs.pop("policy"), **kwargs)


class TestBatchedDynamicsAgainstScalar:
    """Each batched rule agrees elementwise with the scalar wrappers."""

    @pytest.mark.parametrize("method", ["discrete", "euler"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_replicator_elementwise(self, ragged_batch, method, policy):
        padded, instances, ks = ragged_batch
        batch = replicator_batch(
            padded, ks, policy, method=method, max_iter=4_000, record_every=77
        )
        for row, (values, k) in enumerate(zip(instances, ks)):
            scalar = replicator_dynamics(
                values, int(k), policy, method=method, max_iter=4_000, record_every=77
            )
            assert scalar.converged == bool(batch.converged[row])
            assert scalar.iterations == int(batch.iterations[row])
            np.testing.assert_allclose(
                scalar.strategy.as_array(), batch.strategy(row).as_array(), atol=1e-10
            )
            np.testing.assert_allclose(scalar.trajectory, batch.trajectory(row), atol=1e-10)
            np.testing.assert_allclose(
                scalar.payoff_history, batch.payoff_history(row), atol=1e-10
            )

    def test_replicator_negative_payoffs(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = AggressivePolicy(0.5)
        batch = replicator_batch(padded, ks, policy, max_iter=6_000)
        for row, (values, k) in enumerate(zip(instances, ks)):
            scalar = replicator_dynamics(values, int(k), policy, max_iter=6_000)
            np.testing.assert_allclose(
                scalar.strategy.as_array(), batch.strategy(row).as_array(), atol=1e-9
            )

    # Rationality is kept in the contractive regime: with a strongly expanding
    # logit map, padded-width float-association differences (einsum reduction
    # order) amplify chaotically mid-trajectory even though the fixed point
    # agrees, so trajectory-level comparison is only meaningful when the map
    # contracts.
    @pytest.mark.parametrize("policy", [SharingPolicy(), AggressivePolicy(1.0)])
    def test_logit_elementwise(self, ragged_batch, policy):
        padded, instances, ks = ragged_batch
        batch = logit_batch(
            padded, ks, policy, rationality=25.0, max_iter=5_000, record_every=311
        )
        for row, (values, k) in enumerate(zip(instances, ks)):
            scalar = logit_dynamics(
                values, int(k), policy, rationality=25.0, max_iter=5_000, record_every=311
            )
            assert scalar.converged == bool(batch.converged[row])
            assert scalar.iterations == int(batch.iterations[row])
            np.testing.assert_allclose(
                scalar.strategy.as_array(), batch.strategy(row).as_array(), atol=1e-10
            )
            np.testing.assert_allclose(scalar.trajectory, batch.trajectory(row), atol=1e-10)

    def test_best_response_elementwise(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = SharingPolicy()
        batch = best_response_batch(padded, ks, policy, max_iter=3_000, record_every=59)
        for row, (values, k) in enumerate(zip(instances, ks)):
            scalar = best_response_dynamics(
                values, int(k), policy, max_iter=3_000, record_every=59
            )
            assert scalar.converged == bool(batch.converged[row])
            assert scalar.iterations == int(batch.iterations[row])
            np.testing.assert_allclose(
                scalar.strategy.as_array(), batch.strategy(row).as_array(), atol=1e-10
            )
            np.testing.assert_allclose(scalar.trajectory, batch.trajectory(row), atol=1e-10)

    def test_invasion_elementwise(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = ExclusivePolicy()
        residents = np.zeros(padded.values.shape)
        mutants = np.zeros(padded.values.shape)
        for row, (values, k) in enumerate(zip(instances, ks)):
            residents[row, : values.m] = sigma_star(values, int(k)).strategy.as_array()
            mutants[row, : values.m] = Strategy.uniform(values.m).as_array()
        batch = invasion_batch(padded, residents, mutants, ks, policy, initial_shares=0.05)
        for row, (values, k) in enumerate(zip(instances, ks)):
            scalar = invasion_dynamics(
                values,
                Strategy(residents[row, : values.m]),
                Strategy(mutants[row, : values.m]),
                int(k),
                policy,
                initial_share=0.05,
            )
            assert scalar.iterations == int(batch.iterations[row])
            assert scalar.mutant_extinct == bool(
                batch.states[row, 0] <= 1e-6
            )
            np.testing.assert_allclose(
                scalar.shares, batch.trajectory(row).ravel(), atol=1e-10
            )

    def test_already_converged_rows(self):
        # Row 0 starts exactly at its equilibrium (converges in one step);
        # row 1 starts far away and must keep stepping unaffected.
        values = SiteValues.zipf(6, exponent=0.8)
        k = 3
        policy = ExclusivePolicy()
        equilibrium = sigma_star(values, k).strategy.as_array()
        far = Strategy.point_mass(6, 5).as_array() * 0.9 + 0.1 / 6
        padded = PaddedValues.from_instances([values, values])
        initial = np.stack([equilibrium, far / far.sum()])
        batch = replicator_batch(padded, k, policy, initial=initial, max_iter=20_000)
        assert bool(batch.converged[0]) and int(batch.iterations[0]) <= 2
        assert int(batch.iterations[1]) > int(batch.iterations[0])
        # The early row's result equals its own scalar run bit-for-bit.
        scalar = replicator_dynamics(
            values, k, policy, initial=Strategy(equilibrium), max_iter=20_000
        )
        np.testing.assert_allclose(
            scalar.strategy.as_array(), batch.strategy(0).as_array(), atol=1e-12
        )

    def test_record_every_strides_match_scalar(self, ragged_batch):
        padded, instances, ks = ragged_batch
        policy = SharingPolicy()
        for stride in (1, 13, 100):
            batch = replicator_batch(
                padded, ks, policy, max_iter=500, record_every=stride
            )
            for row, (values, k) in enumerate(zip(instances, ks)):
                scalar = replicator_dynamics(
                    values, int(k), policy, max_iter=500, record_every=stride
                )
                assert scalar.trajectory.shape == batch.trajectory(row).shape
                np.testing.assert_allclose(
                    scalar.trajectory, batch.trajectory(row), atol=1e-10
                )


class TestConvergenceMasking:
    def test_converged_rows_are_frozen(self):
        """Regression: per-row masking must stop updating converged rows."""
        values_fast = SiteValues.uniform(4)  # uniform start == equilibrium
        values_slow = SiteValues.zipf(4, exponent=1.0)
        padded = PaddedValues.from_instances([values_fast, values_slow])
        batch = replicator_batch(
            padded, 3, SharingPolicy(), max_iter=2_000, tol=1e-12, record_every=10
        )
        fast_t = int(batch.iterations[0])
        assert bool(batch.converged[0])
        assert fast_t < int(batch.iterations[1])
        # Every snapshot taken after row 0 converged is bit-identical to its
        # final state: the engine never touched the frozen row again.
        later = batch.record_times > fast_t
        assert later.any()
        for index in np.nonzero(later)[0]:
            np.testing.assert_array_equal(
                batch.records[index, 0], batch.states[0]
            )

    def test_early_exit_before_iteration_cap(self):
        values = SiteValues.uniform(5)
        padded = PaddedValues.from_instances([values, values])
        batch = replicator_batch(padded, 2, SharingPolicy(), max_iter=10_000)
        # Uniform values + uniform start converge immediately for every row,
        # so the recorded snapshots stop right away instead of running the cap.
        assert batch.converged.all()
        assert batch.record_times.max() <= batch.iterations.max()
        assert batch.iterations.max() <= 2


class TestReplicatorLoopOracle:
    """The engine's loop against a plain per-row replicator loop."""

    @staticmethod
    def compare(instances, ks, initial, **options):
        padded = PaddedValues.from_instances(instances)
        batch = replicator_batch(padded, ks, SharingPolicy(), initial=initial, **options)
        values = [values.as_array() for values in instances]
        rows = [row[: values.m] for row, values in zip(initial, instances)]
        oracle = replicator_loop(values, ks, SharingPolicy(), rows, **options)
        np.testing.assert_array_equal(batch.iterations, oracle["iterations"])
        np.testing.assert_array_equal(batch.record_times, oracle["record_times"])
        for name in ("states", "records", "payoff_records"):
            np.testing.assert_allclose(getattr(batch, name), oracle[name], rtol=0, atol=1e-12)
        return batch

    @staticmethod
    def mixed_batch():
        rng = np.random.default_rng(31)
        instances = [SiteValues.uniform(4), SiteValues.zipf(5), SiteValues.geometric(3)]
        instances += [SiteValues.random(m, rng) for m in (6, 2, 4)]
        ks = np.array([3, 4, 2, 5, 3, 6], dtype=np.int64)
        initial = random_states(PaddedValues.from_instances(instances), rng)
        initial[0, :4] = 0.25  # starts at its equilibrium: done after one step
        return instances, ks, initial

    @pytest.mark.parametrize("record_every", [1, 7, 100])
    def test_rows_finishing_at_different_steps(self, record_every):
        instances, ks, initial = self.mixed_batch()
        batch = self.compare(
            instances, ks, initial, max_iter=4_000, tol=1e-10, record_every=record_every
        )
        assert batch.converged.all() and len(set(batch.iterations.tolist())) >= 4

    def test_capped_run_returns_the_last_step(self):
        instances, ks, initial = self.mixed_batch()
        batch = self.compare(instances, ks, initial, max_iter=37, tol=1e-10, record_every=10)
        # Only the row at its equilibrium finishes; the others stop at step 37.
        assert batch.converged.tolist() == [True] + [False] * 5
        assert batch.iterations.tolist() == [1] + [37] * 5


class TestRowSubsetStaging:
    """The NumPy loop re-stages its per-row constants only when rows finish."""

    @pytest.mark.parametrize("run", [replicator_batch, logit_batch], ids=["discrete", "logit"])
    def test_each_row_equals_the_row_run_alone(self, run):
        rng = np.random.default_rng(23)
        instances = [SiteValues.random(int(m), rng) for m in (5, 3, 7, 4, 6, 3)]
        ks = np.array([3, 5, 5, 3, 5, 3], dtype=np.int64)
        padded = PaddedValues.from_instances(instances)
        options = dict(max_iter=6_000, record_every=40)
        batch = run(padded, ks, SharingPolicy(), **options)
        # Rows finish at different steps, so the active set shrinks repeatedly.
        assert len(set(batch.iterations.tolist())) >= 4
        for row, values in enumerate(instances):
            # Alone at the batch's width: same padding, so the same arithmetic.
            alone = run(
                PaddedValues.from_instances([values], width=padded.width),
                int(ks[row]),
                SharingPolicy(),
                **options,
            )
            n = alone.record_times.size
            np.testing.assert_array_equal(batch.states[row], alone.states[0])
            np.testing.assert_array_equal(batch.iterations[row], alone.iterations[0])
            np.testing.assert_array_equal(batch.converged[row], alone.converged[0])
            np.testing.assert_array_equal(batch.records[:n, row], alone.records[:, 0])
            np.testing.assert_array_equal(
                batch.payoff_records[: n - 1, row], alone.payoff_records[:, 0]
            )
            if alone.final_payoffs is not None:
                np.testing.assert_array_equal(batch.final_payoffs[row], alone.final_payoffs[0])


class TestInitialStates:
    """Payoff-rule initial states are probability rows over each row's sites."""

    VALUES = [[1.0, 0.6, 0.3]]
    RULES = [replicator_batch, logit_batch, best_response_batch]

    @pytest.mark.parametrize("run", RULES)
    def test_nan_entry_is_refused(self, run):
        with pytest.raises(ValueError, match="initial"):
            run(self.VALUES, 3, SharingPolicy(), initial=np.array([np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("run", RULES)
    def test_negative_entry_is_refused(self, run):
        with pytest.raises(ValueError, match="initial"):
            run(self.VALUES, 3, SharingPolicy(), initial=np.array([-0.2, 0.7, 0.5]))

    @pytest.mark.parametrize("run", RULES)
    def test_wrong_width_is_refused_by_name(self, run):
        with pytest.raises(ValueError, match="initial"):
            run(self.VALUES, 3, SharingPolicy(), initial=np.array([0.5, 0.5]))

    def test_padding_mass_and_row_sums_are_checked(self):
        padded = PaddedValues.from_instances([[1.0, 0.5], [1.0, 0.8, 0.6]])
        with pytest.raises(ValueError, match="padding"):
            replicator_batch(
                padded, 3, SharingPolicy(), initial=np.array([[0.5, 0.3, 0.2], [0.4, 0.3, 0.3]])
            )
        with pytest.raises(ValueError, match="sum to one"):
            replicator_batch(
                padded, 3, SharingPolicy(), initial=np.array([[0.5, 0.4, 0.0], [0.4, 0.3, 0.3]])
            )

    def test_invasion_shares_keep_their_unit_interval_check(self):
        padded = PaddedValues.from_instances([[1.0, 0.5], [1.0, 0.8]])
        uniform = np.full((2, 2), 0.5)
        for shares in ([0.1, 1.5], [np.nan, 0.1], -0.1):
            with pytest.raises(ValueError, match="initial_share"):
                invasion_batch(padded, uniform, uniform, 2, SharingPolicy(), initial_shares=shares)


class TestEngineValidation:
    def test_unknown_rule_name(self):
        with pytest.raises(ValueError):
            make_rule("rk4")

    def test_initial_shape_mismatch(self):
        padded = PaddedValues.from_instances([[1.0, 0.5], [1.0, 0.9]])
        engine = DynamicsEngine(padded, 2, SharingPolicy(), make_rule("discrete"))
        with pytest.raises(ValueError):
            engine.run(np.full((3, 2), 0.5))

    def test_invasion_strategy_shape_mismatch(self):
        padded = PaddedValues.from_instances([[1.0, 0.5]])
        with pytest.raises(ValueError):
            invasion_batch(
                padded, np.zeros((2, 2)), np.zeros((2, 2)), 2, SharingPolicy()
            )

    def test_rule_parameter_validation(self):
        with pytest.raises(ValueError):
            make_rule("euler", step_size=0.0)
        with pytest.raises(ValueError):
            make_rule("logit", rationality=0.0)
        with pytest.raises(ValueError):
            make_rule("best-response", step_size=0.0)
