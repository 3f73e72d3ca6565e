"""Tests of the Array-API backend layer: registry, contexts, adapters, wiring.

Covers the resolution order (context > process default > ``REPRO_BACKEND``
env var > numpy), ``use_backend`` nesting/restoration, registry
fallback/auto-detect behaviour, the backend adapters, the batched capacity
kernels of ``repro.batch.extensions``, and the runner/CLI backend plumbing.
The property suites in ``tests/test_batch*.py`` separately re-run under
``array_api_strict`` when it is installed.
"""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

import repro.backend.registry as registry
from oracles import enumerated_capacity_coverage, enumerated_capacity_gradient
from repro.backend import (
    Backend,
    BackendNotAvailableError,
    available_backends,
    backend_failures,
    bincount,
    ensure_numpy,
    from_numpy,
    get_backend,
    is_native,
    load_backend,
    random_uniform,
    register_backend,
    resolve_backend,
    scatter_rows,
    set_default_backend,
    take_rows,
    to_numpy,
    use_backend,
)
from repro.batch import (
    PaddedValues,
    capacity_coverage_batch,
    capacity_coverage_gradient_batch,
    replicator_batch,
    sigma_star_batch,
)
from repro.batch.extensions import as_requirements_batch
from repro.core.policies import SharingPolicy
from repro.core.values import SiteValues
from repro.experiments.spec import ExperimentSpec
from repro.experiments.runner import run_experiment
from repro.simulation.engine import DispersalSimulator
from repro.core.strategy import Strategy
from repro.utils.sampling import (
    inverse_cdf_sample,
    inverse_cdf_sample_stacked,
    stacked_cdfs,
    strategy_cdf,
)


class TestRegistry:
    def test_numpy_always_available_and_first(self):
        names = available_backends()
        assert names[0] == "numpy"

    def test_load_numpy_backend(self):
        backend = load_backend("numpy")
        assert backend.is_numpy
        assert backend.xp is np
        assert backend.supports_einsum and backend.supports_fancy_assignment

    def test_numpy_lacking_standard_names_is_reported(self, monkeypatch):
        # NumPy < 2.1 has no cumulative_sum (and < 2.0 no permute_dims): the
        # loader names what is missing instead of failing mid-solve.
        names = set(registry._REQUIRED_FUNCTIONS) - {"cumulative_sum", "permute_dims"}
        stub = types.SimpleNamespace(**{name: getattr(np, name) for name in names})
        monkeypatch.setitem(sys.modules, "numpy", stub)
        missing = "'numpy'.*: cumulative_sum, permute_dims$"
        with pytest.raises(BackendNotAvailableError, match=missing):
            registry._load_numpy()

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendNotAvailableError, match="unknown backend"):
            load_backend("no-such-backend")

    def test_unavailable_backends_report_reasons(self):
        failures = backend_failures()
        for name in ("array_api_strict", "torch"):
            assert name in available_backends() or name in failures

    def test_register_backend_and_overwrite_guard(self):
        def loader():
            base = load_backend("numpy")
            return Backend(
                name="numpy-alias",
                xp=base.xp,
                float_dtype=base.float_dtype,
                int_dtype=base.int_dtype,
                bool_dtype=base.bool_dtype,
                is_numpy=True,
                supports_einsum=True,
                supports_fancy_assignment=True,
            )

        register_backend("numpy-alias", loader)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend("numpy-alias", loader)
            assert load_backend("numpy-alias").name == "numpy-alias"
            assert "numpy-alias" in available_backends()
        finally:
            registry._LOADERS.pop("numpy-alias", None)
            registry._CACHE.pop("numpy-alias", None)

    def test_resolve_backend_passthrough(self):
        backend = load_backend("numpy")
        assert resolve_backend(backend) is backend
        assert resolve_backend("numpy") is backend
        assert resolve_backend(None) is get_backend()


class TestActivation:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(registry.ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(registry.ENV_VAR, "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv(registry.ENV_VAR, "no-such-backend")
        with pytest.raises(BackendNotAvailableError):
            get_backend()

    def test_use_backend_nesting_and_restoration(self):
        outer_default = get_backend()
        with use_backend("numpy") as outer:
            assert get_backend() is outer
            with use_backend("numpy") as inner:
                assert get_backend() is inner
            assert get_backend() is outer
        assert get_backend() is outer_default

    def test_use_backend_restores_after_exception(self):
        before = get_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_use_backend_isolated_across_asyncio_tasks(self):
        # The activation stack lives in a ContextVar, so each asyncio task
        # gets its own copy-on-write context: one task's ``use_backend``
        # must never leak into a concurrently running sibling.  Cached
        # backends are singletons (two ``use_backend("numpy")`` activations
        # yield the same object), so each task activates its own distinct
        # handle — ``dataclasses.replace`` of the numpy backend — to make
        # leakage observable by identity.
        import asyncio
        import dataclasses

        base = load_backend("numpy")
        default = get_backend()
        handles = [dataclasses.replace(base, name=f"numpy-task-{i}") for i in range(4)]

        async def worker(handle: Backend, hops: int) -> None:
            assert get_backend() is default  # nothing leaked in before activation
            with use_backend(handle) as scoped:
                assert scoped is handle
                for _ in range(hops):
                    await asyncio.sleep(0)  # yield so siblings interleave
                    assert get_backend() is handle
                with use_backend(base) as inner:
                    await asyncio.sleep(0)
                    assert get_backend() is inner
                assert get_backend() is handle
            await asyncio.sleep(0)
            assert get_backend() is default  # nothing leaked out after exit

        async def run() -> None:
            await asyncio.gather(*(worker(h, i + 1) for i, h in enumerate(handles)))
            assert get_backend() is default

        asyncio.run(run())
        assert get_backend() is default

    def test_set_default_backend_shadowed_by_context(self, monkeypatch):
        monkeypatch.setenv(registry.ENV_VAR, "no-such-backend")
        set_default_backend("numpy")
        try:
            # The process-wide default wins over the (broken) env var.
            assert get_backend().name == "numpy"
            with use_backend("numpy") as scoped:
                assert get_backend() is scoped
        finally:
            set_default_backend(None)

    def test_kernels_accept_explicit_backend(self):
        values = [SiteValues.zipf(6), SiteValues.uniform(4)]
        implicit = sigma_star_batch(values, (2, 3))
        explicit = sigma_star_batch(values, (2, 3), backend="numpy")
        np.testing.assert_array_equal(implicit.probabilities, explicit.probabilities)


class TestAdapters:
    def test_to_from_numpy_round_trip(self):
        backend = load_backend("numpy")
        host = np.arange(6.0).reshape(2, 3)
        dev = from_numpy(backend, host)
        assert to_numpy(dev) is dev  # numpy path is a no-op
        assert is_native(backend, dev)
        assert not is_native(backend, [1.0, 2.0])

    def test_ensure_numpy_unwraps_wrappers(self):
        strategy = Strategy(np.array([0.5, 0.5]))
        out = ensure_numpy(strategy)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_take_and_scatter_rows(self):
        backend = load_backend("numpy")
        data = np.arange(12.0).reshape(4, 3)
        rows = np.array([0, 2])
        np.testing.assert_array_equal(take_rows(backend, data, rows), data[[0, 2]])
        assert take_rows(backend, data, None) is data
        dest = data.copy()
        scatter_rows(backend, dest, rows, np.zeros((2, 3)))
        assert dest[0].sum() == 0 and dest[2].sum() == 0 and dest[1].sum() > 0
        # Scatter-free fallback returns a fresh array instead of mutating.
        no_fancy = Backend(
            name="numpy-no-fancy",
            xp=np,
            float_dtype=np.float64,
            int_dtype=np.int64,
            bool_dtype=np.bool_,
            is_numpy=True,
            supports_einsum=True,
            supports_fancy_assignment=False,
        )
        dest2 = data.copy()
        out = scatter_rows(no_fancy, dest2, rows, np.zeros((2, 3)))
        np.testing.assert_array_equal(out, dest)

    def test_bincount_and_random_uniform(self, rng):
        backend = load_backend("numpy")
        counts = bincount(np.array([0, 1, 1, 3]), minlength=6)
        np.testing.assert_array_equal(counts, [1, 2, 0, 1, 0, 0])
        draws = random_uniform(backend, np.random.default_rng(5), (3, 2))
        np.testing.assert_array_equal(draws, np.random.default_rng(5).random((3, 2)))


class TestSamplingBackendPath:
    """The explicit-backend sampling path matches the NumPy fast path bit for bit."""

    def test_single_cdf(self):
        cdf = strategy_cdf(np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(strategy_cdf(np.array([0.2, 0.3, 0.5]), backend="numpy"), cdf)
        fast = inverse_cdf_sample(cdf, (100,), np.random.default_rng(1))
        routed = inverse_cdf_sample(cdf, (100,), np.random.default_rng(1), backend="numpy")
        np.testing.assert_array_equal(fast, routed)

    def test_stacked(self):
        rows = np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])
        cdfs = stacked_cdfs(rows)
        np.testing.assert_allclose(stacked_cdfs(rows, backend="numpy"), cdfs)
        fast = inverse_cdf_sample_stacked(cdfs, 64, np.random.default_rng(2))
        routed = inverse_cdf_sample_stacked(cdfs, 64, np.random.default_rng(2), backend="numpy")
        np.testing.assert_array_equal(fast, routed)


class TestCapacityBatch:
    """The batched capacity kernels match enumeration oracles elementwise."""

    @pytest.fixture
    def capacity_batch(self, rng):
        instances = [SiteValues.random(int(m), rng) for m in (4, 7, 3, 6)]
        padded = PaddedValues.from_instances(instances)
        ks = np.array([2, 4, 3, 5], dtype=np.int64)
        states = np.where(padded.mask, rng.random(padded.values.shape), 0.0)
        states /= states.sum(axis=1, keepdims=True)
        return padded, instances, ks, states

    @pytest.mark.parametrize("requirement", [1, 2, 3])
    def test_coverage_matches_enumeration(self, capacity_batch, requirement):
        padded, instances, ks, states = capacity_batch
        covered = capacity_coverage_batch(padded, states, ks, requirement)
        assert covered.shape == (len(instances),)
        for row, (values, k) in enumerate(zip(instances, ks)):
            m = values.m
            exact = enumerated_capacity_coverage(
                values.as_array(), states[row, :m], int(k), requirement
            )
            assert covered[row] == pytest.approx(exact, abs=1e-12)

    def test_per_row_requirements(self, capacity_batch, rng):
        padded, instances, ks, states = capacity_batch
        requirements = rng.integers(1, 4, size=padded.values.shape)
        covered = capacity_coverage_batch(padded, states, ks, requirements)
        for row, (values, k) in enumerate(zip(instances, ks)):
            m = values.m
            exact = enumerated_capacity_coverage(
                values.as_array(), states[row, :m], int(k), requirements[row, :m]
            )
            assert covered[row] == pytest.approx(exact, abs=1e-12)

    def test_requirement_one_recovers_paper_coverage(self, capacity_batch):
        from repro.batch import coverage_batch

        padded, instances, ks, states = capacity_batch
        covered = capacity_coverage_batch(padded, states, ks, 1)
        for row, k in enumerate(ks):
            plain = coverage_batch(padded, states, int(k))[row, 0]
            assert covered[row] == pytest.approx(plain, abs=1e-10)

    def test_gradient_matches_enumeration(self, capacity_batch):
        padded, instances, ks, states = capacity_batch
        grad = capacity_coverage_gradient_batch(padded, states, ks, 2)
        assert grad.shape == padded.values.shape
        for row, (values, k) in enumerate(zip(instances, ks)):
            m = values.m
            exact = enumerated_capacity_gradient(values.as_array(), states[row, :m], int(k), 2)
            np.testing.assert_allclose(grad[row, :m], exact, atol=1e-12)
            assert np.all(grad[row, m:] == 0.0)

    def test_validation(self, capacity_batch):
        padded, _, ks, states = capacity_batch
        with pytest.raises(ValueError, match=">= 1"):
            capacity_coverage_batch(padded, states, ks, 0)
        # Requirements are counts: 1.5 is refused, not truncated to 1.
        with pytest.raises(ValueError, match="integers"):
            capacity_coverage_batch(padded, states, ks, 1.5)
        with pytest.raises(ValueError, match="integers"):
            as_requirements_batch(1.5, padded.batch_size, padded.width)
        with pytest.raises(ValueError, match="must match the padded batch"):
            capacity_coverage_batch(padded, states[:, :2], ks, 1)


class TestRunnerWiring:
    def test_spec_backend_field_round_trip(self):
        spec = ExperimentSpec(
            name="t", description="", task=_task_support, grid=({"m": 4},), backend="numpy"
        )
        assert spec.backend == "numpy"
        assert spec.with_backend(None).backend is None

    @pytest.mark.parametrize("workers", [0, 2])
    def test_runner_activates_spec_backend(self, workers):
        spec = ExperimentSpec(
            name="backend-probe",
            description="records the active backend inside each task",
            task=_task_active_backend,
            grid=tuple({"index": i} for i in range(3)),
            backend="numpy",
        )
        result = run_experiment(spec, max_workers=workers)
        assert all(name == "numpy" for name in result.rows)
        assert result.metadata["runtime"]["backend"] == "numpy"

    def test_runner_backend_argument_overrides_spec(self):
        spec = ExperimentSpec(
            name="backend-probe",
            description="",
            task=_task_active_backend,
            grid=({"index": 0},),
            backend=None,
        )
        result = run_experiment(spec, backend="numpy")
        assert result.rows == ("numpy",)
        assert result.metadata["runtime"]["backend"] == "numpy"

    def test_results_identical_across_available_backends(self):
        grids = {}
        for name in available_backends():
            spec = ExperimentSpec(
                name="support-grid",
                description="",
                task=_task_support,
                grid=({"m": 5}, {"m": 8}),
                backend=name,
            )
            grids[name] = run_experiment(spec).rows
        baseline = grids["numpy"]
        for name, rows in grids.items():
            assert rows == baseline, name


class TestSimulationDtypes:
    def test_histogram_and_frequencies_dtypes(self):
        values = SiteValues.from_values([1.0, 0.5, 0.25])
        simulator = DispersalSimulator(values, k=3, policy=SharingPolicy())
        result = simulator.run(Strategy.uniform(3), n_trials=500, rng=7)
        assert result.occupancy_histogram.dtype == np.int64
        assert result.site_visit_frequencies.dtype == np.float64
        assert result.occupancy_histogram.sum() == 500 * 3  # (trial, site) pairs

    def test_single_trial_sem_is_nan(self):
        values = SiteValues.from_values([1.0, 0.5])
        simulator = DispersalSimulator(values, k=2, policy=SharingPolicy())
        result = simulator.run(Strategy.uniform(2), n_trials=1, rng=3)
        assert np.isnan(result.coverage_sem) and np.isnan(result.payoff_sem)
        profile = simulator.run_profile(
            [Strategy.uniform(2), Strategy.uniform(2)], n_trials=1, rng=3
        )
        assert np.isnan(profile.coverage_sem)
        assert np.all(np.isnan(profile.player_payoff_sems))
        # With more than one trial the SEMs are finite again.
        many = simulator.run(Strategy.uniform(2), n_trials=100, rng=3)
        assert np.isfinite(many.coverage_sem) and np.isfinite(many.payoff_sem)


class TestEndToEndUnderEveryBackend:
    """The acceptance path: solver + engine under every available backend."""

    def test_sigma_star_and_engine_elementwise_identical(self):
        rng = np.random.default_rng(11)
        instances = [SiteValues.random(int(m), rng) for m in (3, 6, 5)]
        ks = (2, 3, 4)
        reference_star = sigma_star_batch(instances, ks, backend="numpy")
        reference_dyn = replicator_batch(
            PaddedValues.from_instances(instances),
            3,
            SharingPolicy(),
            max_iter=500,
            backend="numpy",
        )
        for name in available_backends():
            with use_backend(name):
                star = sigma_star_batch(instances, ks)
                np.testing.assert_allclose(
                    star.probabilities, reference_star.probabilities, atol=1e-12
                )
                np.testing.assert_array_equal(
                    star.support_sizes, reference_star.support_sizes
                )
                dyn = replicator_batch(
                    PaddedValues.from_instances(instances),
                    3,
                    SharingPolicy(),
                    max_iter=500,
                )
                np.testing.assert_array_equal(dyn.iterations, reference_dyn.iterations)
                np.testing.assert_allclose(dyn.states, reference_dyn.states, atol=1e-12)


def _task_support(params, rng):
    """Module-level (picklable) task: support sizes of a small grid."""
    from repro.batch import support_size_batch

    supports = support_size_batch([SiteValues.zipf(int(params["m"]))], (2, 3, 5))
    return tuple(int(w) for w in supports[0])


def _task_active_backend(params, rng):
    """Module-level (picklable) task: report the backend active inside the task."""
    return get_backend().name
