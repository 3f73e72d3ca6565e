"""Smoke tests of the package-level public API."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_symbols_exported(self):
        for name in (
            "SiteValues",
            "Strategy",
            "ExclusivePolicy",
            "SharingPolicy",
            "sigma_star",
            "ideal_free_distribution",
            "coverage",
            "optimal_coverage",
            "spoa_instance",
            "ess_report",
        ):
            assert name in repro.__all__

    def test_docstring_example(self):
        # The example from the package docstring must keep working.
        f = repro.SiteValues.from_values([1.0, 0.5, 0.25])
        result = repro.sigma_star(f, k=3)
        np.testing.assert_allclose(
            result.strategy.as_array().round(3), [0.547, 0.359, 0.094]
        )
        numeric = repro.ideal_free_distribution(f, 3, repro.ExclusivePolicy())
        assert numeric.strategy == result.strategy

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.dynamics
        import repro.mechanism
        import repro.search
        import repro.simulation
        import repro.utils

        assert repro.analysis and repro.dynamics and repro.mechanism
        assert repro.search and repro.simulation and repro.utils

    def test_quickstart_workflow(self):
        values = repro.SiteValues.geometric(8, ratio=0.7)
        equilibrium = repro.ideal_free_distribution(values, 4, repro.SharingPolicy())
        assert equilibrium.strategy.as_array().sum() == pytest.approx(1.0)
        ratio = repro.spoa_instance(values, 4, repro.SharingPolicy()).ratio
        assert 1.0 <= ratio <= 2.0


#: Every program name ``perfbench/tracing.py`` replaces or reads when it traces
#: a run, as ``module:attribute.path``.  The benchmark looks them up where
#: they are called, so renaming or dropping one breaks only the traced
#: benchmark run, which this suite does not collect.
TRACED_NAMES = (
    # sweep workers and the sweep process
    "repro.batch.ifd:binomial_pmf_tensor",
    "repro.batch.mechanism:ifd_batch",
    "repro.analysis.stochastic_experiments:compare_policies_batch",
    "repro.analysis.stochastic_experiments:expected_coverage_time_batch",
    "repro.analysis.stochastic_experiments:coverage_time_cdf_batch",
    "repro.analysis.stochastic_experiments:partial_coverage_time_batch",
    "repro.analysis.figure1:ideal_free_distribution",
    "repro.analysis.figure1:welfare_optimal_strategy",
    "repro.analysis.sweeps:DynamicsEngine.run",
    "repro.utils.memo:plan_memo.stats",
    "repro.experiments.executors:execute_chunk",
    "repro.experiments.executors:execute_payload",
    "repro.experiments.executors:ProcessExecutor.run",
    "repro.experiments.executors:ProcessPoolExecutor",
    "repro.experiments.store:ExperimentStore.put",
    "repro.experiments.store:ExperimentStore.path_for",
    # the served path
    "repro.serving.engine:ifd_batch",
    "repro.serving.engine:sigma_star_batch",
    "repro.serving.engine:coverage_batch",
    "repro.serving.http:EquilibriumService.dispatch",
    "repro.serving.http:EquilibriumService._respond",
    "repro.serving.http:json",
    "repro.serving.http:parse_request",
    "repro.serving.requests:content_key",
    "repro.serving.cache:ResultCache.get",
    "repro.serving.scheduler:ContinuousBatchScheduler.submit",
    "repro.serving.executor:InlineKernelExecutor.run",
    "repro.serving.executor:evaluate_group",
    "repro.batch.padding:PaddedValues.from_instances",
)


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_benchmark_tracing_hooks_resolve(name):
    module_name, path = name.split(":")
    target = importlib.import_module(module_name)
    for attribute in path.split("."):
        target = getattr(target, attribute)
    assert target is not None
