"""Tests for the experiment subsystem: spec, registry, runner, result, CLI glue."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.observation1 import build_observation1_spec, observation1_task
from repro.analysis.spoa_experiments import SPoARow
from repro.cli import main
from repro.experiments import (
    ExperimentSpec,
    build_experiment,
    experiment_names,
    get_experiment,
    register_experiment,
    run_experiment,
    run_registered,
)
from repro.experiments.runner import resolve_workers
from repro.utils.envinfo import available_cpus
from repro.utils.io import read_csv
from repro.utils.rng import spawn_seed_sequences

REPO = Path(__file__).resolve().parent.parent
SMALL_GRID = dict(m_values=(4,), k_values=(2, 3), n_random=1)


def _small_spec(seed: int = 0) -> ExperimentSpec:
    return build_observation1_spec(seed=seed, **SMALL_GRID)


class TestSpec:
    def test_grid_and_metadata_are_frozen_copies(self):
        spec = _small_spec()
        assert spec.n_tasks == 6  # 5 families + 1 random, one M
        assert spec.metadata["m_values"] == (4,)
        assert all(isinstance(params, dict) for params in spec.grid)

    def test_with_seed(self):
        spec = _small_spec(seed=1)
        assert spec.with_seed(9).seed == 9
        assert spec.with_seed(9).grid == spec.grid

    def test_subset(self):
        spec = _small_spec()
        sub = spec.subset([0, 2])
        assert sub.n_tasks == 2
        assert sub.grid[1] == spec.grid[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="", description="", task=observation1_task, grid=())
        with pytest.raises(TypeError):
            ExperimentSpec(name="x", description="", task="not-callable", grid=())
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="x", description="", task=observation1_task, grid=(), chunk_size=0
            )


class TestRegistry:
    def test_builtins_registered(self):
        names = experiment_names()
        for name in ("figure1", "observation1", "spoa", "ess", "sweep"):
            assert name in names

    def test_get_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("no-such-experiment")

    def test_build_experiment_forwards_options(self):
        spec = build_experiment("observation1", seed=3, **SMALL_GRID)
        assert spec.seed == 3
        assert spec.n_tasks == 6

    def test_register_and_run_custom_experiment(self):
        @register_experiment("unit-test-exp", "registry round trip")
        def build(*, seed: int = 0) -> ExperimentSpec:
            return ExperimentSpec(
                name="unit-test-exp",
                description="",
                task=observation1_task,
                grid=({"family": "uniform", "m": 3, "k_values": (2,)},),
                seed=seed,
            )

        result = run_registered("unit-test-exp", seed=5)
        assert result.seed == 5
        assert len(result.rows) == 1


class TestRunner:
    def test_seed_spawning_is_deterministic(self):
        a = [s.generate_state(2).tolist() for s in spawn_seed_sequences(7, 4)]
        b = [s.generate_state(2).tolist() for s in spawn_seed_sequences(7, 4)]
        assert a == b
        assert a[0] != a[1]

    def test_same_seed_bit_identical_rows(self):
        first = run_experiment(_small_spec(seed=11))
        second = run_experiment(_small_spec(seed=11))
        assert first.rows == second.rows

    def test_different_seed_changes_random_rows(self):
        first = run_experiment(_small_spec(seed=1))
        second = run_experiment(_small_spec(seed=2))
        random_first = [r for r in first.rows if r.family.startswith("random")]
        random_second = [r for r in second.rows if r.family.startswith("random")]
        assert random_first != random_second
        structured_first = [r for r in first.rows if not r.family.startswith("random")]
        structured_second = [r for r in second.rows if not r.family.startswith("random")]
        assert structured_first == structured_second

    def test_process_pool_matches_serial(self):
        spec = _small_spec(seed=4)
        serial = run_experiment(spec, max_workers=0)
        parallel = run_experiment(spec, max_workers=2)
        assert serial.rows == parallel.rows
        assert parallel.metadata["runtime"]["max_workers"] == 2
        # The deterministic serialisation must not leak scheduling details.
        assert serial.to_json(timing=False) == parallel.to_json(timing=False)

    def test_resolve_workers_normalisation(self, monkeypatch):
        assert resolve_workers(None) == 0
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        # -1 means "one worker per available CPU", where "available" is the
        # scheduling-affinity mask (cgroup/taskset aware), not the machine's
        # raw core count.
        assert resolve_workers(-1) == available_cpus()
        import repro.utils.envinfo as envinfo

        if hasattr(envinfo.os, "sched_getaffinity"):
            monkeypatch.setattr(
                envinfo.os, "sched_getaffinity", lambda pid: {0, 2, 5}
            )
            assert resolve_workers(-1) == 3

    def test_rows_are_flattened_in_grid_order(self):
        result = run_experiment(_small_spec())
        families = [row.family for row in result.rows]
        # Each task yields its k rows contiguously, tasks in grid order.
        assert families == sorted(families, key=families.index)
        assert len(result.rows) == 6 * len(SMALL_GRID["k_values"])


class TestResultSerialisation:
    def test_json_round_trip(self, tmp_path):
        result = run_experiment(_small_spec(seed=2))
        payload = json.loads(result.to_json())
        assert payload["experiment"] == "observation1"
        assert payload["seed"] == 2
        assert len(payload["rows"]) == len(result.rows)
        assert payload["rows"][0]["row_type"] == "Observation1Row"
        path = result.write_json(tmp_path / "obs.json")
        assert json.loads(path.read_text())["n_tasks"] == result.n_tasks

    def test_json_without_timing_is_deterministic(self):
        a = run_experiment(_small_spec(seed=2)).to_json(timing=False)
        b = run_experiment(_small_spec(seed=2)).to_json(timing=False)
        assert a == b

    def test_csv_artifact(self, tmp_path):
        result = run_experiment(_small_spec())
        path = result.write_csv(tmp_path / "obs.csv")
        headers, rows = read_csv(path)
        assert "family" in headers and "row_type" in headers
        assert len(rows) == len(result.rows)

    def test_heterogeneous_rows_union_headers(self, tmp_path):
        result = run_registered("spoa", quick=True, seed=0)
        assert result.rows_of_type(SPoARow)
        path = result.write_csv(tmp_path / "spoa.csv")
        headers, rows = read_csv(path)
        assert "worst_ratio" in headers and "max_ratio" in headers
        assert len(rows) == len(result.rows)


class TestCLIIntegration:
    def test_seed_flag_gives_bit_identical_json(self, capsys):
        argv = ["sweep", "--m", "6", "--policy", "exclusive", "sharing", "--json", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["experiment"] == "sweep"
        assert payload["seed"] == 7

    def test_json_flag_on_observation1(self, capsys):
        assert main(["observation1", "--json", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "observation1"
        assert all(row["holds"] for row in payload["rows"])

    def test_workers_flag_matches_serial_output(self, capsys):
        serial_argv = ["ess", "--mutants", "2", "--json", "--seed", "3"]
        assert main(serial_argv) == 0
        serial = capsys.readouterr().out
        assert main(serial_argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # The whole JSON artifact is worker-count independent.
        assert serial == parallel

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1", "observation1", "spoa", "ess", "sweep"):
            assert name in out


class TestColdWorker:
    def test_sweep_cells_never_import_numpy_ma(self):
        # NumPy's plain np.unique imports numpy.ma (~13 ms, ~0.85 MiB) on
        # first use; a fresh worker running one cell of each sweep family,
        # or the served grid canonicalisers, must not pay for it.
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(REPO / "src")!r})
            import numpy as np
            from repro.experiments import build_experiment
            from repro.utils.canonical import canonical_k_grid, canonical_times
            for name, options in (
                ("figure1", {{"c_grid": (0.0,)}}),
                ("mechanism", {{"k_values": (4,), "batch_rows": 1}}),
                ("dynamics", {{"k_values": (3,)}}),
                ("coverage-times", {{}}),
            ):
                spec = build_experiment(name, seed=1, **options)
                spec.task(spec.grid[0], np.random.default_rng(0))
            assert canonical_k_grid([3, 2, 3]) == (2, 3)
            assert canonical_times([4, 0, 4]) == (0, 4)
            print("numpy.ma" in sys.modules)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
