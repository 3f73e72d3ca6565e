"""The sweep fabric: executor strategies, the incremental store, resume.

The contracts under test:

* **strategy bit-identity** — all three executor strategies (serial,
  process, async) produce bit-identical ``ExperimentResult``
  artifacts for the same spec + seed, property-tested over specs and seeds;
* **content addresses** — :func:`repro.utils.canonical.cell_key` is stable,
  spelling-invariant over parameter values, and sensitive to everything a
  cell's output depends on (family, task, params, seed, grid index);
* **fault tolerance** — a worker process dying mid-chunk
  retries that chunk (bounded) with the same per-task seeds instead of
  poisoning the run; deterministic task errors propagate immediately;
* **the shared process pool** — consecutive process runs reuse one pool's
  workers; a raising task, an abandoned stream, a dead worker or a task
  defined after the fork leaves the next run correct, and each fork logs
  its reason;
* **interrupt/resume** — a sweep killed mid-flight leaves only complete
  cells in the store, the resumed run is bit-identical to an uninterrupted
  one, and a widened grid recomputes only the new cells.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import logging
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.observation1 import build_observation1_spec
from repro.analysis.stochastic_experiments import build_coverage_times_spec
from repro.analysis.sweeps import build_dynamics_spec, build_sweep_spec
from repro.core.policies import ExclusivePolicy, SharingPolicy
from repro.experiments import (
    ExperimentSpec,
    ExperimentStore,
    cell_keys_for,
    make_executor,
    run_experiment,
)
from repro.experiments import executors
from repro.experiments.executors import (
    ExecutorError,
    ProcessExecutor,
    TaskPayload,
    executor_names,
)
from repro.experiments.runner import auto_chunk_size, resolve_batch_rows
from repro.experiments.store import STORE_FORMAT
from repro.utils.canonical import cell_key

REPO = Path(__file__).resolve().parent.parent


def small_spec(seed: int = 7) -> ExperimentSpec:
    return build_observation1_spec(m_values=(4,), k_values=(2, 3), n_random=1, seed=seed)


# --------------------------------------------------------------------------
# module-level tasks (worker processes need picklable, importable functions)
# --------------------------------------------------------------------------


def square_task(params, rng):
    return {"x": params["x"], "sq": params["x"] ** 2, "noise": float(rng.random())}


def crash_if_marker_task(params, rng):
    """Die hard (``os._exit``) while a sentinel file exists, else compute.

    First execution of the marked cell kills its worker process mid-chunk;
    the retry (marker removed by then) must reproduce the same output from
    the same per-task seed.
    """
    marker = Path(params["marker"])
    if params["x"] == params["victim"] and marker.exists():
        marker.unlink()
        os._exit(1)
    return {"x": params["x"], "noise": float(rng.random())}


def failing_task(params, rng):
    if params["x"] == 2:
        raise ValueError("cell 2 is bad by construction")
    return params["x"]


def abort_after_task(params, rng):
    """Raise KeyboardInterrupt once ``limit`` cells have completed (via counter file)."""
    counter = Path(params["counter"])
    done = int(counter.read_text()) if counter.exists() else 0
    if done >= params["limit"]:
        raise KeyboardInterrupt
    counter.write_text(str(done + 1))
    return {"x": params["x"], "noise": float(rng.random())}


def simple_grid_spec(task, n: int = 8, seed: int = 3, **extra) -> ExperimentSpec:
    return ExperimentSpec(
        name="fabric-test",
        description="synthetic fabric-test grid",
        task=task,
        grid=tuple({"x": i, **extra} for i in range(n)),
        seed=seed,
    )


# --------------------------------------------------------------------------
# executor strategies: bit-identity across all three
# --------------------------------------------------------------------------


class TestExecutorBitIdentity:
    def test_all_strategies_registered(self):
        assert executor_names() == ("async", "process", "serial")

    @pytest.mark.parametrize("seed", [0, 7, 20180503])
    @pytest.mark.parametrize("name", ["process", "async"])
    def test_pool_strategies_match_serial(self, name, seed):
        spec = small_spec(seed=seed)
        serial = run_experiment(spec, executor="serial")
        parallel = run_experiment(spec, max_workers=2, executor=name)
        assert serial.to_json(timing=False) == parallel.to_json(timing=False)
        assert parallel.metadata["runtime"]["executor"] == name

    def test_strategies_match_on_coverage_times_grid(self):
        # The coverage-times tasks draw chunk-wide rng for both the instance
        # families and the exponential-race Monte-Carlo pass — a worst case
        # for seed threading through the executors.
        spec = coverage_times_spec()
        artifacts = {
            name: run_experiment(spec, max_workers=2, executor=name).to_json(timing=False)
            for name in ("serial", "process", "async")
        }
        assert len(set(artifacts.values())) == 1

    def test_strategies_match_on_rng_heavy_dynamics_grid(self):
        # Property-style sweep over a spec whose tasks consume chunk-wide rng.
        spec = build_dynamics_spec(
            families=("uniform", "zipf"),
            m_values=(5,),
            k_values=(2, 3),
            inits=("random",),
            batch_rows=2,
            max_iter=500,
            seed=11,
        )
        artifacts = {
            name: run_experiment(spec, max_workers=2, executor=name).to_json(timing=False)
            for name in ("serial", "process", "async")
        }
        assert len(set(artifacts.values())) == 1

    def test_default_executor_keeps_legacy_metadata_shape(self):
        spec = small_spec()
        serial = run_experiment(spec)
        assert serial.metadata["runtime"]["max_workers"] == 0
        assert serial.metadata["runtime"]["executor"] == "serial"
        parallel = run_experiment(spec, max_workers=2)
        assert parallel.metadata["runtime"]["max_workers"] == 2
        assert parallel.metadata["runtime"]["executor"] == "process"

    def test_unknown_executor_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon")

    def test_retired_distributed_strategy_is_gone(self):
        import repro.experiments

        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("distributed")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments.worker")
        assert not hasattr(repro.experiments, "DistributedExecutor")
        # No strategy takes extra constructor options any more.
        with pytest.raises(TypeError):
            make_executor("process", spawn="thread")

    def test_experiments_package_reads_nothing_from_a_socket(self):
        # Sweeps run on one machine; no module may unpickle network input.
        for path in sorted((REPO / "src" / "repro" / "experiments").rglob("*.py")):
            text = path.read_text()
            for needle in ("pickle.loads", "socket.create_server", "import socket"):
                assert needle not in text, f"{path.name} uses {needle}"


# --------------------------------------------------------------------------
# chunk auto-tuning
# --------------------------------------------------------------------------


class TestAutoChunkSize:
    def test_targets_at_least_two_chunks_per_worker(self):
        for n_cells in (1, 7, 64, 1000, 54):
            for workers in (1, 2, 4, 8):
                chunk = auto_chunk_size(n_cells, workers)
                n_chunks = -(-n_cells // chunk)
                assert chunk >= 1
                if n_cells >= 2 * workers:
                    assert n_chunks >= 2 * workers

    def test_caps_chunk_for_streaming(self):
        assert auto_chunk_size(1_000_000, 2) == 256

    def test_empty_grid_and_defaults(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(10) >= 1  # workers default to available CPUs

    def test_resolve_batch_rows_auto_and_explicit(self):
        assert resolve_batch_rows(16, 1000) == 16
        auto = resolve_batch_rows(None, 1000)
        assert 1 <= auto <= 256
        with pytest.raises(ValueError):
            resolve_batch_rows(0, 10)

    def test_spec_builders_record_the_resolved_value(self):
        spec = build_dynamics_spec(
            families=("uniform",), m_values=(5,), k_values=(2,), inits=("uniform",)
        )
        batch = spec.metadata["batch_rows"]
        assert isinstance(batch, int) and batch >= 1
        # Passing the recorded value back reproduces the same chunking.
        pinned = build_dynamics_spec(
            families=("uniform",), m_values=(5,), k_values=(2,),
            inits=("uniform",), batch_rows=batch,
        )
        assert pinned.n_tasks == spec.n_tasks


# --------------------------------------------------------------------------
# content addresses
# --------------------------------------------------------------------------


class TestCellKeys:
    def test_deterministic_and_index_sensitive(self):
        key = cell_key("sweep", {"k": 3, "m": 5}, 0, 1, task="t")
        assert key == cell_key("sweep", {"k": 3, "m": 5}, 0, 1, task="t")
        assert key != cell_key("sweep", {"k": 3, "m": 5}, 0, 2, task="t")
        assert key != cell_key("sweep", {"k": 3, "m": 5}, 1, 1, task="t")
        assert key != cell_key("other", {"k": 3, "m": 5}, 0, 1, task="t")
        assert key != cell_key("sweep", {"k": 3, "m": 5}, 0, 1, task="u")
        assert key != cell_key("sweep", {"k": 4, "m": 5}, 0, 1, task="t")

    def test_spelling_invariance(self):
        # numpy scalars, arrays vs lists-in-tuples, mapping order: one key.
        a = cell_key("s", {"k": np.int64(3), "w": np.asarray([1.0, 2.0])}, 0, 0)
        b = cell_key("s", {"w": (1.0, 2.0), "k": 3}, 0, 0)
        assert a == b

    def test_policy_objects_hash_by_type_and_state(self):
        a = cell_key("s", {"policy": SharingPolicy()}, 0, 0)
        b = cell_key("s", {"policy": SharingPolicy()}, 0, 0)
        c = cell_key("s", {"policy": ExclusivePolicy()}, 0, 0)
        assert a == b
        assert a != c

    def test_cell_keys_for_covers_the_grid_in_order(self):
        spec = small_spec()
        keys = cell_keys_for(spec)
        assert len(keys) == spec.n_tasks
        assert len(set(keys)) == spec.n_tasks
        assert keys == cell_keys_for(spec)
        assert keys != cell_keys_for(spec.with_seed(spec.seed + 1))

    def test_coverage_times_keys_name_the_sampler(self):
        # A store warmed under another Monte-Carlo estimator must not serve
        # its rows on resume: the sampler is part of every cell's params.
        spec = coverage_times_spec()
        assert spec.metadata["sampler"] == "race"
        assert all(params["sampler"] == "race" for params in spec.grid)
        unnamed = dataclasses.replace(spec, grid=tuple(
            {name: value for name, value in params.items() if name != "sampler"}
            for params in spec.grid
        ))
        assert not set(cell_keys_for(spec)) & set(cell_keys_for(unnamed))


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------


class TestExperimentStore:
    def test_round_trip_and_len(self, tmp_path):
        store = ExperimentStore(tmp_path / "cells")
        key = "ab" * 32
        assert key not in store
        store.put(key, {"rows": [1, 2, 3]})
        assert key in store
        assert store.get(key) == {"rows": [1, 2, 3]}
        assert len(store) == 1
        assert list(store.keys()) == [key]
        store.discard(key)
        assert key not in store and len(store) == 0

    def test_format_marker_and_version_check(self, tmp_path):
        root = tmp_path / "cells"
        ExperimentStore(root)
        assert (root / "FORMAT").read_text().strip() == str(STORE_FORMAT)
        ExperimentStore(root)  # reopening is fine
        (root / "FORMAT").write_text("999\n")
        with pytest.raises(ValueError, match="format 999"):
            ExperimentStore(root)
        (root / "FORMAT").write_text("not-a-store\n")
        with pytest.raises(ValueError, match="not a repro experiment store"):
            ExperimentStore(root)

    def test_corrupt_entry_is_a_miss_and_gets_cleared(self, tmp_path):
        store = ExperimentStore(tmp_path / "cells")
        key = "cd" * 32
        store.put(key, 42)
        store.path_for(key).write_bytes(b"\x80\x04 truncated garbage")
        assert store.get(key, "miss") == "miss"
        assert key not in store  # debris cleared, cell will be recomputed

    def test_no_temp_debris_after_puts(self, tmp_path):
        store = ExperimentStore(tmp_path / "cells")
        for i in range(10):
            store.put(f"{i:02d}" + "e" * 62, list(range(i)))
        assert not list(Path(tmp_path / "cells").rglob("*.tmp"))

    def test_runner_accepts_a_path_and_reports_hit_counts(self, tmp_path):
        calls = []
        task = small_spec().task

        @functools.wraps(task)  # same qualified name, so the same cell keys
        def counted(params, rng):
            calls.append(params)
            return task(params, rng)

        spec = dataclasses.replace(small_spec(), task=counted)
        cold = run_experiment(spec, store=tmp_path / "cells")
        assert len(calls) == spec.n_tasks
        warm = run_experiment(spec, store=tmp_path / "cells")
        assert len(calls) == spec.n_tasks  # the warm rerun calls the task zero times
        assert cold.metadata["runtime"]["store"] == {
            "path": str(tmp_path / "cells"), "hits": 0, "misses": spec.n_tasks,
        }
        assert warm.metadata["runtime"]["store"] == {
            "path": str(tmp_path / "cells"), "hits": spec.n_tasks, "misses": 0,
        }
        assert cold.to_json(timing=False) == warm.to_json(timing=False)

    def test_resume_false_recomputes_but_still_writes(self, tmp_path):
        spec = small_spec()
        run_experiment(spec, store=tmp_path / "cells")
        again = run_experiment(spec, store=tmp_path / "cells", resume=False)
        assert again.metadata["runtime"]["store"]["hits"] == 0
        assert again.metadata["runtime"]["store"]["misses"] == spec.n_tasks

    def test_store_is_backend_and_executor_agnostic(self, tmp_path):
        # Cells computed serially serve a parallel re-run and vice versa.
        spec = small_spec()
        run_experiment(spec, executor="serial", store=tmp_path / "cells")
        warm = run_experiment(
            spec, max_workers=2, executor="process", store=tmp_path / "cells"
        )
        assert warm.metadata["runtime"]["store"]["hits"] == spec.n_tasks


# --------------------------------------------------------------------------
# fault tolerance
# --------------------------------------------------------------------------


class TestFaultTolerance:
    def test_process_pool_retries_a_killed_chunk_bit_identically(self, tmp_path):
        marker = tmp_path / "crash-once"
        marker.touch()
        spec = simple_grid_spec(
            crash_if_marker_task, n=6, marker=str(marker), victim=4
        )
        result = run_experiment(spec, max_workers=2, executor="process")
        assert not marker.exists()  # the crash really happened
        baseline = run_experiment(spec, executor="serial")
        assert result.to_json(timing=False) == baseline.to_json(timing=False)

    def test_each_retried_chunk_logs_a_warning(self, tmp_path, caplog):
        marker = tmp_path / "crash-once"
        marker.touch()
        spec = dataclasses.replace(
            simple_grid_spec(crash_if_marker_task, n=6, marker=str(marker), victim=4),
            chunk_size=1,
        )
        with caplog.at_level(logging.WARNING, logger="repro.experiments.executors"):
            run_experiment(spec, max_workers=2, executor=ProcessExecutor(workers=2))
        assert not marker.exists()
        retries = [r for r in caplog.records if r.name == "repro.experiments.executors"]
        assert retries and all(r.levelno == logging.WARNING for r in retries)
        assert 4 in {r.chunk for r in retries}  # chunk 4 holds the victim
        assert {(r.attempt, r.max_retries) for r in retries} == {(1, 3)}
        assert len({r.chunk for r in retries}) == len(retries)  # one record per chunk

    def test_process_pool_gives_up_after_bounded_retries(self, tmp_path):
        executor = ProcessExecutor(workers=2, max_retries=1)
        payloads = [
            TaskPayload(index=i, task=_exit_task, params={}, seed=np.random.SeedSequence(i))
            for i in range(4)
        ]
        with pytest.raises(ExecutorError, match="max_retries=1"):
            list(executor.run(payloads, chunk_size=2))

    def test_task_exceptions_propagate_without_retry(self):
        spec = simple_grid_spec(failing_task, n=4)
        with pytest.raises(ValueError, match="cell 2 is bad"):
            run_experiment(spec, max_workers=2, executor="process")


def _exit_task(params, rng):  # pragma: no cover - runs in worker processes
    os._exit(1)


# --------------------------------------------------------------------------
# the shared process pool
# --------------------------------------------------------------------------


@pytest.fixture
def shared_pool(monkeypatch):
    """A fresh interpreter-wide process pool for one test, shut down after it."""
    pool = executors._SharedPool()
    monkeypatch.setattr(executors, "_SHARED_POOL", pool)
    yield pool
    pool.shutdown()


def pid_task(params, rng):
    time.sleep(0.05)  # long enough that both workers take chunks
    return os.getpid()


def worker_pids(executor: ProcessExecutor) -> set[int]:
    payloads = [
        TaskPayload(index=i, task=pid_task, params={}, seed=np.random.SeedSequence(i))
        for i in range(6)
    ]
    return set(dict(executor.run(payloads)).values())


def pool_forks(caplog) -> list[tuple[int, str]]:
    return [
        (record.workers, record.reason)
        for record in caplog.records
        if record.name == "repro.experiments.executors" and record.levelno == logging.INFO
    ]


def assert_matches_serial(executor: ProcessExecutor) -> None:
    spec = simple_grid_spec(square_task)
    pooled = run_experiment(spec, max_workers=2, executor=executor)
    assert pooled.to_json(timing=False) == run_experiment(spec).to_json(timing=False)


#: A task defined in ``__main__`` after the pool forked: its workers cannot
#: unpickle it, so the second run must fork a fresh pool, not retry chunks.
_LATE_MAIN_TASK = """
import json, logging
from repro.experiments import ExperimentSpec, run_experiment

records = []
handler = logging.Handler()
handler.emit = lambda record: records.append((record.levelname, getattr(record, "reason", None)))
logger = logging.getLogger("repro.experiments.executors")
logger.addHandler(handler)
logger.setLevel(logging.INFO)

def spec(task):
    grid = tuple({"x": i} for i in range(4))
    return ExperimentSpec(name="late", description="late task", task=task, grid=grid, seed=1)

def early(params, rng):
    return {"x": params["x"]}

run_experiment(spec(early), max_workers=2, executor="process")

def late(params, rng):
    return {"x": 10 * params["x"]}

rows = run_experiment(spec(late), max_workers=2, executor="process").rows
print(json.dumps({"rows": rows, "records": records}))
"""


class TestSharedProcessPool:
    def test_consecutive_runs_reuse_the_workers(self, shared_pool):
        executor = ProcessExecutor(workers=2)
        first, second = worker_pids(executor), worker_pids(executor)
        assert os.getpid() not in first
        assert len(first | second) <= 2

    def test_a_raising_task_leaves_a_usable_pool(self, shared_pool):
        executor = ProcessExecutor(workers=2)
        before = worker_pids(executor)
        with pytest.raises(ValueError, match="cell 2 is bad"):
            run_experiment(simple_grid_spec(failing_task, n=4), max_workers=2, executor=executor)
        assert_matches_serial(executor)
        assert len(before | worker_pids(executor)) <= 2

    def test_an_abandoned_stream_leaves_a_usable_pool(self, shared_pool):
        executor = ProcessExecutor(workers=2)
        payloads = [
            TaskPayload(index=i, task=pid_task, params={}, seed=np.random.SeedSequence(i))
            for i in range(8)
        ]
        stream = executor.run(payloads)
        _, pid = next(stream)
        stream.close()
        # The dead run's outputs are pids: none may land in the next run's rows.
        assert_matches_serial(executor)
        assert len({pid} | worker_pids(executor)) <= 2

    def test_a_killed_worker_is_retried_and_the_next_run_succeeds(
        self, shared_pool, tmp_path, caplog
    ):
        marker = tmp_path / "crash-once"
        marker.touch()
        spec = dataclasses.replace(
            simple_grid_spec(crash_if_marker_task, n=6, marker=str(marker), victim=4),
            chunk_size=1,
        )
        executor = ProcessExecutor(workers=2)
        with caplog.at_level(logging.INFO, logger="repro.experiments.executors"):
            result = run_experiment(spec, max_workers=2, executor=executor)
            assert_matches_serial(executor)
        assert not marker.exists()
        retries = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert 4 in {r.chunk for r in retries}
        assert {(r.attempt, r.max_retries) for r in retries} == {(1, 3)}
        assert result.to_json(timing=False) == run_experiment(spec).to_json(timing=False)
        # The retry forked the pool the next run reuses.
        assert pool_forks(caplog) == [(2, "first use"), (2, "broken")]

    def test_threads_running_at_once_share_the_pool(self, shared_pool, caplog):
        executor = ProcessExecutor(workers=3)
        spec = simple_grid_spec(square_task, n=12)
        expected = run_experiment(spec).to_json(timing=False)
        worker_pids(executor)  # fork before any thread starts

        def pooled(_):
            return run_experiment(spec, max_workers=3, executor=executor).to_json(timing=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with caplog.at_level(logging.INFO, logger="repro.experiments.executors"):
                with ThreadPoolExecutor(max_workers=4) as threads:
                    artifacts = list(threads.map(pooled, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert artifacts == [expected] * 8
        assert pool_forks(caplog) == []

    def test_a_late_main_task_forks_a_fresh_pool_without_retries(self):
        out = subprocess.run(
            [sys.executable, "-c", _LATE_MAIN_TASK], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        ).stdout
        report = json.loads(out.splitlines()[-1])
        assert report["rows"] == [{"x": 10 * i} for i in range(4)]
        assert report["records"] == [["INFO", "first use"], ["INFO", "stale task"]]


class TestPoolForkRecords:
    """One INFO record per fork; the "broken" reason is checked with the retry above."""

    def test_first_use(self, shared_pool, caplog):
        with caplog.at_level(logging.INFO, logger="repro.experiments.executors"):
            worker_pids(ProcessExecutor(workers=2))
            worker_pids(ProcessExecutor(workers=2))
        assert pool_forks(caplog) == [(2, "first use")]

    def test_size_change(self, shared_pool, caplog):
        with caplog.at_level(logging.INFO, logger="repro.experiments.executors"):
            worker_pids(ProcessExecutor(workers=2))
            worker_pids(ProcessExecutor(workers=3))
        assert pool_forks(caplog) == [(2, "first use"), (3, "size change")]

    def test_stale_task(self, shared_pool, tmp_path, caplog, monkeypatch):
        # A module first imported after the fork, reached through a partial.
        (tmp_path / "fabric_late_module.py").write_text(
            "def late_task(params, rng):\n    return {'x': params['x'] + 1}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "fabric_late_module", raising=False)
        executor = ProcessExecutor(workers=2)
        with caplog.at_level(logging.INFO, logger="repro.experiments.executors"):
            worker_pids(executor)
            late = importlib.import_module("fabric_late_module")
            spec = simple_grid_spec(functools.partial(late.late_task), n=4)
            result = run_experiment(spec, max_workers=2, executor=executor)
        assert list(result.rows) == [{"x": i + 1} for i in range(4)]
        assert pool_forks(caplog) == [(2, "first use"), (2, "stale task")]


# --------------------------------------------------------------------------
# interrupt / resume
# --------------------------------------------------------------------------


class TestInterruptResume:
    def test_interrupted_sweep_keeps_only_complete_cells_then_resumes(self, tmp_path):
        counter = tmp_path / "counter"
        spec = simple_grid_spec(
            abort_after_task, n=8, counter=str(counter), limit=3
        )
        store_root = tmp_path / "cells"
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, store=store_root)

        # Only the cells that finished before the interrupt are stored, each
        # one complete and loadable.
        store = ExperimentStore(store_root)
        keys = cell_keys_for(spec)
        stored = [key for key in keys if key in store]
        assert len(stored) == 3
        for key in stored:
            assert store.get(key, "miss") != "miss"

        # Resume: only the missing cells run; the artifact matches an
        # uninterrupted run bit for bit.
        counter.write_text("-1000")  # disarm the abort
        resumed = run_experiment(spec, store=store_root)
        assert resumed.metadata["runtime"]["store"]["hits"] == 3
        assert resumed.metadata["runtime"]["store"]["misses"] == 5
        uninterrupted = run_experiment(spec)
        assert resumed.to_json(timing=False) == uninterrupted.to_json(timing=False)

    def test_sigkill_mid_sweep_leaves_a_loadable_store(self, tmp_path):
        # Kill -9 an external sweep process mid-flight: whatever made it to
        # disk must be complete cells, and resuming from them is identical
        # to a fresh run.
        store_root = tmp_path / "cells"
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(REPO / "src")!r})
            sys.path.insert(0, {str(REPO / "tests")!r})
            from test_sweep_fabric import slow_spec
            from repro.experiments import run_experiment
            run_experiment(slow_spec(), store={str(store_root)!r})
            """
        )
        proc = subprocess.Popen([sys.executable, "-c", script])
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if store_root.is_dir() and any(store_root.glob("*/*.pkl")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        else:
            proc.kill()
            pytest.fail("sweep subprocess never wrote a cell")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        spec = slow_spec()
        store = ExperimentStore(store_root)
        keys = cell_keys_for(spec)
        n_stored = sum(1 for key in keys if key in store)
        assert 0 < n_stored  # something finished before the kill
        for key in keys:
            if key in store:
                assert store.get(key, "miss") != "miss"  # complete, loadable
        resumed = run_experiment(spec, store=store)
        fresh = run_experiment(spec)
        assert resumed.to_json(timing=False) == fresh.to_json(timing=False)

    def test_interrupted_coverage_times_sweep_resumes_bit_identically(self, tmp_path):
        # Kill a coverage-times sweep after its first chunk; the resumed run
        # must serve that chunk from the store and still serialise exactly
        # like an uninterrupted sweep (exact + Monte-Carlo columns included).
        spec = coverage_times_spec()
        assert spec.n_tasks >= 2
        store_root = tmp_path / "cells"
        store = ExperimentStore(store_root)
        keys = cell_keys_for(spec)

        class FirstChunkOnly:
            """Store wrapper that interrupts the sweep after one put."""

            def __init__(self):
                self.puts = 0

            def get(self, key, default=None):
                return store.get(key, default)

            def put(self, key, value):
                store.put(key, value)
                self.puts += 1
                if self.puts >= 1:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, store=FirstChunkOnly())
        stored = [key for key in keys if key in store]
        assert len(stored) == 1

        resumed = run_experiment(spec, store=store_root)
        assert resumed.metadata["runtime"]["store"]["hits"] == 1
        assert resumed.metadata["runtime"]["store"]["misses"] == spec.n_tasks - 1
        fresh = run_experiment(spec)
        assert resumed.to_json(timing=False) == fresh.to_json(timing=False)

    def test_grid_extension_recomputes_only_new_cells(self, tmp_path):
        store_root = tmp_path / "cells"
        narrow = build_sweep_spec(policies=[SharingPolicy()], m=6, seed=5)
        run_experiment(narrow, store=store_root)

        # Widening the policy roster appends cells; the shared prefix of the
        # grid keeps its content addresses and is served from the store.
        wide = build_sweep_spec(
            policies=[SharingPolicy(), ExclusivePolicy()], m=6, seed=5
        )
        assert cell_keys_for(wide)[: narrow.n_tasks] == cell_keys_for(narrow)
        extended = run_experiment(wide, store=store_root)
        assert extended.metadata["runtime"]["store"]["hits"] == narrow.n_tasks
        assert (
            extended.metadata["runtime"]["store"]["misses"]
            == wide.n_tasks - narrow.n_tasks
        )
        fresh = run_experiment(wide)
        assert extended.to_json(timing=False) == fresh.to_json(timing=False)


def coverage_times_spec() -> ExperimentSpec:
    """A tiny multi-chunk coverage-times grid for fabric tests."""
    return build_coverage_times_spec(
        strategies=("uniform", "proportional"),
        families=("zipf", "uniform"),
        m_values=(3, 4),
        k_values=(1, 2),
        n_trials=60,
        max_rounds=500,
        horizon=16,
        batch_rows=3,
        seed=17,
    )


def slow_spec() -> ExperimentSpec:
    """Many quick cells — the SIGKILL test needs a sweep that outlives one cell."""
    return ExperimentSpec(
        name="fabric-slow",
        description="slow synthetic grid for kill tests",
        task=slow_task,
        grid=tuple({"x": i} for i in range(40)),
        seed=13,
    )


def slow_task(params, rng):
    time.sleep(0.05)
    return {"x": params["x"], "noise": float(rng.random())}
