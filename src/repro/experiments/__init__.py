"""Declarative, parallel experiment runner for the reproduction harness.

The subsystem splits an experiment into three orthogonal pieces:

* a **spec** (:class:`~repro.experiments.spec.ExperimentSpec`): a picklable
  task function plus a grid of task parameter mappings and a base seed — a
  complete, declarative description of the computation;
* a **runner** (:func:`~repro.experiments.runner.run_experiment`): expands the
  grid, derives one independent child seed per task with NumPy's
  ``SeedSequence`` spawning (deterministic in the base seed and the task
  index, so results are bit-identical regardless of scheduling), and executes
  the tasks on a pluggable **executor strategy**
  (:mod:`~repro.experiments.executors`): serial, chunked process pool or
  thread pool — all bit-identical;
* a **result** (:class:`~repro.experiments.result.ExperimentResult`): the
  flattened task rows in grid order plus provenance metadata, serialisable to
  JSON and CSV via :mod:`repro.utils.io`.

Sweeps become *resumable* with an incremental
:class:`~repro.experiments.store.ExperimentStore`: every finished grid cell
is persisted under a content address (:func:`repro.utils.canonical.cell_key`)
as it streams in, so re-runs skip finished cells, interrupted sweeps resume
where they left off, and widened grids only compute the new cells.

Experiments register themselves by name in the
:mod:`~repro.experiments.registry` (the built-in experiments of
:mod:`repro.analysis` — paper reproductions and scenario sweeps — are
registered on import); the CLI resolves its sub-commands through the
registry, so ``repro-dispersal <name> --seed S`` reruns any experiment
bit-identically.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "ExperimentSpec": ".spec",
    "ExperimentResult": ".result",
    "run_experiment": ".runner",
    "chunk_grid": ".executors",
    "auto_chunk_size": ".runner",
    "Executor": ".executors",
    "SerialExecutor": ".executors",
    "ProcessExecutor": ".executors",
    "AsyncExecutor": ".executors",
    "TaskPayload": ".executors",
    "make_executor": ".executors",
    "executor_names": ".executors",
    "ExperimentStore": ".store",
    "cell_keys_for": ".store",
    "ExperimentDefinition": ".registry",
    "register_experiment": ".registry",
    "get_experiment": ".registry",
    "build_experiment": ".registry",
    "experiment_names": ".registry",
    "run_registered": ".registry",
})
