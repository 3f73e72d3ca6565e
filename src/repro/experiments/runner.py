"""Executing experiment specs: seed spawning, chunking, executor strategies.

The runner turns an :class:`~repro.experiments.spec.ExperimentSpec` into an
:class:`~repro.experiments.result.ExperimentResult`:

* one child ``SeedSequence`` is spawned per task from the spec's base seed,
  so task randomness depends only on ``(seed, grid index)`` — never on
  scheduling, worker count, chunking or execution strategy;
* execution is delegated to a pluggable **executor strategy**
  (:mod:`repro.experiments.executors`): ``serial`` (the ``max_workers <= 1``
  default), ``process`` (chunked process pool with bounded fault-tolerant
  chunk retries) or ``async`` (thread pool);
* results stream back **in arrival order** and are reassembled to grid
  order on finalize, so serial and parallel runs of the same spec produce
  identical results, bit for bit — across all strategies;
* with a ``store`` (:class:`~repro.experiments.store.ExperimentStore`),
  every finished cell is persisted under its content address as it arrives
  and already-finished cells are skipped up front, which makes sweeps
  interruptible, resumable and extendable;
* each task runs under the spec's array backend (``spec.backend`` or the
  runner's ``backend=`` override): the backend *name* travels in the task
  payload and is activated with :func:`repro.backend.use_backend` inside
  the executing process, so workers honor the choice even though backend
  handles themselves are not picklable.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro.experiments.executors import (
    Executor,
    SerialExecutor,
    TaskPayload,
    make_executor,
)
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ExperimentStore, cell_keys_for
from repro.utils.envinfo import available_cpus
from repro.utils.rng import spawn_seed_sequences

__all__ = [
    "run_experiment",
    "auto_chunk_size",
    "resolve_batch_rows",
    "resolve_workers",
]


def auto_chunk_size(
    n_cells: int,
    workers: int | None = None,
    *,
    target_chunks_per_worker: int = 2,
    max_chunk: int = 256,
) -> int:
    """Pick a :func:`~repro.experiments.executors.chunk_grid` size from the grid and CPUs.

    Targets at least ``target_chunks_per_worker`` chunks per worker so a
    parallel run keeps every worker busy and the tail chunk does not
    dominate, capped at ``max_chunk`` rows so even huge grids stream results
    back incrementally.

    ``workers`` defaults to :func:`repro.utils.envinfo.available_cpus` — the
    *machine's* capacity, deliberately not the runner's ``max_workers``
    argument: per-task seeds are keyed by chunk index and tasks consume
    their generator sequentially across the chunk, so the chunking must not
    change with the worker count or the serial==parallel bit-identity
    contract would break.  (Pass an explicit batch size to spec builders to
    pin results across *machines* with different CPU counts.)

    >>> auto_chunk_size(1000, workers=4)
    125
    >>> auto_chunk_size(0, workers=4)
    1
    """
    if workers is None or workers < 1:
        workers = available_cpus()
    if n_cells < 1:
        return 1
    target = max(1, int(workers) * max(1, int(target_chunks_per_worker)))
    # Floor division: rounding the chunk *down* can only add chunks, so the
    # >= target_chunks_per_worker guarantee holds whenever the grid allows it.
    return max(1, min(int(max_chunk), int(n_cells) // target))


def resolve_batch_rows(batch_rows: int | None, n_cells: int) -> int:
    """Resolve a spec builder's ``batch_rows`` argument.

    ``None`` (the builders' default) auto-tunes via :func:`auto_chunk_size`;
    an explicit value is validated and used as is.  Spec builders record the
    resolved value in their metadata, and passing it back reproduces the
    same chunking — and therefore bit-identical results — on any machine.
    """
    if batch_rows is None:
        return auto_chunk_size(n_cells)
    from repro.utils.validation import check_positive_integer

    return check_positive_integer(batch_rows, "batch_rows")


def _flatten(outputs: Iterable[Any]) -> tuple[Any, ...]:
    rows: list[Any] = []
    for output in outputs:
        if output is None:
            continue
        if isinstance(output, (list, tuple)):
            rows.extend(output)
        else:
            rows.append(output)
    return tuple(rows)


def resolve_workers(max_workers: int | None) -> int:
    """Normalise a worker-count request (``None``/0/1 mean serial)."""
    if max_workers is None:
        return 0
    workers = int(max_workers)
    if workers < 0:
        # Convention: -1 means "one worker per *available* CPU" — the
        # affinity mask, not the machine's core count, so container CPU
        # limits (cgroups, taskset) are respected.
        workers = available_cpus()
    return workers


def _resolve_executor(
    executor: Executor | str | None, workers: int, n_payloads: int
) -> tuple[Executor, int]:
    """Map the (executor, max_workers) request to a strategy instance.

    ``None`` means serial for ``workers <= 1`` or single-task grids, a
    process pool otherwise.  A string is resolved through the strategy
    registry; an :class:`Executor` instance is used as is.  Returns the strategy and the effective worker count recorded in
    the result metadata (0 for serial, matching the legacy convention).
    """
    if isinstance(executor, Executor):
        used = 0 if executor.name == "serial" else getattr(executor, "workers", workers)
        return executor, int(used or 0)
    if executor is None:
        if workers <= 1 or n_payloads <= 1:
            return SerialExecutor(), 0
        executor = "process"
    if executor == "serial":
        return make_executor("serial"), 0
    workers = workers if workers > 1 else available_cpus()
    workers = max(1, min(workers, n_payloads))
    return make_executor(executor, workers=workers), workers


def run_experiment(
    spec: ExperimentSpec,
    *,
    max_workers: int | None = 0,
    backend: str | None = None,
    device: str | None = None,
    executor: Executor | str | None = None,
    store: Any | None = None,
    resume: bool = True,
) -> ExperimentResult:
    """Execute every task of ``spec`` and assemble the structured result.

    Parameters
    ----------
    spec:
        The experiment to run.
    max_workers:
        ``<= 1`` (default) runs serially in-process; ``>= 2`` fans tasks out
        to that many workers in chunks of ``spec.chunk_size`` (or about four
        chunks per worker when unset); ``-1`` uses one worker per CPU.  The
        result is identical either way.
    backend:
        Array-backend name activated around every task (overrides
        ``spec.backend``; ``None`` falls back to it).  Travels by name into
        worker processes, so parallel runs honor the choice; the results are
        identical across backends by the batch layer's elementwise contract.
    device:
        Device name (``cpu`` / ``cuda`` / ``mps``) the backend is pinned to
        around every task (overrides ``spec.device``; ``None`` falls back to
        it).  Travels by name like ``backend`` and is resolved — including
        availability checks — inside each executing process.
    executor:
        Execution strategy: a registered name (``serial`` / ``process`` /
        ``async``), a ready-built
        :class:`~repro.experiments.executors.Executor` instance, or ``None``
        for serial below two workers and a process pool otherwise.  All
        strategies produce bit-identical results.
    store:
        An :class:`~repro.experiments.store.ExperimentStore` (or a path to
        create one at).  Finished cells are persisted under their content
        address as they stream in; with ``resume`` (the default) cells
        already in the store are read back instead of recomputed, so
        interrupted sweeps resume and widened grids only compute new cells.
    resume:
        Set ``False`` to ignore (but still refresh) existing store entries —
        every cell is recomputed and rewritten.
    """
    workers = resolve_workers(max_workers)
    seeds = spawn_seed_sequences(int(spec.seed), spec.n_tasks)
    task_backend = backend if backend is not None else spec.backend
    task_device = device if device is not None else spec.device
    payloads = [
        TaskPayload(
            index=index,
            task=spec.task,
            params=params,
            seed=seed,
            backend=task_backend,
            device=task_device,
        )
        for index, (params, seed) in enumerate(zip(spec.grid, seeds))
    ]

    if store is not None and not hasattr(store, "put"):
        store = ExperimentStore(store)

    start = time.perf_counter()
    outputs: list[Any] = [None] * len(payloads)

    # Resume pass: read finished cells straight out of the store and only
    # schedule the rest.  Keys digest everything a cell depends on, so a hit
    # is bit-identical to a recomputation by construction.
    hits = 0
    keys: list[str] | None = None
    pending = payloads
    if store is not None:
        keys = cell_keys_for(spec)
        if resume:
            pending = []
            for payload in payloads:
                cached = store.get(keys[payload.index], _MISS)
                if cached is _MISS:
                    pending.append(payload)
                else:
                    outputs[payload.index] = cached
                    hits += 1
        else:
            pending = list(payloads)

    strategy, used_workers = _resolve_executor(executor, workers, len(pending))
    if pending and len(pending) <= 1 and not isinstance(executor, Executor):
        # Single pending cell: scheduling overhead can't pay for itself.
        strategy, used_workers = SerialExecutor(), 0
    chunk_size = spec.chunk_size or (
        max(1, -(-len(pending) // (used_workers * 4))) if used_workers > 1 else (len(pending) or 1)
    )

    # Streaming aggregation: results arrive in completion order, land in
    # their grid slot immediately, and — when a store is attached — are
    # persisted cell by cell, so an interrupted run keeps all finished work.
    for index, output in strategy.run(pending, chunk_size=chunk_size):
        outputs[index] = output
        if store is not None and keys is not None:
            store.put(keys[index], output)
    elapsed = time.perf_counter() - start

    # Execution details live under a separate "runtime" key so that
    # `to_dict(timing=False)` can strip everything scheduling-dependent and
    # keep the serialised artifact identical across worker counts.
    metadata = dict(spec.metadata)
    runtime: dict[str, Any] = {
        "max_workers": used_workers,
        "chunk_size": chunk_size,
        "backend": task_backend or "default",
        "device": task_device or "default",
        "executor": strategy.name,
    }
    if store is not None:
        runtime["store"] = {
            "path": str(getattr(store, "root", "")),
            "hits": hits,
            "misses": len(pending),
        }
    metadata["runtime"] = runtime
    return ExperimentResult(
        name=spec.name,
        description=spec.description,
        seed=spec.seed,
        n_tasks=spec.n_tasks,
        elapsed_seconds=elapsed,
        rows=_flatten(outputs),
        metadata=metadata,
    )


_MISS = object()
