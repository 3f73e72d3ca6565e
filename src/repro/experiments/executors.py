"""Pluggable execution strategies for the experiment runner.

This module turns *how* tasks are executed into a strategy behind a single
interface, so the same :class:`~repro.experiments.spec.ExperimentSpec` can
run serially, on a local process pool or on a thread pool — with
bit-identical results, because per-task randomness depends only on the
spec's ``(seed, grid index)`` (see :mod:`repro.utils.rng`), never on which
strategy or worker executed the task.

**The strategy contract.**  An :class:`Executor`'s :meth:`~Executor.run`
consumes :class:`TaskPayload` objects and *yields* ``(grid_index, output)``
pairs in **arrival order** — streaming partial aggregation, not
collect-at-end.  The runner reassembles grid order on finalize and persists
finished cells to the :class:`~repro.experiments.store.ExperimentStore` as
they stream in, so an interrupted sweep keeps everything completed so far.

Three strategies ship built in (see :func:`make_executor`):

``serial``
    In-process loop; the default for small grids.
``process``
    Chunked execution on the interpreter's one warm ``ProcessPoolExecutor``,
    hardened with bounded chunk retries: a worker process dying mid-chunk
    re-executes that chunk on a fresh pool — same per-task seeds,
    bit-identical rows — instead of poisoning the whole run.
``async``
    Chunked thread pool for I/O-bound or GIL-releasing workloads (native
    NumPy/torch kernels, network-backed tasks).  Backend activation uses
    contextvars, so per-task backends stay isolated per thread.

**The shared process pool.**  Every :class:`ProcessExecutor` run in an
interpreter reuses one pool, so a sweep of several experiments forks its
workers once, not once per experiment; the service's ``process`` executor
(:mod:`repro.serving.executor`) runs its groups on the same pool.  The pool
is forked on first use and replaced (the old one shut down and joined
first) when a run asks for a different worker count, when a worker died, or
when a task could not be unpickled by its workers.  Workers see the parent
as it was when they were forked: a task defined in ``__main__``, or in a
module first imported after the fork, makes the next run fork a fresh pool.
A run that raises or is abandoned cancels its queued chunks and leaves the
pool to the next run.  Runs in several threads share the pool when they ask
for one worker count.  The workers are reaped by ``concurrent.futures``' own
exit hook.  Each fork logs one INFO record with the worker count and the
reason.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import sys
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.backend import resolve_backend, use_backend
from repro.experiments.spec import TaskFunction
from repro.utils.envinfo import pool_workers

logger = logging.getLogger(__name__)

__all__ = [
    "TaskPayload",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "AsyncExecutor",
    "ExecutorError",
    "execute_payload",
    "execute_chunk",
    "chunk_grid",
    "make_executor",
    "executor_names",
]


#: Re-executions a chunk (or a served group) gets after its worker died.
MAX_RETRIES = 3


class ExecutorError(RuntimeError):
    """An execution strategy could not complete the sweep (workers lost, retries exhausted)."""


@dataclass(frozen=True)
class TaskPayload:
    """One schedulable unit: a task, its parameters and its derived seed.

    The ``seed`` is the per-task ``SeedSequence`` child spawned from the
    spec's base seed by grid index, so a payload is self-contained: any
    worker, on any machine, on any attempt, reproduces the same output bit
    for bit.  ``backend``/``device`` travel by *name* (handles are not
    picklable) and are resolved in the executing process.
    """

    index: int
    task: TaskFunction
    params: Mapping[str, Any]
    seed: np.random.SeedSequence
    backend: str | None = None
    device: str | None = None


def execute_payload(payload: TaskPayload) -> Any:
    """Execute one payload: activate the backend/device, rebuild the generator, run."""
    if payload.backend is None and payload.device is None:
        scope: Any = contextlib.nullcontext()
    else:
        # Resolution — including device availability checks — happens in the
        # executing process, so workers raise the same errors the parent would.
        scope = use_backend(resolve_backend(payload.backend, device=payload.device))
    with scope:
        return payload.task(payload.params, np.random.default_rng(payload.seed))


def execute_chunk(chunk: Sequence[TaskPayload]) -> list[tuple[int, Any]]:
    """Execute a chunk of payloads sequentially, returning ``(index, output)`` pairs.

    This is the unit shipped to pool workers: big
    enough to amortise dispatch overhead, small enough that a sweep streams
    back incrementally.
    """
    return [(payload.index, execute_payload(payload)) for payload in chunk]


def chunk_grid(cells: Sequence[Any], chunk_size: int) -> list[tuple[Any, ...]]:
    """Split a flat list into chunks of ``chunk_size`` (the last may be shorter).

    The strategies ship payloads to workers in these chunks.  Spec builders
    whose natural unit of work is one *batched* call (e.g. a
    :class:`~repro.batch.dynamics.DynamicsEngine` run over many rows) use it
    to turn a long row list into one task per chunk: the runner then
    parallelises across chunks while each task keeps enough rows to amortise
    the batched kernels.  Order is preserved.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    items = list(cells)
    return [tuple(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


class Executor(ABC):
    """Strategy interface: stream ``(grid_index, output)`` pairs in arrival order.

    Implementations must not reorder, drop or duplicate indices; beyond that
    they are free to schedule however they like — the per-task seeds make
    the results placement-independent.
    """

    #: Registry name of the strategy (also recorded in result metadata).
    name: str = "abstract"

    @abstractmethod
    def run(
        self, payloads: Sequence[TaskPayload], *, chunk_size: int = 1
    ) -> Iterator[tuple[int, Any]]:
        """Execute every payload, yielding ``(grid_index, output)`` as results arrive."""


class SerialExecutor(Executor):
    """In-process, in-order execution (the ``max_workers <= 1`` default)."""

    name = "serial"

    def run(
        self, payloads: Sequence[TaskPayload], *, chunk_size: int = 1
    ) -> Iterator[tuple[int, Any]]:
        for payload in payloads:
            yield payload.index, execute_payload(payload)


class AsyncExecutor(Executor):
    """Chunked thread-pool execution for I/O-bound or GIL-releasing tasks.

    Threads share the interpreter, so this strategy shines when tasks spend
    their time in native kernels (NumPy, torch) or waiting on I/O; pure-
    Python-bound grids should prefer the ``process`` strategy.  Backend
    activation (:func:`repro.backend.use_backend`) is contextvar-based and
    therefore correctly scoped per worker thread.
    """

    name = "async"

    def __init__(self, workers: int | None = None):
        self.workers = pool_workers(workers)

    def run(
        self, payloads: Sequence[TaskPayload], *, chunk_size: int = 1
    ) -> Iterator[tuple[int, Any]]:
        chunks = chunk_grid(payloads, chunk_size)
        if not chunks:
            return
        with ThreadPoolExecutor(max_workers=min(self.workers, len(chunks))) as pool:
            futures = [pool.submit(execute_chunk, chunk) for chunk in chunks]
            try:
                for future in as_completed(futures):
                    yield from future.result()
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise


class _SharedPool:
    """The interpreter's one process pool, forked lazily (see the module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._workers = 0
        self._modules: frozenset[str] = frozenset()
        # Why the next fork happens when no pool is alive.
        self._fork_reason = "first use"

    def _stale(self, function: Any) -> bool:
        """Whether workers forked with ``self._modules`` may not unpickle ``function``."""
        while isinstance(function, functools.partial):
            function = function.func
        module = getattr(function, "__module__", None)
        return module == "__main__" or (module is not None and module not in self._modules)

    def acquire(self, workers: int, functions: Sequence[Any]) -> ProcessPoolExecutor:
        """The pool to submit ``functions`` to on ``workers`` processes."""
        with self._lock:
            if self._pool is None:
                reason = self._fork_reason
            elif workers != self._workers:
                reason = "size change"
            elif any(self._stale(function) for function in functions):
                reason = "stale task"
            else:
                return self._pool
            self.shutdown()
            # Looked up at call time: perfbench wraps it to count submissions.
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
            self._modules = frozenset(sys.modules)
            logger.info(
                "forking a %d-worker process pool (%s)",
                workers,
                reason,
                extra={"workers": workers, "reason": reason},
            )
            return self._pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` after a worker died; the next run forks a fresh one."""
        with self._lock:
            if pool is self._pool:
                self.shutdown()
                self._fork_reason = "broken"

    def shutdown(self) -> None:
        """Shut the pool down and join its workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


_SHARED_POOL = _SharedPool()


class ProcessExecutor(Executor):
    """Chunked process-pool execution with bounded fault-tolerant retries.

    Chunks run on the interpreter's shared pool (see the module docstring).
    A worker process dying mid-chunk (OOM kill, segfault, ``os._exit``) does
    not poison the run: the broken pool is discarded, every unfinished chunk
    is resubmitted to a fresh pool, and each chunk gets at most
    ``max_retries`` re-executions before the run fails with
    :class:`ExecutorError`.  Retried chunks reuse their original payloads —
    same per-task seeds — so a retry is bit-identical to a first run.
    Exceptions *raised by the task itself* are deterministic and are
    propagated immediately, never retried; they leave the pool to the next
    run.
    """

    name = "process"

    def __init__(self, workers: int | None = None, *, max_retries: int = MAX_RETRIES):
        self.workers = pool_workers(workers)
        self.max_retries = int(max_retries)

    def run(
        self, payloads: Sequence[TaskPayload], *, chunk_size: int = 1
    ) -> Iterator[tuple[int, Any]]:
        remaining = dict(enumerate(chunk_grid(payloads, chunk_size)))
        attempts = dict.fromkeys(remaining, 0)
        tasks = {id(payload.task): payload.task for payload in payloads}
        while remaining:
            run_chunk = execute_chunk  # looked up per run: perfbench swaps it
            pool = _SHARED_POOL.acquire(self.workers, (run_chunk, *tasks.values()))
            futures: dict[Any, int] = {}
            try:
                for chunk_id, chunk in remaining.items():
                    futures[pool.submit(run_chunk, chunk)] = chunk_id
                for future in as_completed(futures):
                    results = future.result()
                    del remaining[futures[future]]
                    yield from results
            except BrokenProcessPool:
                # A worker died (mid-chunk, or idle between runs); every
                # unfinished future fails with the same error.  Retry them
                # all on a fresh pool.
                _SHARED_POOL.discard(pool)
            finally:
                # A raising task or an abandoned stream leaves the pool to the
                # next run; its queued chunks must not run there.
                for future in futures:
                    future.cancel()
            for chunk_id in remaining:
                attempts[chunk_id] += 1
                if attempts[chunk_id] > self.max_retries:
                    raise ExecutorError(
                        f"chunk {chunk_id} crashed its worker process "
                        f"{attempts[chunk_id]} times (max_retries={self.max_retries})"
                    )
                logger.warning(
                    "chunk %d lost its worker (pool broke); retry %d of max_retries=%d",
                    chunk_id,
                    attempts[chunk_id],
                    self.max_retries,
                    extra={
                        "chunk": chunk_id,
                        "attempt": attempts[chunk_id],
                        "max_retries": self.max_retries,
                    },
                )


# ---------------------------------------------------------------------------
# Built-in strategies
# ---------------------------------------------------------------------------

_EXECUTORS: dict[str, Callable[..., Executor]] = {
    "serial": lambda workers=None: SerialExecutor(),
    "process": ProcessExecutor,
    "async": AsyncExecutor,
}


def executor_names() -> tuple[str, ...]:
    """Sorted names of the built-in execution strategies."""
    return tuple(sorted(_EXECUTORS))


def make_executor(name: str, *, workers: int | None = None) -> Executor:
    """Instantiate a built-in execution strategy by name.

    ``workers`` of ``None``/``0`` lets parallel strategies default to
    :func:`repro.utils.envinfo.available_cpus`.
    """
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        available = ", ".join(executor_names())
        raise ValueError(f"unknown executor {name!r}; available: {available}") from None
    return factory(workers=workers)
