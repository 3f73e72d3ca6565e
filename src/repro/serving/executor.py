"""Off-loop kernel execution: inline, on a thread pool or on the process pool.

The scheduler (:mod:`repro.serving.scheduler`) turns queued requests into
homogeneous groups; a :class:`KernelExecutor` decides *where* each group's
batched kernel call runs:

* :class:`InlineKernelExecutor` — on the event-loop thread.  One group at a
  time; a kernel call blocks the loop for its duration.  Zero overhead, the
  right default for a single-CPU host and the reference the other modes must
  match bit for bit.
* :class:`PoolKernelExecutor` in ``thread`` mode — a ``ThreadPoolExecutor``.
  The event loop stays responsive (accepting connections, parsing requests
  and accumulating the next batch *while* kernels run), and NumPy's ufunc
  inner loops release the GIL, so groups overlap on multi-core hosts.
* :class:`PoolKernelExecutor` in ``process`` mode — the interpreter's one
  shared process pool, the same one the sweep fabric's ``process`` strategy
  runs on (see :mod:`repro.experiments.executors`).  Groups travel pickled,
  with the backend by name.  Workers need no warm-up: they are forked from a
  server that has already imported the kernel stack, and
  :func:`repro.backend.load_backend` caches each backend per process.  A
  worker that dies breaks the pool; the group is then retried on a freshly
  forked one, so a dead worker never fails later requests.

Pool sizes default to :func:`repro.utils.envinfo.available_cpus` (container
aware — cgroup quotas and CPU affinity masks are respected).

**Bit identity across modes.**  Every mode runs the *same*
:func:`repro.serving.engine.evaluate_group` on the same canonicalised host
tuples, and the engine's contract (group homogeneity, fixed-step
solvers, power-of-two width bucketing) fixes every float op and
its order regardless of which thread or process executes the call — so the
three modes return identical payloads, asserted by ``tests/test_serving.py``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
from typing import Any, Sequence

from repro.backend import Backend
from repro.serving.engine import evaluate_group
from repro.serving.requests import ServingRequest
from repro.utils.envinfo import pool_workers

__all__ = [
    "KernelExecutor",
    "InlineKernelExecutor",
    "PoolKernelExecutor",
    "create_executor",
]

#: Executor mode names accepted by :func:`create_executor` and the CLI.
EXECUTOR_MODES = ("inline", "thread", "process")


class KernelExecutor:
    """Where a scheduled group's batched kernel call runs.

    Subclasses implement :meth:`run`; ``concurrency`` tells the scheduler how
    many groups may usefully execute at once (its continuous-batching pump
    dispatches a new group the moment a slot frees up).
    """

    #: Mode tag (``inline`` / ``thread`` / ``process``), surfaced on ``/stats``.
    mode = "abstract"
    #: Number of groups that can execute simultaneously.
    concurrency = 1

    async def run(
        self, batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
    ) -> list[dict]:
        """Solve one homogeneous group; returns payloads in batch order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def stats(self) -> dict[str, Any]:
        """Mode and sizing, for ``/stats`` and the benchmark artifact."""
        return {"mode": self.mode, "concurrency": self.concurrency}


class InlineKernelExecutor(KernelExecutor):
    """Run groups synchronously on the event-loop thread (the default)."""

    mode = "inline"

    async def run(
        self, batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
    ) -> list[dict]:
        """Direct :func:`~repro.serving.engine.evaluate_group` call, no handoff."""
        return evaluate_group(batch, backend=backend)


class PoolKernelExecutor(KernelExecutor):
    """Run groups on ``max_workers`` threads or processes, off the event loop."""

    def __init__(self, mode: str, max_workers: int | None = None) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"pool mode must be 'thread' or 'process', not {mode!r}")
        self.mode = mode
        self.concurrency = pool_workers(max_workers)
        self._threads: concurrent.futures.ThreadPoolExecutor | None = None

    async def run(
        self, batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
    ) -> list[dict]:
        """Hand the group to a pool worker and await its payloads."""
        loop = asyncio.get_running_loop()
        if self.mode == "thread":
            if self._threads is None:
                self._threads = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.concurrency, thread_name_prefix="repro-serve"
                )
            return await loop.run_in_executor(
                self._threads, functools.partial(evaluate_group, batch, backend=backend)
            )
        # Imported here: the server's import graph stays free of multiprocessing.
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import executors

        # Backend handles do not pickle; workers resolve the name.
        name = backend if backend is None or isinstance(backend, str) else backend.name
        solve = functools.partial(evaluate_group, list(batch), backend=name)
        retries = 0
        while True:
            pool = executors._SHARED_POOL.acquire(self.concurrency, (evaluate_group,))
            try:
                return await loop.run_in_executor(pool, solve)
            except BrokenProcessPool:
                # A worker died: retry on a fresh pool.  An exception raised
                # by the kernel itself propagates unretried.
                executors._SHARED_POOL.discard(pool)
                retries += 1
                if retries > executors.MAX_RETRIES:
                    raise

    def close(self) -> None:
        """Shut the thread pool down; the shared process pool outlives the service."""
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)
            self._threads = None


def create_executor(
    mode: str | KernelExecutor | None = None, *, max_workers: int | None = None
) -> KernelExecutor:
    """Build a :class:`KernelExecutor` from a mode name (the CLI surface).

    ``mode`` is ``"inline"`` (default), ``"thread"`` or ``"process"``; an
    already-built executor passes through unchanged.  Pool modes default
    their worker count to :func:`~repro.utils.envinfo.available_cpus`.
    """
    if isinstance(mode, KernelExecutor):
        return mode
    name = (mode or "inline").lower()
    if name == "inline":
        return InlineKernelExecutor()
    if name in EXECUTOR_MODES:
        return PoolKernelExecutor(name, max_workers)
    raise ValueError(f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}")
