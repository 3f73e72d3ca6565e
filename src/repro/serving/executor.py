"""Off-loop kernel execution: inline, thread-pool and process-pool workers.

The scheduler (:mod:`repro.serving.scheduler`) turns queued requests into
homogeneous groups; a :class:`KernelExecutor` decides *where* each group's
batched kernel call runs:

* :class:`InlineKernelExecutor` — on the event-loop thread.  One group at a
  time; a kernel call blocks the loop for its duration.  Zero overhead, the
  right default for a single-CPU host and the reference the other modes must
  match bit for bit.
* :class:`ThreadKernelExecutor` — a ``ThreadPoolExecutor``.  The event loop
  stays responsive (accepting connections, parsing requests and accumulating
  the next batch *while* kernels run), and NumPy's BLAS/ufunc inner loops
  release the GIL, so groups overlap on multi-core hosts.
* :class:`ProcessKernelExecutor` — a ``ProcessPoolExecutor`` with **warm
  per-worker backend state**: each worker resolves the backend handle and
  imports the kernel stack once at startup (initializer), so steady-state
  group dispatch only pays request pickling, never re-import or re-resolve.
  Full parallelism regardless of the GIL, at IPC cost per group.

Pool sizes default to :func:`repro.utils.envinfo.available_cpus` (container
aware — cgroup quotas and CPU affinity masks are respected).

**Bit identity across modes.**  Every mode runs the *same*
:func:`repro.serving.engine.evaluate_group` on the same canonicalised host
tuples, and the engine's contract (group homogeneity, fixed-step
solvers, power-of-two width bucketing) fixes every float op and
its order regardless of which thread or process executes the call — so the
three modes return identical payloads, asserted by the benchmark gate and
``tests/test_serving.py``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
from typing import Any, Sequence

from repro.backend import Backend
from repro.serving.engine import evaluate_group
from repro.serving.requests import ServingRequest
from repro.utils.envinfo import available_cpus

__all__ = [
    "KernelExecutor",
    "InlineKernelExecutor",
    "ThreadKernelExecutor",
    "ProcessKernelExecutor",
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

    @property
    def concurrency(self) -> int:
        """Number of groups that can execute simultaneously."""
        raise NotImplementedError

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

    @property
    def concurrency(self) -> int:
        """Always ``1``: the loop thread is the only worker."""
        return 1

    async def run(
        self, batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
    ) -> list[dict]:
        """Direct :func:`~repro.serving.engine.evaluate_group` call, no handoff."""
        return evaluate_group(batch, backend=backend)


class ThreadKernelExecutor(KernelExecutor):
    """Run groups on a thread pool; the event loop never blocks on a kernel."""

    mode = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = int(max_workers) if max_workers else available_cpus()
        if self._max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def concurrency(self) -> int:
        """The thread-pool size."""
        return self._max_workers

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self._max_workers, thread_name_prefix="repro-serve"
            )
        return self._pool

    async def run(
        self, batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
    ) -> list[dict]:
        """Hand the group to a pool thread and await its payloads."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._ensure_pool(), functools.partial(evaluate_group, batch, backend=backend)
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


# -- process-pool plumbing ---------------------------------------------------
# Workers hold one resolved backend handle (warm state), established by the
# initializer.  Backends cross the process boundary by *name* — handles wrap
# module namespaces and device objects that do not pickle.

_WORKER_BACKEND: Any = None
_WORKER_SPEC: str | None = None


def _warm_worker(spec: str | None) -> None:
    """Process-pool initializer: resolve the backend and import the kernels once."""
    global _WORKER_BACKEND, _WORKER_SPEC
    from repro.backend import resolve_backend
    import repro.serving.engine  # noqa: F401 - imports the serving kernels

    _WORKER_SPEC = spec
    _WORKER_BACKEND = resolve_backend(spec)


def _solve_group_in_worker(batch: Sequence[ServingRequest], spec: str | None) -> list[dict]:
    """The per-group body executed inside a warm pool worker."""
    backend = _WORKER_BACKEND if spec == _WORKER_SPEC else spec
    return evaluate_group(batch, backend=backend)


def _backend_spec(backend: Backend | str | None) -> str | None:
    """The picklable spelling of a backend argument (handles go by name)."""
    if backend is None or isinstance(backend, str):
        return backend
    return backend.name


class ProcessKernelExecutor(KernelExecutor):
    """Run groups on a process pool with warm per-worker backend state."""

    mode = "process"

    def __init__(
        self, max_workers: int | None = None, *, backend: Backend | str | None = None
    ) -> None:
        self._max_workers = int(max_workers) if max_workers else available_cpus()
        if self._max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._spec = _backend_spec(backend)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    @property
    def concurrency(self) -> int:
        """The process-pool size."""
        return self._max_workers

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._max_workers,
                initializer=_warm_worker,
                initargs=(self._spec,),
            )
        return self._pool

    async def run(
        self, batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
    ) -> list[dict]:
        """Pickle the group to a warm worker and await its payloads."""
        spec = _backend_spec(backend) if backend is not None else self._spec
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._ensure_pool(), functools.partial(_solve_group_in_worker, list(batch), spec)
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


def create_executor(
    mode: str | KernelExecutor | None = None,
    *,
    max_workers: int | None = None,
    backend: Backend | str | None = None,
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
    if name == "thread":
        return ThreadKernelExecutor(max_workers)
    if name == "process":
        return ProcessKernelExecutor(max_workers, backend=backend)
    raise ValueError(f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}")
