"""Continuous-batching scheduler: adaptive accumulation + admission control.

A fixed ``max_wait_ms`` window that holds *every* request fills batches
but ruins light-load latency: a lone request waits the full window.  The
:class:`ContinuousBatchScheduler` follows the vLLM-style rule *dispatch
immediately when idle, accumulate only under pressure*:

* **Idle → dispatch now.**  When nothing is in flight, the next event-loop
  tick dispatches whatever is queued (usually one request).  A lone request
  pays microseconds of scheduling, not the window.
* **Busy → accumulate, then dispatch the moment a worker frees.**  While
  groups execute on the :class:`~repro.serving.executor.KernelExecutor`,
  arrivals park in the pending queue.  Every group completion re-runs the
  pump, so a freed worker immediately picks up the batch that accumulated
  during execution — batch size adapts to service time, with ``max_batch``
  as the hard cap.
* **EWMA arrival-rate target.**  Between idle and saturated, a free worker
  dispatches early once ``pending >= clip(max_wait / tau, 1, max_batch)``
  requests are queued, where ``tau`` is an exponentially weighted moving
  average of the inter-arrival time: sparse traffic (large ``tau``) targets
  batch-of-one, bursts (small ``tau``) accumulate toward full batches.  A
  ``max_wait_ms`` backstop timer bounds how long the first queued request
  can wait for that target.
* **Admission control.**  The pending queue is bounded (``max_pending``);
  overflow raises :exc:`QueueFullError` carrying a ``retry_after`` estimate
  derived from the observed service rate, which the HTTP front maps to
  ``503`` + ``Retry-After``.  Queue-depth and latency histograms are kept
  for ``/stats``.
* **Encode once.**  Each computed answer is encoded to its response body
  where it settles (:func:`_encode_answer`); the cache, every single-flight
  waiter and the HTTP writer share those bytes, so a hit is never encoded
  again.  An answer holding a non-finite number or ``converged: false`` is
  refused there (:exc:`UnservableAnswerError`, HTTP ``422``) and not cached.

The bit-identity contract rests on grouping, packing and kernel dispatch
being exactly :func:`~repro.serving.engine.evaluate_group` on canonical host
tuples; the cache and single-flight layers sit in front of the queue, and a
failing group settles only its own callers.
"""

from __future__ import annotations

import asyncio
import bisect
import json
from typing import Any, Sequence

from repro.backend import Backend, resolve_backend
from repro.serving.cache import ResultCache
from repro.serving.engine import group_requests
from repro.serving.executor import KernelExecutor, create_executor
from repro.serving.requests import ServingRequest
from repro.utils.memo import plan_memo

__all__ = ["ContinuousBatchScheduler", "QueueFullError", "UnservableAnswerError"]

#: EWMA smoothing factor of the inter-arrival estimate (~ last 10 arrivals).
_EWMA_ALPHA = 0.2

#: A queued request, the futures of every caller waiting on it, its arrival time.
_Entry = tuple[ServingRequest, list[asyncio.Future], float]


class QueueFullError(RuntimeError):
    """Raised by :meth:`ContinuousBatchScheduler.submit` when admission fails.

    Attributes
    ----------
    retry_after:
        Suggested back-off in seconds, estimated from the observed service
        rate; the HTTP front surfaces it as a ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class UnservableAnswerError(ValueError):
    """A computed answer the service refuses to send (HTTP ``422``).

    Raised by :func:`_encode_answer` for an answer that holds a non-finite
    number or reports ``converged: false``; every caller waiting on the
    request receives it, and it is never cached.
    """


def _encode_answer(payload: dict) -> bytes:
    """The response body of one computed answer: strict JSON, UTF-8.

    Exactly ``json.dumps(payload, allow_nan=False).encode("utf-8")``.
    Raises :exc:`UnservableAnswerError` when the answer holds a non-finite
    number or ``"converged": false``; a payload that is not JSON-native
    raises ``TypeError`` (a bug, answered ``500``).
    """
    if payload.get("converged") is False:
        raise UnservableAnswerError("the equilibrium solver did not converge on this instance")
    try:
        return json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as error:
        raise UnservableAnswerError(f"the answer holds a non-finite number ({error})") from None


class _Histogram:
    """Fixed-bucket counting histogram (`le`-style upper bounds + overflow)."""

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.n = 0

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        self.counts[bisect.bisect_left(self.bounds, value)] += 1

    def as_dict(self) -> dict[str, Any]:
        buckets = {f"le_{bound:g}": count for bound, count in zip(self.bounds, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {
            "count": self.n,
            "mean": self.total / self.n if self.n else 0.0,
            "buckets": buckets,
        }


class ContinuousBatchScheduler:
    """Adaptive micro-batching with parallel group execution and backpressure.

    Parameters
    ----------
    max_batch:
        Hard cap on the number of requests one dispatch takes off the queue
        (and therefore on any kernel call's batch-row count).
    max_wait_ms:
        Backstop on accumulation: the first queued request is dispatched at
        the latest this many milliseconds after it arrived, even if the
        adaptive target was not reached.  It is **not** a fixed window — at
        light load dispatch happens on the next loop tick.
    cache:
        Optional :class:`~repro.serving.cache.ResultCache`; ``None`` disables
        caching.
    backend:
        Array backend the batched kernels run on (name, handle, or ``None``
        for the active default), resolved once here for every group.
    executor:
        A :class:`~repro.serving.executor.KernelExecutor`, a mode name
        (``"inline"`` / ``"thread"`` / ``"process"``), or ``None`` for
        inline.  Its ``concurrency`` is the number of groups that may
        execute at once.
    max_pending:
        Bound on the pending queue; beyond it :meth:`submit` raises
        :exc:`QueueFullError` (admission control).
    """

    def __init__(
        self,
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        cache: ResultCache | None = None,
        backend: Backend | str | None = None,
        executor: KernelExecutor | str | None = None,
        max_pending: int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.cache = cache
        self.backend = resolve_backend(backend)
        self.executor = create_executor(executor)
        self.max_pending = int(max_pending)
        # Callers share a request's waiter list; a cancelled caller cancels only its own.
        self._pending: list[_Entry] = []
        self._inflight: dict[str, list[asyncio.Future]] = {}
        self._tasks: set[asyncio.Task] = set()
        self._inflight_groups = 0
        self._pump_scheduled = False
        self._timer: asyncio.TimerHandle | None = None
        # Adaptive state: EWMA of inter-arrival and per-request service time.
        self._last_arrival: float | None = None
        self._ewma_interarrival: float | None = None
        self._ewma_service: float | None = None
        # Lifetime counters, reported by stats().
        self._n_requests = 0
        self._n_cache_hits = 0
        self._n_singleflight = 0
        self._n_batches = 0
        self._n_solved = 0
        self._largest_batch = 0
        self._n_rejected = 0
        self._queue_depth_histogram = _Histogram((0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512))
        self._latency_histogram = _Histogram((0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000))

    # ------------------------------------------------------------------ submit
    async def submit(self, request: ServingRequest) -> bytes:
        """Answer ``request`` with its response body, sharing work with concurrent callers.

        Resolution order: cache hit -> in-flight duplicate (single flight)
        -> bounded pending queue (:exc:`QueueFullError` beyond
        ``max_pending``) for the next dispatch.  The answer is the strict
        JSON encoding of :func:`~repro.serving.engine.evaluate_one`'s dict,
        byte for byte; a non-finite or unconverged answer raises
        :exc:`UnservableAnswerError` instead.
        """
        self._n_requests += 1
        key = request.cache_key
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self._n_cache_hits += 1
                return cached
        loop = asyncio.get_running_loop()
        waiters = self._inflight.get(key)
        if waiters is not None:
            self._n_singleflight += 1
        else:
            if len(self._pending) >= self.max_pending:
                self._n_rejected += 1
                raise QueueFullError(
                    f"pending queue is full ({self.max_pending} requests queued)",
                    retry_after=self._retry_after(),
                )
            now = loop.time()
            self._observe_arrival(now)
            self._queue_depth_histogram.observe(len(self._pending))
            waiters = self._inflight[key] = []
            self._pending.append((request, waiters, now))
            # Deferred one tick, so a burst scheduled in the same loop iteration
            # (asyncio.gather, several connections becoming readable together)
            # fully enqueues before the pump decides what to dispatch.
            self._schedule_pump(loop)
        future: asyncio.Future = loop.create_future()
        waiters.append(future)
        return await future

    # -------------------------------------------------------------------- pump
    def _schedule_pump(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        if not self._pump_scheduled:
            self._pump_scheduled = True
            (loop or asyncio.get_running_loop()).call_soon(self._pump)

    def _pump(self, *, worker_freed: bool = False, backstop: bool = False) -> None:
        """Dispatch pending requests per the continuous-batching rule."""
        self._pump_scheduled = False
        loop = asyncio.get_running_loop()
        while self._pending:
            idle = self._inflight_groups == 0
            slot_free = self._inflight_groups < self.executor.concurrency
            overdue = backstop or (
                loop.time() >= self._pending[0][2] + self.max_wait_ms / 1000.0
            )
            target_met = len(self._pending) >= self._accumulation_target()
            if idle or (slot_free and (worker_freed or overdue or target_met)):
                self._dispatch_event(loop)
                worker_freed = backstop = False
                continue
            break
        self._arm_backstop(loop)

    def _accumulation_target(self) -> int:
        """How many requests a free (non-idle) worker waits to accumulate.

        ``clip(max_wait / tau_ewma, 1, max_batch)``: the number of arrivals
        expected within the latency budget.  With no arrival history the
        target is 1 (dispatch immediately).
        """
        tau = self._ewma_interarrival
        if tau is None or tau <= 0.0:
            return 1
        target = (self.max_wait_ms / 1000.0) / tau
        return max(1, min(self.max_batch, int(target)))

    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            dt = max(0.0, now - self._last_arrival)
            if self._ewma_interarrival is None:
                self._ewma_interarrival = dt
            else:
                self._ewma_interarrival += _EWMA_ALPHA * (dt - self._ewma_interarrival)
        self._last_arrival = now

    def _retry_after(self) -> float:
        """Seconds until the queue has plausibly drained one full batch."""
        service = self._ewma_service if self._ewma_service else 0.05
        depth_in_batches = max(1.0, len(self._pending) / float(self.max_batch))
        return min(30.0, service * depth_in_batches / max(1, self.executor.concurrency))

    # ---------------------------------------------------------------- dispatch
    def _dispatch_event(self, loop: asyncio.AbstractEventLoop) -> None:
        """Take up to ``max_batch`` requests FIFO and launch their groups."""
        event = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._n_batches += 1
        self._n_solved += len(event)
        self._largest_batch = max(self._largest_batch, len(event))
        requests = [request for request, _, _ in event]
        for indices in group_requests(requests).values():
            group = [event[i] for i in indices]
            # Synchronous accounting: the pump sees this group occupying a
            # slot before the task first runs, so one pump pass cannot
            # over-dispatch past the executor's concurrency.
            self._inflight_groups += 1
            task = loop.create_task(self._run_group(group))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_group(self, group: list[_Entry]) -> None:
        """Execute one homogeneous group and settle its callers."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        requests = [request for request, _, _ in group]
        try:
            payloads = await self.executor.run(requests, backend=self.backend)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            for request, waiters, enqueued in group:
                self._settle(request, waiters, enqueued, error=error)
        else:
            for (request, waiters, enqueued), payload in zip(group, payloads):
                self._settle(request, waiters, enqueued, payload=payload)
        finally:
            finished = loop.time()
            per_request = (finished - started) / max(1, len(group))
            if self._ewma_service is None:
                self._ewma_service = per_request
            else:
                self._ewma_service += _EWMA_ALPHA * (per_request - self._ewma_service)
            self._inflight_groups -= 1
            # A worker just freed: dispatch whatever accumulated meanwhile.
            if self._pending:
                self._pump(worker_freed=True)

    def _settle(
        self,
        request: ServingRequest,
        waiters: list[asyncio.Future],
        enqueued: float,
        *,
        payload: dict | None = None,
        error: Exception | None = None,
    ) -> None:
        """Encode the answer once and hand it to the cache and every waiter.

        The encoded body is what the cache holds and what each caller's
        :meth:`submit` returns.  A refused or unencodable answer settles
        every waiter with the same error and leaves the cache untouched.
        """
        self._inflight.pop(request.cache_key, None)
        self._latency_histogram.observe(
            (asyncio.get_running_loop().time() - enqueued) * 1000.0
        )
        body = None
        if error is None:
            try:
                body = _encode_answer(payload)
            except (TypeError, ValueError) as refusal:
                error = refusal
            else:
                if self.cache is not None:
                    self.cache.put(request.cache_key, body)
        for future in waiters:
            if future.done():  # a cancelled caller
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(body)

    # ---------------------------------------------------------------- backstop
    def _arm_backstop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bound the wait of the oldest queued request by ``max_wait_ms``."""
        if not self._pending:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        if self._timer is not None:
            return
        delay = self._pending[0][2] + self.max_wait_ms / 1000.0 - loop.time()
        if delay <= 0:
            # Already overdue with every worker busy (the pump would have
            # dispatched otherwise): the next group completion dispatches,
            # so arming a zero-delay timer would only spin the loop.
            return
        self._timer = loop.call_later(delay, self._on_backstop)

    def _on_backstop(self) -> None:
        self._timer = None
        self._pump(backstop=True)

    # --------------------------------------------------------------- lifecycle
    async def drain(self) -> None:
        """Dispatch everything queued and wait for every in-flight answer."""
        loop = asyncio.get_running_loop()
        while self._pending:
            self._dispatch_event(loop)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain, stop the backstop timer and release the executor (idempotent)."""
        await self.drain()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.executor.close()

    # ------------------------------------------------------------------- stats
    def stats(self) -> dict[str, Any]:
        """Lifetime counters: scheduling, admission, cache and memo behaviour.

        ``batches`` counts dispatch events and ``largest_batch`` the largest
        one; further keys cover the executor, admission control, the
        queue-depth/latency histograms and the pmf-plan memo.
        """
        return {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_pending": self.max_pending,
            "requests": self._n_requests,
            "cache_hits": self._n_cache_hits,
            "singleflight_hits": self._n_singleflight,
            "batches": self._n_batches,
            "solved": self._n_solved,
            "largest_batch": self._largest_batch,
            "mean_batch_size": self._n_solved / self._n_batches if self._n_batches else 0.0,
            "rejected": self._n_rejected,
            "pending": len(self._pending),
            "inflight": len(self._inflight),
            "inflight_groups": self._inflight_groups,
            "accumulation_target": self._accumulation_target(),
            "ewma_interarrival_ms": (
                self._ewma_interarrival * 1000.0 if self._ewma_interarrival else None
            ),
            "ewma_service_ms": self._ewma_service * 1000.0 if self._ewma_service else None,
            "queue_depth": self._queue_depth_histogram.as_dict(),
            "latency_ms": self._latency_histogram.as_dict(),
            "executor": self.executor.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "plan_memo": plan_memo.stats(),
        }
