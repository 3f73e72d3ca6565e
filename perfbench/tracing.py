"""Span recording around the program's public functions, owned by the benchmark.

The traced runs never edit the program: they replace a public name in the
namespace that *calls* it (``repro.serving.engine.ifd_batch``,
``repro.batch.mechanism.ifd_batch``, ...) with a wrapper that records one span
per call.  A span is ``(id, name, start_ns, end_ns, parent_id, request_id,
detail)``; the parent is whatever span was open in the same context when the
call began, and the request id is the digest of the HTTP body being served.
Spans stay in memory and are written out when the run ends.  Each process
installs its hooks once.

Sweep worker processes record into their own recorder and send their spans
back to the parent with each task output (:func:`traced_execute_chunk`).
"""

from __future__ import annotations

import collections
import contextvars
import functools
import hashlib
import itertools
import json
import os
import time
import types
from typing import Any, Callable

_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_parent", default=None)
_REQUEST: contextvars.ContextVar[str | None] = contextvars.ContextVar("perfbench_request", default=None)


def body_digest(body: bytes) -> str:
    """The request id shared by the load generator and the traced server."""
    return hashlib.blake2b(body, digest_size=8).hexdigest()


class Recorder:
    """In-memory span list plus plain counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._ids = itertools.count(1)
        # Span ids stay unique across the processes of one sweep.
        self._base = os.getpid() * 1_000_000_000

    def new_id(self) -> int:
        return self._base + next(self._ids)

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def wrap(recorder: Recorder, owner: Any, attr: str, name: str,
         detail: Callable[[tuple, dict, Any], Any] | None = None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``detail(args, kwargs, result)`` may attach a JSON-native value to the span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span_id = recorder.new_id()
        parent = _PARENT.get()
        token = _PARENT.set(span_id)
        result = None
        start = time.perf_counter_ns()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            _PARENT.reset(token)
            extra = detail(args, kwargs, result) if detail is not None else None
            recorder.spans.append((span_id, name, start, end, parent, _REQUEST.get(), extra))

    setattr(owner, attr, traced)


def wrap_async(recorder: Recorder, owner: Any, attr: str, name: str, *,
               request: Callable[[tuple], str | None] | None = None,
               members: Callable[[tuple], list] | None = None) -> None:
    """Coroutine counterpart of :func:`wrap`.

    ``request(args)`` opens a request scope for the call.  A ``members`` span
    serves a whole group of requests: it has no parent and no request of its
    own, and lists the request ids of the group instead.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def traced(*args: Any, **kwargs: Any) -> Any:
        span_id = recorder.new_id()
        parent = None if members is not None else _PARENT.get()
        token = _PARENT.set(span_id)
        request_token = None
        if request is not None:
            request_token = _REQUEST.set(request(args))
        elif members is not None:
            request_token = _REQUEST.set(None)
        extra = members(args) if members is not None else None
        start = time.perf_counter_ns()
        try:
            return await original(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            recorder.spans.append((span_id, name, start, end, parent, _REQUEST.get(), extra))
            if request_token is not None:
                _REQUEST.reset(request_token)
            _PARENT.reset(token)

    setattr(owner, attr, traced)


def count_calls(recorder: Recorder, owner: Any, attr: str, name: str) -> None:
    """Count calls of ``owner.attr`` without a span (for inner-loop steps)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def counted(*args: Any, **kwargs: Any) -> Any:
        recorder.counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)


def _ifd_rows(args: tuple, kwargs: dict, result: Any) -> int:
    """(instance, k) cells of one ``ifd_batch`` call."""
    values = args[0] if args else kwargs["values"]
    k_grid = args[1] if len(args) > 1 else kwargs["k_grid"]
    batch = getattr(values, "batch_size", None) or len(values)
    columns = 1 if isinstance(k_grid, int) else len(k_grid)
    return int(batch) * int(columns)


def install_kernel_hooks(recorder: Recorder) -> None:
    """Kernel-layer hooks shared by the server and sweep workers."""
    import repro.batch.ifd as batch_ifd

    count_calls(recorder, batch_ifd, "binomial_pmf_tensor", "kernel.pmf.calls")


def install_serving_hooks(recorder: Recorder) -> None:
    """Wrap every serving-path layer boundary (run inside the server process).

    Besides the nested layer spans, three steps of the request path are timed
    on their own, so that the path's directly timed parts can be compared
    with what the client sees: the body decode (``http.decode``), the cache
    lookup (``cache.get``) and the response encode-and-write
    (``http.respond``).
    """
    import repro.batch.padding as padding
    import repro.serving.cache as cache
    import repro.serving.engine as engine
    import repro.serving.executor as executor
    import repro.serving.http as http
    import repro.serving.requests as requests
    import repro.serving.scheduler as scheduler

    install_kernel_hooks(recorder)

    # ``_respond`` runs after ``dispatch`` returns, in the same connection
    # task, so the request id set here is still in that task's context then.
    answering: contextvars.ContextVar[str | None] = contextvars.ContextVar(
        "perfbench_answering", default=None)
    dispatch = http.EquilibriumService.dispatch

    async def labelled_dispatch(self: Any, method: str, path: str, body: bytes) -> Any:
        answering.set(body_digest(body) if body else None)
        return await dispatch(self, method, path, body)

    http.EquilibriumService.dispatch = labelled_dispatch
    wrap_async(recorder, http.EquilibriumService, "dispatch", "http.dispatch",
               request=lambda args: body_digest(args[3]) if args[3] else None)
    box = types.SimpleNamespace(respond=http.EquilibriumService._respond)
    wrap_async(recorder, box, "respond", "http.respond", request=lambda args: answering.get())
    http.EquilibriumService._respond = staticmethod(box.respond)
    codec = types.SimpleNamespace(loads=json.loads, dumps=json.dumps,
                                  JSONDecodeError=json.JSONDecodeError)
    wrap(recorder, codec, "loads", "http.decode")
    http.json = codec

    wrap(recorder, http, "parse_request", "requests.parse")
    wrap(recorder, requests, "content_key", "requests.cache_key")
    wrap(recorder, cache.ResultCache, "get", "cache.get")

    # A group span names its member requests: submit remembers which request
    # id each request object belongs to while it is in flight.
    in_flight: dict[int, str | None] = {}
    submit = scheduler.ContinuousBatchScheduler.submit

    async def remembering_submit(self: Any, request: Any) -> Any:
        in_flight[id(request)] = _REQUEST.get()
        try:
            return await submit(self, request)
        finally:
            in_flight.pop(id(request), None)

    scheduler.ContinuousBatchScheduler.submit = remembering_submit
    wrap_async(recorder, scheduler.ContinuousBatchScheduler, "submit", "scheduler.submit")
    wrap_async(recorder, executor.InlineKernelExecutor, "run", "executor.run",
               members=lambda args: [in_flight.get(id(r)) for r in args[1]])
    wrap(recorder, executor, "evaluate_group", "engine.evaluate_group")

    box = types.SimpleNamespace(from_instances=padding.PaddedValues.from_instances)
    wrap(recorder, box, "from_instances", "engine.pack")
    padding.PaddedValues.from_instances = staticmethod(box.from_instances)

    wrap(recorder, engine, "ifd_batch", "kernel.ifd_batch", detail=_ifd_rows)
    for attr in ("sigma_star_batch", "coverage_batch"):
        wrap(recorder, engine, attr, f"kernel.{attr}")


# -- sweep ---------------------------------------------------------------------
# Pool workers fork from the sweep process; each keeps one recorder of its own
# and hands its spans back with every task output.

_WORKER_RECORDER: Recorder | None = None


class Carried:
    """A task output travelling back from a worker together with its spans."""

    def __init__(self, value: Any, spans: list[tuple], counts: dict[str, int]) -> None:
        self.value = value
        self.spans = spans
        self.counts = counts


def _worker_recorder() -> Recorder:
    global _WORKER_RECORDER
    if _WORKER_RECORDER is None:
        import repro.analysis.figure1 as figure1
        import repro.analysis.stochastic_experiments as stochastic
        import repro.analysis.sweeps as sweeps
        import repro.batch.mechanism as batch_mechanism

        recorder = Recorder()
        install_kernel_hooks(recorder)
        wrap(recorder, batch_mechanism, "ifd_batch", "kernel.ifd_batch", detail=_ifd_rows)
        wrap(recorder, figure1, "ideal_free_distribution", "task.core_ifd")
        wrap(recorder, figure1, "welfare_optimal_strategy", "task.core_welfare")
        for attr in ("expected_coverage_time_batch", "coverage_time_cdf_batch",
                     "partial_coverage_time_batch"):
            wrap(recorder, stochastic, attr, "kernel.coverage_times")
        wrap(recorder, stochastic, "compare_policies_batch", "kernel.compare_policies_batch")
        wrap(recorder, sweeps.DynamicsEngine, "run", "kernel.dynamics")
        _WORKER_RECORDER = recorder
    return _WORKER_RECORDER


def traced_execute_chunk(chunk: Any) -> list[tuple[int, Carried]]:
    """Stand-in for ``repro.experiments.executors.execute_chunk`` in workers."""
    from repro.experiments.executors import execute_payload
    from repro.utils.memo import plan_memo

    recorder = _worker_recorder()
    results = []
    for payload in chunk:
        memo = plan_memo.stats()
        span_id = recorder.new_id()
        token = _PARENT.set(span_id)
        start = time.perf_counter_ns()
        try:
            value = execute_payload(payload)
        finally:
            end = time.perf_counter_ns()
            _PARENT.reset(token)
            recorder.spans.append((span_id, "task", start, end, None, None, os.getpid()))
        after = plan_memo.stats()
        recorder.counts["memo.hits"] += after["hits"] - memo["hits"]
        recorder.counts["memo.misses"] += after["misses"] - memo["misses"]
        counts = dict(recorder.counts)
        recorder.counts.clear()
        results.append((payload.index, Carried(value, recorder.drain(), counts)))
    return results


def install_sweep_hooks(recorder: Recorder) -> None:
    """Sweep-process hooks: executor hand-off, pool retries and store writes."""
    import repro.experiments.executors as executors
    import repro.experiments.store as store

    executors.execute_chunk = traced_execute_chunk
    run = executors.ProcessExecutor.run

    def unwrapping_run(self: Any, payloads: Any, *, chunk_size: int = 1) -> Any:
        for index, carried in run(self, payloads, chunk_size=chunk_size):
            recorder.spans.extend(carried.spans)
            recorder.counts.update(carried.counts)
            yield index, carried.value

    executors.ProcessExecutor.run = unwrapping_run

    pool_class = executors.ProcessPoolExecutor

    def counting_pool(*args: Any, **kwargs: Any) -> Any:
        pool = pool_class(*args, **kwargs)
        submit = pool.submit

        def counted_submit(*a: Any, **k: Any) -> Any:
            recorder.counts["executors.submits"] += 1
            return submit(*a, **k)

        pool.submit = counted_submit  # type: ignore[method-assign]
        return pool

    executors.ProcessPoolExecutor = counting_pool  # type: ignore[misc]

    def put_bytes(args: tuple, kwargs: dict, result: Any) -> int:
        return args[0].path_for(args[1]).stat().st_size

    wrap(recorder, store.ExperimentStore, "put", "store.put", detail=put_bytes)
