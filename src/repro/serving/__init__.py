"""Online equilibrium service: continuous batching + content-addressed cache.

The batch layer (:mod:`repro.batch`) amortises per-call overhead across the
rows of one caller's grid; this package amortises it across *callers*.  A
persistent asyncio service admits concurrent solve/sweep/mechanism/
coverage-times requests into a bounded queue, dispatches immediately when
the kernels are idle and accumulates only while they are busy (continuous
batching — a lone request at low load never waits for companions), packs
each dispatch into shared kernel calls, and answers each caller with its
slice — bit-identical to what a direct batch-of-one call of the public
kernels returns (see :mod:`repro.serving.engine` for why).  Kernel calls can
run inline on the event loop or off-loop on a thread pool or the
interpreter's shared process pool (:mod:`repro.serving.executor`); either
way the contract holds.  Repeated questions never reach a kernel at all: a
content-addressed LRU cache keyed by the canonical instance hash
(:mod:`repro.utils.canonical`) answers them in O(lookup), single-flight
dedup collapses identical in-flight requests into one computation, and a
cross-call plan memo (:mod:`repro.utils.memo`) reuses the binomial-PMF
combinatorics across batches.  When the pending queue fills, admission
control sheds load with ``503`` + ``Retry-After`` instead of queueing
without bound.

Layers
------
:mod:`repro.serving.requests`
    Canonicalised request models (``solve`` / ``sweep`` / ``mechanism`` /
    ``coverage-times``).
:mod:`repro.serving.engine`
    Grouping + batched evaluation; the bit-identity contract.
:mod:`repro.serving.cache`
    Bounded LRU cache of encoded response bodies, with hit/miss/eviction
    and byte counters.
:mod:`repro.serving.scheduler`
    Continuous-batching scheduler: adaptive accumulation, bounded admission,
    single-flight dedup, queue-depth/latency histograms; encodes each
    computed answer once and refuses non-finite or unconverged ones.
:mod:`repro.serving.executor`
    Kernel execution strategies: inline, thread pool, shared process pool.
:mod:`repro.serving.http`
    The HTTP front: a dependency-free asyncio server (``repro-dispersal
    serve``).

Benchmarked by perfbench's ``serve-light`` workload (``perfbench/run.py``):
latency and throughput over HTTP, gated by the bounds in ``BENCHMARK.json``.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "ContinuousBatchScheduler": ".scheduler",
    "QueueFullError": ".scheduler",
    "UnservableAnswerError": ".scheduler",
    "ResultCache": ".cache",
    "EquilibriumService": ".http",
    "RunningServer": ".http",
    "ServingRequest": ".requests",
    "SolveRequest": ".requests",
    "SweepRequest": ".requests",
    "MechanismRequest": ".requests",
    "CoverageTimeRequest": ".requests",
    "parse_request": ".requests",
    "evaluate_group": ".engine",
    "evaluate_one": ".engine",
    "evaluate_requests": ".engine",
    "group_requests": ".engine",
    "EXECUTOR_MODES": ".executor",
    "KernelExecutor": ".executor",
    "InlineKernelExecutor": ".executor",
    "PoolKernelExecutor": ".executor",
    "create_executor": ".executor",
    "serve_forever": ".http",
    "start_server": ".http",
})
