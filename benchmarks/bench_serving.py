"""Load-generator benchmark for the online equilibrium service.

Closed-loop concurrent clients drive the serving layer in-process and the
script writes ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_serving.py --output BENCH_serving.json

Five phases:

* **naive** — every request of the workload is solved one at a time through
  the direct batch-of-one path (:func:`repro.serving.engine.evaluate_one`),
  i.e. what a per-request service without batching would do;
* **latency-vs-load curve** — the same workload driven through a
  :class:`~repro.serving.scheduler.ContinuousBatchScheduler` (cache
  disabled, so the gain measured is batching, not memoisation) at three
  closed-loop regimes: **low** (1 client — continuous batching must not tax
  a lone caller, gated by ``--max-latency-ratio``), **medium**
  (``--concurrency``/4 clients) and **saturating** (``--concurrency``
  clients — where accumulation pays, gated by ``--min-throughput-ratio``);
  per-request latencies give p50/p99 per regime;
* **executor identity** — a workload slice solved under every executor mode
  (inline / thread / process) and asserted payload-equal, exercising the
  bit-identity contract across execution strategies;
* **plan memo** — the same solve requests with the cross-call binomial-PMF
  plan memo enabled and disabled: answers must match elementwise and the
  enabled run must show a nonzero hit rate;
* **warm cache** — an expensive mechanism request is solved once (miss) and
  then re-requested with fresh request objects (parse + hash + LRU lookup
  each time), measuring the end-to-end warm-hit latency.

Every scheduled answer is asserted equal to the naive answer for the same
request — the service's bit-identity contract — so the artifact cannot
report a fast wrong answer.

The script exits non-zero when saturated throughput falls below
``--min-throughput-ratio`` times naive throughput (default 3x), when the
low-load p50 exceeds ``--max-latency-ratio`` times the naive p50 (default
1.5x — continuous batching must stay out of the way at low load), when the
warm-cache speedup falls below ``--min-cache-speedup`` (default 100x), or
when the plan memo records no hits — the acceptance bars the serving layer
was built against.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.values import SiteValues
from repro.serving.cache import ResultCache
from repro.serving.engine import evaluate_one
from repro.serving.executor import EXECUTOR_MODES
from repro.serving.requests import MechanismRequest, ServingRequest, SolveRequest, SweepRequest
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.utils.envinfo import environment_metadata
from repro.utils.memo import plan_memo

SEED = 20180503

#: Workload shape: ragged instances in the size range the experiment grids
#: use (all inside one power-of-two width bucket, see
#: ``ServingRequest.pad_width``), solve requests over two player counts,
#: sweeps over the analysis k-grid.  Requests only coalesce into one kernel
#: call when they share a ``group_key`` (kind, policy, ``k`` signature,
#: width bucket), so the group diversity here — 2 solve groups + 1 sweep
#: group — is part of what the benchmark measures: a maximally diverse
#: workload would degrade towards the naive path, a single-group workload
#: would overstate the win.
M_RANGE = (65, 128)
SOLVE_K_CHOICES = (3, 8)
SWEEP_K_GRID = (2, 3, 5, 8, 13, 21)

#: The warm-cache probe: one mechanism comparison whose IFD bisections make
#: the miss expensive enough that the hit/miss contrast is unambiguous.
CACHE_PROBE_M = 60
CACHE_PROBE_K = 6
CACHE_PROBE_POLICIES = ("exclusive", "sharing")

#: The plan-memo probe: sharing-policy solves, each of which stages one
#: binomial-PMF plan for the IFD solver's final check; every solve after the
#: first reuses it from the memo.
MEMO_PROBE_M = 24
MEMO_PROBE_K = 5
MEMO_PROBE_REQUESTS = 8


def build_workload(n_requests: int, rng: np.random.Generator) -> list[ServingRequest]:
    """Distinct solve/sweep requests (no duplicates, so caching cannot help)."""
    requests: list[ServingRequest] = []
    sizes = rng.integers(M_RANGE[0], M_RANGE[1], size=n_requests)
    for index, m in enumerate(sizes):
        values = SiteValues.random(int(m), rng)
        if index % 2 == 0:
            k = int(SOLVE_K_CHOICES[index % len(SOLVE_K_CHOICES)])
            requests.append(SolveRequest(values.as_array(), k=k, policy="exclusive"))
        else:
            requests.append(SweepRequest(values.as_array(), k_grid=SWEEP_K_GRID))
    return requests


def run_naive(requests: list[ServingRequest]) -> tuple[float, list[float], list[dict]]:
    """Per-request direct solving; returns (seconds, latencies, answers)."""
    latencies: list[float] = []
    answers: list[dict] = []
    start = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        answers.append(evaluate_one(request))
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies, answers


async def _client(
    scheduler: ContinuousBatchScheduler,
    requests: list[ServingRequest],
    latencies: list[float],
    answers: dict[int, dict],
    offsets: list[int],
) -> None:
    """One closed-loop client: submit, await, record, next."""
    for index in offsets:
        t0 = time.perf_counter()
        answers[index] = await scheduler.submit(requests[index])
        latencies.append(time.perf_counter() - t0)


async def run_scheduled(
    requests: list[ServingRequest],
    concurrency: int,
    max_batch: int,
    max_wait_ms: float,
    *,
    executor: str | None = None,
) -> tuple[float, list[float], dict[int, dict], dict]:
    """The same workload through the scheduler under closed-loop concurrency."""
    scheduler = ContinuousBatchScheduler(
        max_batch=max_batch, max_wait_ms=max_wait_ms, cache=None, executor=executor
    )
    latencies: list[float] = []
    answers: dict[int, dict] = {}
    # Round-robin assignment keeps every client busy until the tail.
    offsets = [list(range(c, len(requests), concurrency)) for c in range(concurrency)]
    start = time.perf_counter()
    await asyncio.gather(
        *(_client(scheduler, requests, latencies, answers, chunk) for chunk in offsets)
    )
    elapsed = time.perf_counter() - start
    await scheduler.close()
    return elapsed, latencies, answers, scheduler.stats()


async def run_executor_identity(requests: list[ServingRequest]) -> dict:
    """Solve one workload slice under every executor mode; assert payload equality."""
    answers: dict[str, list[dict]] = {}
    seconds: dict[str, float] = {}
    for mode in EXECUTOR_MODES:
        scheduler = ContinuousBatchScheduler(
            max_batch=16, max_wait_ms=2.0, cache=None, executor=mode
        )
        t0 = time.perf_counter()
        answers[mode] = list(
            await asyncio.gather(*(scheduler.submit(request) for request in requests))
        )
        seconds[mode] = time.perf_counter() - t0
        await scheduler.close()
    for mode in EXECUTOR_MODES[1:]:
        assert answers[mode] == answers["inline"], (
            f"executor mode {mode!r} returned different payloads than inline"
        )
    return {
        "requests": len(requests),
        "modes": list(EXECUTOR_MODES),
        "seconds": seconds,
        "identical": True,
    }


def run_memo_phase() -> dict:
    """Plan-memo probe: memo-on vs memo-off answers identical, nonzero hit rate."""
    rng = np.random.default_rng(SEED + 13)
    requests = [
        SolveRequest(
            SiteValues.random(MEMO_PROBE_M, rng).as_array(), k=MEMO_PROBE_K, policy="sharing"
        )
        for _ in range(MEMO_PROBE_REQUESTS)
    ]
    plan_memo.clear()
    plan_memo.reset_counters()
    t0 = time.perf_counter()
    answers_on = [evaluate_one(request) for request in requests]
    memo_on_seconds = time.perf_counter() - t0
    stats = plan_memo.stats()
    with plan_memo.disabled():
        t0 = time.perf_counter()
        answers_off = [evaluate_one(request) for request in requests]
        memo_off_seconds = time.perf_counter() - t0
    assert answers_on == answers_off, "plan memo changed an answer"
    return {
        "probe": {"m": MEMO_PROBE_M, "k": MEMO_PROBE_K, "policy": "sharing"},
        "requests": MEMO_PROBE_REQUESTS,
        "memo_on_seconds": memo_on_seconds,
        "memo_off_seconds": memo_off_seconds,
        "identical_with_memo_off": True,
        "stats": stats,
    }


async def run_cache_phase(n_hits: int) -> dict:
    """Warm-cache probe: one expensive miss, then ``n_hits`` fresh-object hits."""
    rng = np.random.default_rng(SEED + 7)
    values = SiteValues.random(CACHE_PROBE_M, rng).as_array()

    def probe() -> MechanismRequest:
        # A fresh object per hit: the timing includes request canonicalisation
        # and key hashing, i.e. the full warm path a served request takes.
        return MechanismRequest(values, k=CACHE_PROBE_K, policies=CACHE_PROBE_POLICIES)

    cache = ResultCache(64)
    scheduler = ContinuousBatchScheduler(max_batch=8, max_wait_ms=0.0, cache=cache)
    t0 = time.perf_counter()
    miss_answer = await scheduler.submit(probe())
    miss_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(n_hits):
        hit_answer = await scheduler.submit(probe())
    hit_seconds = (time.perf_counter() - t0) / n_hits
    assert hit_answer == miss_answer, "cache returned a different answer"
    await scheduler.close()
    return {
        "probe": {
            "m": CACHE_PROBE_M,
            "k": CACHE_PROBE_K,
            "policies": list(CACHE_PROBE_POLICIES),
        },
        "miss_seconds": miss_seconds,
        "hit_seconds": hit_seconds,
        "speedup": miss_seconds / hit_seconds,
        "hits_timed": n_hits,
        "stats": cache.stats(),
    }


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1e3)


def run_serving_bench(
    output: Path,
    *,
    n_requests: int = 256,
    concurrency: int = 32,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    repeats: int = 3,
    n_cache_hits: int = 500,
    min_throughput_ratio: float = 3.0,
    max_latency_ratio: float = 1.5,
    min_cache_speedup: float = 100.0,
) -> tuple[bool, list[str]]:
    """Run all phases, write the artifact, return (ok, report lines)."""
    rng = np.random.default_rng(SEED)
    requests = build_workload(n_requests, rng)

    evaluate_one(requests[0])  # warm-up: first-call numpy/dispatch overhead

    naive_seconds, naive_latencies, naive_answers = None, None, None
    for _ in range(max(1, repeats)):
        seconds, latencies, answers = run_naive(requests)
        if naive_seconds is None or seconds < naive_seconds:
            naive_seconds, naive_latencies, naive_answers = seconds, latencies, answers

    # Latency-vs-load curve: best-of-repeats per closed-loop regime.  The
    # saturating regime doubles as the legacy throughput comparison.
    regimes = (
        ("low", 1),
        ("medium", max(2, concurrency // 4)),
        ("saturating", concurrency),
    )
    load_curve: dict[str, dict] = {}
    for name, clients in regimes:
        best = None
        for _ in range(max(1, repeats)):
            seconds, latencies, answers, stats = asyncio.run(
                run_scheduled(requests, clients, max_batch, max_wait_ms)
            )
            if best is None or seconds < best[0]:
                best = (seconds, latencies, answers, stats)
        seconds, latencies, answers, stats = best
        # Bit-identity at every load point: each scheduled answer equals the
        # direct per-request one.
        for index, naive_answer in enumerate(naive_answers):
            assert answers[index] == naive_answer, (
                f"scheduled answer differs from direct solve for request {index} "
                f"under the {name} regime"
            )
        load_curve[name] = {
            "concurrency": clients,
            "seconds": seconds,
            "throughput_rps": len(requests) / seconds,
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p99_ms": percentile_ms(latencies, 99),
            "batches": stats["batches"],
            "mean_batch_size": stats["mean_batch_size"],
            "largest_batch": stats["largest_batch"],
        }

    executor_report = asyncio.run(run_executor_identity(requests[: min(16, len(requests))]))
    memo_report = run_memo_phase()
    cache_report = asyncio.run(run_cache_phase(n_cache_hits))

    naive_rps = len(requests) / naive_seconds
    saturated = load_curve["saturating"]
    ratio = saturated["throughput_rps"] / naive_rps
    naive_p50 = percentile_ms(naive_latencies, 50)
    latency_ratio = load_curve["low"]["latency_p50_ms"] / naive_p50
    report = {
        "benchmark": "continuous batching vs naive per-request serving",
        "environment": environment_metadata(),
        "workload": {
            "requests": len(requests),
            "m_range": list(M_RANGE),
            "solve_k_choices": list(SOLVE_K_CHOICES),
            "sweep_k_grid": list(SWEEP_K_GRID),
            "concurrency": concurrency,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "repeats": repeats,
        },
        "naive": {
            "seconds": naive_seconds,
            "throughput_rps": naive_rps,
            "latency_p50_ms": naive_p50,
            "latency_p99_ms": percentile_ms(naive_latencies, 99),
        },
        "load_curve": load_curve,
        "coalesced": dict(saturated),  # legacy name: the saturated regime
        "throughput_ratio": ratio,
        "low_load_latency_ratio": latency_ratio,
        "executor_identity": executor_report,
        "plan_memo": memo_report,
        "cache": cache_report,
        "min_throughput_ratio_required": min_throughput_ratio,
        "max_latency_ratio_required": max_latency_ratio,
        "min_cache_speedup_required": min_cache_speedup,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        "serving load curve: "
        + "; ".join(
            f"{name} (c={point['concurrency']}): {point['throughput_rps']:.0f} rps, "
            f"p50 {point['latency_p50_ms']:.2f} ms, mean batch {point['mean_batch_size']:.1f}"
            for name, point in load_curve.items()
        ),
        f"serving naive: {naive_seconds * 1e3:.1f} ms ({naive_rps:.0f} rps, "
        f"p50 {naive_p50:.2f} ms) -> saturated/naive throughput {ratio:.1f}x, "
        f"low-load p50 ratio {latency_ratio:.2f}x",
        f"serving executors: {executor_report['modes']} identical payloads in "
        + ", ".join(f"{m} {s * 1e3:.0f} ms" for m, s in executor_report["seconds"].items()),
        f"serving plan memo: {memo_report['stats']['hits']} hits / "
        f"{memo_report['stats']['misses']} misses "
        f"(hit rate {memo_report['stats']['hit_rate']:.3f}), answers identical memo off",
        f"serving cache: miss {cache_report['miss_seconds'] * 1e3:.1f} ms, warm hit "
        f"{cache_report['hit_seconds'] * 1e6:.1f} us -> {cache_report['speedup']:.0f}x",
    ]
    ok = (
        ratio >= min_throughput_ratio
        and latency_ratio <= max_latency_ratio
        and cache_report["speedup"] >= min_cache_speedup
        and memo_report["stats"]["hits"] > 0
    )
    return ok, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=Path("BENCH_serving.json"))
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cache-hits", type=int, default=500)
    parser.add_argument(
        "--min-throughput-ratio",
        type=float,
        default=3.0,
        help="Required saturated/naive throughput ratio.",
    )
    parser.add_argument(
        "--max-latency-ratio",
        type=float,
        default=1.5,
        help="Maximum allowed low-load p50 as a multiple of the naive p50.",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=100.0,
        help="Required warm-cache-hit vs solve speedup.",
    )
    args = parser.parse_args(argv)

    ok, lines = run_serving_bench(
        args.output,
        n_requests=args.requests,
        concurrency=args.concurrency,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        repeats=args.repeats,
        n_cache_hits=args.cache_hits,
        min_throughput_ratio=args.min_throughput_ratio,
        max_latency_ratio=args.max_latency_ratio,
        min_cache_speedup=args.min_cache_speedup,
    )
    for line in lines:
        print(line)
    print(f"artifact written to {args.output}")
    if not ok:
        print(
            f"FAIL: serving gates not met (need >= {args.min_throughput_ratio:.1f}x "
            f"saturated throughput, low-load p50 <= {args.max_latency_ratio:.1f}x naive, "
            f">= {args.min_cache_speedup:.0f}x warm-cache speedup, nonzero memo hits)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
