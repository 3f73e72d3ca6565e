"""Tests of the online equilibrium service: hashing, cache, scheduler, HTTP.

The asyncio pieces run through ``asyncio.run`` inside synchronous tests, so
the suite needs no async test plugin.  The bit-identity battery is the
load-bearing part: a coalesced answer must equal the direct batch-of-one
answer **exactly**, for every request family and also for requests
deliberately co-batched with different instance sizes — see
``repro/serving/engine.py`` for why that holds.  The engine's dicts compare
with ``==``; what the scheduler serves compares byte for byte with the
strict JSON encoding of the direct answer (:func:`direct_body`).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import logging
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.backend import registry as backend_registry
from repro.batch.ifd import ifd_batch
from repro.core.ifd import ideal_free_distribution
from repro.core.values import SiteValues
from repro.serving import (
    ContinuousBatchScheduler,
    CoverageTimeRequest,
    EquilibriumService,
    EXECUTOR_MODES,
    KernelExecutor,
    MechanismRequest,
    QueueFullError,
    ResultCache,
    SolveRequest,
    SweepRequest,
    UnservableAnswerError,
    create_executor,
    evaluate_group,
    evaluate_one,
    evaluate_requests,
    parse_request,
    start_server,
)
from repro.utils.canonical import (
    canonical_k_grid,
    canonical_times,
    canonical_values,
    content_key,
)

RNG = np.random.default_rng(1234)
REPO = Path(__file__).resolve().parent.parent

#: Six values whose total is the largest finite double.  The coverage
#: kernels sum them in another order, and overflowed.
NEAR_MAX_VALUES = [
    1.7566810269222007e308, 5.491751450985155e283, 2.31589509176326e306,
    9.890872080783155e304, 8.987606785508621e280, 1.6864069814404178e306,
]

#: Instances whose total value exceeds 2^1023.  The first two totals overflow
#: to ``inf``; the last two are the largest finite double.  Each answer's
#: coverage used to compute ``inf``.
OVERFLOWING_TOTALS = [
    ("sweep", {"values": [1e308, 1e308, 1e308], "k_grid": [2, 3]}),
    ("solve", {"values": [1e308, 1e308, 1e308], "k": 3}),
    ("solve", {"values": NEAR_MAX_VALUES, "k": 200, "policy": "exclusive"}),
    ("mechanism", {"values": NEAR_MAX_VALUES, "k": 200}),
]


def _post(path: str, payload: dict, *, close: bool = False) -> bytes:
    body = json.dumps(payload).encode()
    head = f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n"
    return (head + ("Connection: close\r\n" if close else "") + "\r\n").encode() + body


def _read_response(rfile) -> tuple[bytes, dict[str, str], bytes] | None:
    """One whole response from a socket file, or ``None`` at end of stream."""
    status = rfile.readline()
    if not status:
        return None
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers["content-length"]))
    assert len(body) == int(headers["content-length"]), "truncated response"
    return status, headers, body


def _stream_solves(port: int, seed: int, statuses: list[bytes]) -> None:
    """Send distinct /solve requests back to back until the server closes."""
    rng = np.random.default_rng(seed)
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        with sock.makefile("rb") as rfile:
            while True:
                payload = {"values": rng.uniform(0.5, 2.0, 40).tolist(), "k": 3}
                try:
                    sock.sendall(_post("/solve", payload))
                    response = _read_response(rfile)
                except (BrokenPipeError, ConnectionResetError):
                    return  # closed before this request was read
                if response is None:
                    return
                statuses.append(response[0])
                if response[1].get("connection") == "close":
                    return


def random_values(m: int) -> np.ndarray:
    return SiteValues.random(m, np.random.default_rng(m)).as_array()


def direct_body(request) -> bytes:
    """The response body of the direct batch-of-one answer to ``request``."""
    return json.dumps(evaluate_one(request), allow_nan=False).encode()


# --------------------------------------------------------------------------
# canonical hashing
# --------------------------------------------------------------------------
class TestCanonical:
    def test_values_order_independent(self):
        assert canonical_values([0.3, 1.0, 0.7]) == canonical_values([1.0, 0.7, 0.3])
        assert canonical_values(np.array([0.5, 0.25])).as_array().tolist() == [0.5, 0.25]

    def test_values_validation(self):
        with pytest.raises(ValueError):
            canonical_values([1.0, -0.5])

    def test_k_grid_sorted_unique(self):
        assert canonical_k_grid([3, 2, 3]) == (2, 3)
        assert canonical_k_grid(5) == (5,)
        with pytest.raises(ValueError):
            canonical_k_grid([0, 2])
        with pytest.raises(ValueError):
            canonical_k_grid([2.5])

    @pytest.mark.parametrize(
        "bad", [[True, 3], True, np.array([True, False]), [2.000001, 3], [float("nan")], [1e19]]
    )
    def test_count_grids_refuse_bools_and_near_integers(self, bad):
        with pytest.raises(ValueError, match="k_grid"):
            canonical_k_grid(bad)
        with pytest.raises(ValueError, match="times"):
            canonical_times(bad)

    def test_count_grids_accept_exact_integral_floats(self):
        assert canonical_k_grid([3.0, 2, 3]) == (2, 3)
        assert canonical_times([0, 1.0, np.int64(4)]) == (0, 1, 4)
        with pytest.raises(ValueError, match="integers"):
            canonical_times([0, 1.0000001])

    def test_content_key_equal_across_spellings(self):
        a = content_key("solve", [0.3, 1.0], k=3, policy="exclusive")
        b = content_key("solve", np.array([1.0, 0.3]), k=np.int64(3), policy="exclusive")
        assert a == b

    def test_content_key_separates_params(self):
        base = content_key("solve", [0.3, 1.0], k=3)
        assert content_key("solve", [0.3, 1.0], k=4) != base
        assert content_key("sweep", [0.3, 1.0], k=3) != base
        # last-bit value changes must change the key (float.hex encoding)
        assert content_key("solve", [np.nextafter(0.3, 1.0), 1.0], k=3) != base


# --------------------------------------------------------------------------
# result cache
# --------------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        cache.put("a", b'{"x": 1}')
        assert cache.get("a") == b'{"x": 1}'
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert "a" in cache and len(cache) == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # refresh "a": "b" becomes least recent
        cache.put("c", b"3")
        assert "b" not in cache
        assert cache.get("a") == b"1" and cache.get("c") == b"3"
        assert cache.stats()["evictions"] == 1

    def test_clear(self):
        cache = ResultCache(2)
        cache.put("a", b"1")
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None
        assert cache.stats()["bytes"] == 0

    def test_bytes_counts_the_bodies_held(self):
        cache = ResultCache(2)
        cache.put("a", b"12345")
        cache.put("b", b"123")
        cache.put("a", b"1")  # a refresh replaces the old body
        assert cache.stats()["bytes"] == 4
        cache.put("c", b"1234567")  # evicts "b"
        assert cache.stats()["bytes"] == 8 and "b" not in cache


# --------------------------------------------------------------------------
# request models
# --------------------------------------------------------------------------
class TestRequests:
    def test_solve_canonicalises_and_validates(self):
        request = SolveRequest([0.3, 1.0, 0.7], k=np.int64(3))
        assert request.values == (1.0, 0.7, 0.3)
        assert request.m == 3 and request.k == 3
        with pytest.raises(ValueError):
            SolveRequest([1.0], k=0)
        with pytest.raises(ValueError):
            SolveRequest([1.0], policy="nonsense")

    def test_equal_requests_share_cache_key(self):
        a = SolveRequest([0.3, 1.0], k=2)
        b = SolveRequest(np.array([1.0, 0.3]), k=2)
        assert a == b and a.cache_key == b.cache_key
        assert a.cache_key != SolveRequest([0.3, 1.0], k=3).cache_key

    def test_mechanism_roster_canonicalised(self):
        a = MechanismRequest([1.0, 0.5], k=2, policies=("sharing", "exclusive", "sharing"))
        assert a.policies == ("exclusive", "sharing")
        with pytest.raises(ValueError):
            MechanismRequest([1.0], k=2, policies=())

    def test_pad_width_buckets(self):
        assert SolveRequest([1.0] * 1).pad_width == 8
        assert SolveRequest(random_values(8)).pad_width == 8
        assert SolveRequest(random_values(9)).pad_width == 16
        assert SolveRequest(random_values(65)).pad_width == 128

    def test_group_key_pins_everything_but_the_instance(self):
        a = SolveRequest(random_values(20), k=3)
        assert a.group_key == SolveRequest(random_values(25), k=3).group_key
        assert a.group_key != SolveRequest(random_values(20), k=4).group_key
        assert a.group_key != SolveRequest(random_values(20), k=3, policy="sharing").group_key
        assert a.group_key != SolveRequest(random_values(40), k=3).group_key  # bucket
        s = SweepRequest(random_values(20), k_grid=(2, 3))
        assert s.group_key != SweepRequest(random_values(20), k_grid=(2, 4)).group_key

    def test_parse_request_rejects_unknowns(self):
        request = parse_request("solve", {"values": [1.0, 0.5], "k": 2})
        assert isinstance(request, SolveRequest)
        with pytest.raises(ValueError, match="unknown request kind"):
            parse_request("solv", {"values": [1.0]})
        with pytest.raises(ValueError, match="unknown field"):
            parse_request("solve", {"values": [1.0], "kk": 2})
        with pytest.raises(ValueError):
            parse_request("solve", [1.0])

    @pytest.mark.parametrize("kind, body", OVERFLOWING_TOTALS)
    def test_overflowing_total_value_is_refused(self, kind, body):
        # Coverage is bounded by the total value; an infinite total used to
        # answer coverage = inf, which no JSON response can carry.
        with pytest.raises(ValueError, match=r"2\^1023 .* half the largest finite double"):
            evaluate_one(parse_request(kind, body))

    @pytest.mark.parametrize("kind", ["solve", "mechanism"])
    def test_total_at_the_bound_is_served_finite(self, kind):
        body = {"values": [2.0**1022, 2.0**1022], "k": 200}
        json.dumps(evaluate_one(parse_request(kind, body)), allow_nan=False)


# --------------------------------------------------------------------------
# engine: grouped evaluation and the bit-identity contract
# --------------------------------------------------------------------------
def mixed_workload() -> list:
    # Ragged sizes inside and across width buckets, repeated ks, every family,
    # both the closed-form (exclusive) and bisection (sharing) solver paths.
    return [
        SolveRequest(random_values(12), k=3),
        SolveRequest(random_values(20), k=3),
        SolveRequest(random_values(17), k=3),
        SolveRequest(random_values(12), k=5),
        SolveRequest(random_values(14), k=3, policy="sharing"),
        SolveRequest(random_values(19), k=3, policy="sharing"),
        SweepRequest(random_values(11), k_grid=(2, 3, 5)),
        SweepRequest(random_values(16), k_grid=(2, 3, 5)),
        MechanismRequest(random_values(10), k=4, policies=("exclusive", "sharing")),
        MechanismRequest(random_values(13), k=4, policies=("exclusive", "sharing")),
        # k = 2 takes the closed-form water filling; at k = 2 every table is
        # two-level (aggressive: C(2) = -0.5, power-law: C(2) = 0.25).
        SolveRequest(random_values(12), k=2, policy="sharing"),
        SolveRequest(random_values(15), k=2, policy="sharing"),
        SolveRequest(random_values(13), k=2, policy="aggressive"),
        SolveRequest(random_values(10), k=2, policy="power-law"),
    ]


def width_128_requests(n: int, seed: int = 128) -> list:
    """The serve-light shapes: exclusive solves at k = 3 and 8 and k = 2..21
    sweeps over 65-127 sites, some with tied values, in one width bucket."""
    rng = np.random.default_rng(seed)
    requests = []
    for index in range(n):
        values = rng.uniform(0.05, 10.0, int(rng.integers(65, 128)))
        if index % 4 == 0:
            values = np.round(values)  # ties
        if index % 5 < 3:
            requests.append(SolveRequest(values + 0.5, k=(3, 8)[index % 2]))
        else:
            requests.append(SweepRequest(values + 0.5, k_grid=tuple(range(2, 22))))
    return requests


class TestEngine:
    def test_coalesced_equals_direct_bitwise(self):
        requests = mixed_workload()
        direct = [evaluate_one(request) for request in requests]
        batched = evaluate_requests(requests)
        for index, (one, many) in enumerate(zip(direct, batched)):
            assert one == many, f"request {index} differs between direct and coalesced"

    def test_coalesced_equals_direct_bitwise_at_width_128(self):
        requests = width_128_requests(64)
        assert {request.pad_width for request in requests} == {128}
        direct = [evaluate_one(request) for request in requests]
        assert evaluate_requests(requests) == direct

    @pytest.mark.parametrize("policy", ["sharing", "power-law", "aggressive"])
    def test_served_solve_equals_library_answer(self, policy):
        # Fixed-budget solvers have no options to pin: the library's default
        # answer is the served one, bit for bit, at any padded width.
        request = SolveRequest(random_values(11), k=4, policy=policy)
        served = evaluate_one(request)
        values, policy_object = request.site_values, request.policy_object()
        batch = ifd_batch([values], [4], policy_object)
        scalar = ideal_free_distribution(values, 4, policy_object)
        assert served["probabilities"] == [float(p) for p in batch.probabilities[0, 0]]
        assert served["equilibrium_value"] == float(batch.values[0, 0]) == scalar.value
        assert served["support_size"] == scalar.support_size
        assert served["converged"] is scalar.converged is True

    def test_solve_payload_shape(self):
        payload = evaluate_one(SolveRequest(random_values(9), k=4))
        assert payload["kind"] == "solve" and payload["k"] == 4
        assert len(payload["probabilities"]) == 9
        assert payload["converged"] is True
        total = sum(payload["probabilities"])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert payload["coverage"] > 0

    def test_sweep_payload_shape(self):
        payload = evaluate_one(SweepRequest(random_values(9), k_grid=(2, 4)))
        assert payload["k_grid"] == [2, 4]
        assert len(payload["coverages"]) == 2
        assert payload["support_sizes"][0] >= 1

    def test_mechanism_payload_shape(self):
        payload = evaluate_one(
            MechanismRequest(random_values(9), k=3, policies=("exclusive", "sharing"))
        )
        assert payload["policies"] == ["exclusive", "sharing"]
        assert len(payload["spoa"]) == 2
        for ratio in payload["spoa"]:
            assert ratio is None or ratio >= 1.0 - 1e-9

    def test_payloads_are_json_native(self):
        for request in mixed_workload()[:4]:
            json.dumps(evaluate_one(request))  # raises on numpy scalars

    def test_mixed_group_rejected(self):
        with pytest.raises(ValueError, match="mixed group"):
            evaluate_group(
                [SolveRequest(random_values(9), k=2), SolveRequest(random_values(9), k=3)]
            )


# --------------------------------------------------------------------------
# scheduler
# --------------------------------------------------------------------------
class TestCoalescer:
    def test_concurrent_submits_coalesce_into_one_batch(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=64, max_wait_ms=5.0)
            requests = [SolveRequest(random_values(10 + i), k=3) for i in range(8)]
            answers = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            await scheduler.close()
            return answers, scheduler.stats(), requests

        answers, stats, requests = asyncio.run(run())
        assert answers == [direct_body(r) for r in requests]
        assert stats["batches"] == 1 and stats["largest_batch"] == 8

    def test_backend_is_resolved_once_not_per_group(self, monkeypatch):
        # Resolving the active backend reads REPRO_BACKEND/REPRO_DEVICE and
        # loads the backend; the scheduler does it once, when it is built.
        resolutions = []
        default = backend_registry._default_backend
        monkeypatch.setattr(
            backend_registry, "_default_backend", lambda: resolutions.append(1) or default()
        )

        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=2, max_wait_ms=60_000.0)
            built = len(resolutions)
            requests = [SolveRequest(random_values(10 + i), k=3) for i in range(6)]
            answers = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            await scheduler.close()
            return built, answers, scheduler.stats(), requests

        built, answers, stats, requests = asyncio.run(run())
        assert stats["batches"] == 3
        assert built == 1 and len(resolutions) == 1
        assert answers == [direct_body(r) for r in requests]

    def test_max_batch_triggers_immediate_flush(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=2, max_wait_ms=60_000.0)
            requests = [SolveRequest(random_values(10 + i), k=3) for i in range(4)]
            answers = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            await scheduler.close()
            return answers, scheduler.stats()

        answers, stats = asyncio.run(run())
        assert len(answers) == 4 and stats["batches"] == 2
        assert stats["largest_batch"] == 2

    def test_single_flight_dedup(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=64, max_wait_ms=5.0)
            request = SolveRequest(random_values(11), k=3)
            duplicate = SolveRequest(list(reversed(request.values)), k=3)
            answers = await asyncio.gather(
                *(scheduler.submit(r) for r in (request, duplicate, request))
            )
            await scheduler.close()
            return answers, scheduler.stats()

        answers, stats = asyncio.run(run())
        assert answers[0] == answers[1] == answers[2]
        assert stats["solved"] == 1 and stats["singleflight_hits"] == 2

    def test_cache_hits_skip_the_queue(self):
        async def run():
            scheduler = ContinuousBatchScheduler(
                max_batch=64, max_wait_ms=1.0, cache=ResultCache(8)
            )
            request = SolveRequest(random_values(11), k=3)
            first = await scheduler.submit(request)
            second = await scheduler.submit(SolveRequest(request.values, k=3))
            await scheduler.close()
            return first, second, scheduler.stats()

        first, second, stats = asyncio.run(run())
        assert first == second
        assert stats["cache_hits"] == 1 and stats["solved"] == 1
        assert stats["cache"]["hits"] == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_wait_ms=-1.0)

    def test_failing_group_does_not_poison_others(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=64, max_wait_ms=5.0)
            good = SolveRequest(random_values(9), k=3)
            bad = SolveRequest(random_values(9), k=3, policy="sharing")
            # Sabotage only the sharing group's evaluator path.
            object.__setattr__(bad, "policy", "no-such-policy")
            results = await asyncio.gather(
                scheduler.submit(good), scheduler.submit(bad), return_exceptions=True
            )
            await scheduler.close()
            return results

        good_answer, bad_answer = asyncio.run(run())
        assert isinstance(good_answer, bytes)
        assert isinstance(bad_answer, Exception)


# --------------------------------------------------------------------------
# continuous batching: executors, bursty loads, admission control
# --------------------------------------------------------------------------
@pytest.fixture
def shared_pool(monkeypatch):
    """A fresh interpreter-wide process pool for one test, shut down after it."""
    from repro.experiments import executors

    pool = executors._SharedPool()
    monkeypatch.setattr(executors, "_SHARED_POOL", pool)
    yield pool
    pool.shutdown()


def kill_a_pool_worker(children_before: set[int]) -> None:
    """SIGKILL one worker forked since ``children_before``; wait until it is reaped.

    The pool's manager thread reaps its workers only after it marked the pool
    broken, so the next submission sees the broken pool.
    """
    pid = min({child.pid for child in multiprocessing.active_children()} - children_before)
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} was not reaped")


def pool_forks(caplog) -> list[tuple[int, str]]:
    return [
        (record.workers, record.reason)
        for record in caplog.records
        if record.name == "repro.experiments.executors" and record.levelno == logging.INFO
    ]


class TestContinuousBatching:
    def test_lone_request_does_not_wait_for_the_backstop(self):
        # A fixed-window coalescer would hold this request for max_wait_ms;
        # continuous batching dispatches on the next tick when idle.
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=64, max_wait_ms=60_000.0)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            answer = await scheduler.submit(SolveRequest(random_values(10), k=3))
            elapsed = loop.time() - t0
            await scheduler.close()
            return answer, elapsed

        answer, elapsed = asyncio.run(run())
        assert json.loads(answer)["kind"] == "solve"
        assert elapsed < 1.0  # far below the 60 s backstop

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_bursty_load_is_bit_identical_under_every_executor(self, mode):
        # idle -> burst -> idle -> burst: the adaptive batch sizes differ
        # between phases, the answers must not.
        requests = mixed_workload()
        direct = [direct_body(request) for request in requests]

        async def run():
            scheduler = ContinuousBatchScheduler(
                max_batch=8, max_wait_ms=2.0, executor=create_executor(mode)
            )
            lone = await scheduler.submit(requests[0])  # idle phase
            burst_one = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            lone_again = await scheduler.submit(requests[1])  # idle again
            burst_two = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            stats = scheduler.stats()
            await scheduler.close()
            return lone, list(burst_one), lone_again, list(burst_two), stats

        lone, burst_one, lone_again, burst_two, stats = asyncio.run(run())
        assert lone == direct[0] and lone_again == direct[1]
        assert burst_one == direct and burst_two == direct
        assert stats["executor"]["mode"] == mode
        assert stats["solved"] == 2 * len(requests) + 2

    def test_stats_expose_scheduling_observability(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=4, max_wait_ms=1.0)
            await asyncio.gather(
                *(scheduler.submit(SolveRequest(random_values(9 + i), k=3)) for i in range(6))
            )
            stats = scheduler.stats()
            await scheduler.close()
            return stats

        stats = asyncio.run(run())
        assert stats["max_pending"] == 1024 and stats["rejected"] == 0
        assert stats["accumulation_target"] >= 1
        assert stats["ewma_service_ms"] is None or stats["ewma_service_ms"] >= 0
        for histogram in (stats["queue_depth"], stats["latency_ms"]):
            assert histogram["count"] >= 1
            assert sum(histogram["buckets"].values()) == histogram["count"]
        assert stats["plan_memo"]["max_entries"] >= 1

    def test_cancelled_caller_does_not_poison_the_group(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=8, max_wait_ms=5.0)
            doomed = SolveRequest(random_values(10), k=3)
            survivor = SolveRequest(random_values(12), k=3)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(scheduler.submit(doomed), timeout=1e-6)
            answer = await scheduler.submit(survivor)
            # The abandoned request still settled internally: a re-ask is
            # served (from single-flight or a fresh dispatch), not wedged.
            redo = await scheduler.submit(doomed)
            await scheduler.close()
            return answer, redo

        answer, redo = asyncio.run(run())
        assert answer == direct_body(SolveRequest(random_values(12), k=3))
        assert redo == direct_body(SolveRequest(random_values(10), k=3))

    def test_queue_full_rejects_with_retry_after(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=2, max_wait_ms=5.0, max_pending=3)
            requests = [SolveRequest(random_values(9 + i), k=3) for i in range(8)]
            # One gather burst: the pump is deferred to the next tick, so
            # admissions beyond max_pending reject before anything dispatches.
            results = await asyncio.gather(
                *(scheduler.submit(r) for r in requests), return_exceptions=True
            )
            stats = scheduler.stats()
            await scheduler.close()
            return results, stats

        results, stats = asyncio.run(run())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        served = [r for r in results if isinstance(r, bytes)]
        assert len(rejected) == 5 and len(served) == 3
        assert stats["rejected"] == 5
        for error in rejected:
            assert error.retry_after > 0

    def test_process_executor_survives_a_dead_worker(self, shared_pool, caplog):
        first = SolveRequest(random_values(9), k=3, policy="sharing")
        second = SolveRequest(random_values(11), k=4, policy="sharing")
        children = {child.pid for child in multiprocessing.active_children()}

        async def run():
            scheduler = ContinuousBatchScheduler(
                max_batch=8, max_wait_ms=1.0, executor=create_executor("process", max_workers=2)
            )
            before = await scheduler.submit(first)
            kill_a_pool_worker(children)
            after = await scheduler.submit(second)
            await scheduler.close()
            return before, after

        with caplog.at_level(logging.INFO, logger="repro.experiments.executors"):
            before, after = asyncio.run(asyncio.wait_for(run(), timeout=60.0))
        assert before == direct_body(first)
        assert after == direct_body(second)
        assert pool_forks(caplog) == [(2, "first use"), (2, "broken")]

    def test_invalid_executor_mode_rejected(self):
        with pytest.raises(ValueError):
            create_executor("fork-bomb")


# --------------------------------------------------------------------------
# encode once: the scheduler serves, caches and shares response bodies
# --------------------------------------------------------------------------
#: An aggressive k = 2 solve whose smallest value underflows once the row is
#: scaled by its largest: the kernel answers NaN with ``converged: false``.
UNSERVABLE_SOLVE = {"values": [8.7e-146, 3.9e283, 3.3e-237], "k": 2, "policy": "aggressive"}

#: All-tied power-law solves whose water-filling bracket collapses onto two
#: equal masses; both used to answer NaN or -inf.
TIED_SOLVES = [
    {"values": [1.0] * 30, "k": 40, "policy": "power-law"},
    {"values": [4140491394483.2295] * 24, "k": 26, "policy": "power-law"},
]


class _AnswersWith(KernelExecutor):
    """Answers every request of a group with a copy of one fixed payload."""

    mode = "inline"

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    async def run(self, batch, *, backend=None):
        return [dict(self.payload) for _ in batch]


class TestEncodeOnce:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_served_bodies_are_the_direct_answers_bytes_at_width_128(self, mode):
        requests = width_128_requests(64)
        direct = [direct_body(request) for request in requests]

        async def run():
            scheduler = ContinuousBatchScheduler(
                max_batch=64, max_wait_ms=5.0, cache=ResultCache(128),
                executor=create_executor(mode, max_workers=2),
            )
            served = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            cached = await asyncio.gather(*(scheduler.submit(r) for r in requests))
            stats = scheduler.stats()
            await scheduler.close()
            return served, cached, stats

        served, cached, stats = asyncio.run(run())
        assert served == direct and cached == direct
        assert stats["batches"] == 1 and stats["cache_hits"] == len(requests)
        assert stats["cache"]["bytes"] == sum(map(len, direct))

    def test_unservable_answer_is_one_shared_refusal_and_never_cached(self):
        request = parse_request("solve", UNSERVABLE_SOLVE)
        assert evaluate_one(request)["converged"] is False

        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=8, cache=ResultCache(8))
            together = [scheduler.submit(request) for _ in range(3)]
            first = await asyncio.gather(*together, return_exceptions=True)
            again = await asyncio.gather(scheduler.submit(request), return_exceptions=True)
            stats = scheduler.stats()
            await scheduler.close()
            return first, again, stats

        first, again, stats = asyncio.run(run())
        assert all(isinstance(error, UnservableAnswerError) for error in first + again)
        assert first[0] is first[1] is first[2]
        assert "did not converge" in str(first[0])
        assert stats["singleflight_hits"] == 2 and stats["solved"] == 2
        assert stats["cache_hits"] == 0 and stats["cache"]["entries"] == 0

    @pytest.mark.parametrize(
        "payload, reason",
        [({"kind": "solve", "coverage": float("nan")}, "non-finite"),
         ({"kind": "sweep", "coverages": [1.0, float("inf")]}, "non-finite"),
         ({"kind": "solve", "coverage": 1.0, "converged": False}, "did not converge")],
        ids=["nan", "inf", "unconverged"],
    )
    def test_non_finite_or_unconverged_answers_are_refused(self, payload, reason):
        async def run():
            scheduler = ContinuousBatchScheduler(
                cache=ResultCache(8), executor=_AnswersWith(payload)
            )
            try:
                with pytest.raises(UnservableAnswerError, match=reason):
                    await scheduler.submit(SolveRequest(random_values(9), k=3))
                return scheduler.stats()
            finally:
                await scheduler.close()

        assert asyncio.run(run())["cache"]["entries"] == 0

    def test_refusals_are_a_422_and_tied_solves_converge_over_http(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                refused = [
                    await raw_exchange(running.port, _post("/solve", UNSERVABLE_SOLVE, close=True))
                    for _ in range(2)
                ]
                tied = [
                    await raw_exchange(running.port, _post("/solve", body, close=True))
                    for body in TIED_SOLVES
                ]
                stats = await http_request(running.port, "GET", "/stats")
                return refused, tied, stats[1]["coalescer"]

        refused, tied, stats = asyncio.run(run())
        for raw in refused:
            assert raw.startswith(b"HTTP/1.1 422 Unprocessable Content\r\n")
            assert "did not converge" in strict_json(raw)["error"]
        assert stats["cache"]["entries"] == len(TIED_SOLVES) and stats["solved"] == 4
        for raw, body in zip(tied, TIED_SOLVES):
            assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
            assert raw.partition(b"\r\n\r\n")[2] == direct_body(parse_request("solve", body))
            assert strict_json(raw)["converged"] is True

    def test_a_full_cache_of_serve_light_answers_holds_at_most_6_mib(self):
        # The cache holds each answer as its response body (about 1.1 kB
        # here); as dicts of boxed floats the same 4096 answers held 11.8 MiB.
        requests = width_128_requests(4096, seed=4096)
        for request in requests:
            request.cache_key  # hashed before tracing: the keys belong to the requests

        def fill(cache: ResultCache, batch: list) -> None:
            async def run():
                scheduler = ContinuousBatchScheduler(
                    max_batch=64, max_pending=len(batch), cache=cache
                )
                await asyncio.gather(*(scheduler.submit(r) for r in batch))
                await scheduler.close()

            asyncio.run(run())

        fill(ResultCache(64), requests[:64])  # fills the pmf-plan memo first
        cache = ResultCache(len(requests))
        gc.collect()
        tracemalloc.start()
        try:
            fill(cache, requests)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cache) == len(requests)
        assert held <= 6 * 2**20, f"{held / 2**20:.1f} MiB held"


# --------------------------------------------------------------------------
# coverage-time requests
# --------------------------------------------------------------------------
class TestCoverageTimeServing:
    def test_request_normalises_distribution(self):
        request = CoverageTimeRequest([2.0, 2.0, 4.0], k=2)
        assert request.values == (0.5, 0.25, 0.25)
        assert request.kind == "coverage-times"
        zeros_ok = CoverageTimeRequest([0.7, 0.3, 0.0])
        assert zeros_ok.values[-1] == 0.0

    def test_request_validation(self):
        with pytest.raises(ValueError):
            CoverageTimeRequest([0.5, 0.5], k=0)
        with pytest.raises(ValueError):
            CoverageTimeRequest([0.5, 0.5], j=3)  # j > m
        with pytest.raises(ValueError):
            CoverageTimeRequest([0.5, 0.5], times=[1.5])
        with pytest.raises(ValueError, match="enumeration cap"):
            CoverageTimeRequest(list(range(1, 19)))  # non-uniform, m=18 > 16
        # uniform distributions are exempt from the cap (O(M) closed form)
        wide = CoverageTimeRequest([1.0] * 40, k=2)
        assert wide.m == 40

    def test_payload_and_degenerate_rows(self):
        payload = evaluate_one(CoverageTimeRequest([0.5, 0.3, 0.2], k=2, times=(1, 5), j=2))
        assert payload["coverable"] is True
        assert payload["expected_rounds"] > 0
        assert payload["cdf"] == sorted(payload["cdf"])  # CDF is monotone
        assert 0 < payload["partial_expected_rounds"] < payload["expected_rounds"]
        degenerate = evaluate_one(CoverageTimeRequest([0.7, 0.3, 0.0], k=1))
        assert degenerate["coverable"] is False
        assert degenerate["expected_rounds"] is None

    def test_coalesced_equals_direct_bitwise(self):
        requests = [
            CoverageTimeRequest([0.5, 0.3, 0.2], k=2, times=(1, 3, 5), j=2),
            CoverageTimeRequest([0.25] * 4, k=2, times=(1, 3, 5), j=2),
            CoverageTimeRequest([0.6, 0.2, 0.1, 0.1], k=2, times=(1, 3, 5), j=2),
            CoverageTimeRequest([0.4, 0.3, 0.2, 0.1], k=2),  # separate group (no times)
        ]
        direct = [evaluate_one(request) for request in requests]
        assert evaluate_requests(requests) == direct

    def test_http_route_end_to_end(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                ok = await http_request(
                    running.port, "POST", "/coverage-times",
                    {"values": [0.5, 0.3, 0.2], "k": 2, "times": [1, 3], "j": 2},
                )
                capped = await http_request(
                    running.port, "POST", "/coverage-times",
                    {"values": list(range(1, 19))},
                )
                return ok, capped

        ok, capped = asyncio.run(run())
        assert ok[0] == 200
        expected = evaluate_one(
            CoverageTimeRequest([0.5, 0.3, 0.2], k=2, times=(1, 3), j=2)
        )
        assert ok[1] == expected
        assert capped[0] == 400 and "enumeration cap" in capped[1]["error"]


# --------------------------------------------------------------------------
# HTTP front
# --------------------------------------------------------------------------
async def http_request(
    port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    status = int(status_line.split()[1])
    _, _, response_body = rest.partition(b"\r\n\r\n")
    return status, json.loads(response_body)


def child_pids(pid: int) -> set[int]:
    """Pids of the live processes whose parent is ``pid``."""
    children = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError), open(f"/proc/{entry}/stat") as stat:
            if int(stat.read().rpartition(")")[2].split()[1]) == pid:
                children.add(int(entry))
    return children


def is_running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestHTTPServer:
    def test_routes_end_to_end(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                port = running.port
                health = await http_request(port, "GET", "/healthz")
                values = [round(v, 6) for v in random_values(9).tolist()]
                solve = await http_request(
                    port, "POST", "/solve", {"values": values, "k": 3}
                )
                stats = await http_request(port, "GET", "/stats")
                bad = await http_request(port, "POST", "/solve", {"values": values, "kk": 1})
                missing = await http_request(port, "GET", "/nope")
                wrong_method = await http_request(port, "GET", "/solve")
                expected = evaluate_one(parse_request("solve", {"values": values, "k": 3}))
                return health, solve, stats, bad, missing, wrong_method, expected

        health, solve, stats, bad, missing, wrong_method, expected = asyncio.run(run())
        assert health == (200, {"status": "ok"})
        assert solve[0] == 200 and solve[1] == expected
        assert stats[0] == 200
        assert stats[1]["coalescer"]["requests"] == 1
        assert "environment" in stats[1]
        assert bad[0] == 400 and "unknown field" in bad[1]["error"]
        assert missing[0] == 404
        assert wrong_method[0] == 405

    def test_process_executor_answers_after_a_worker_dies(self, shared_pool):
        bodies = [{"values": [round(v, 6) for v in random_values(m).tolist()], "k": 3}
                  for m in (9, 10)]
        children = {child.pid for child in multiprocessing.active_children()}

        async def run():
            async with await start_server(
                "127.0.0.1", 0, max_wait_ms=1.0, executor="process", workers=2
            ) as running:
                # One keep-alive connection; each answer is read by its length.
                reader, writer = await asyncio.open_connection("127.0.0.1", running.port)
                answers = []
                for body in bodies:
                    if answers:
                        kill_a_pool_worker(children)
                    data = json.dumps(body).encode()
                    writer.write(
                        f"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: {len(data)}"
                        f"\r\n\r\n".encode() + data
                    )
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(re.search(rb"Content-Length: (\d+)", head)[1])
                    answer = json.loads(await reader.readexactly(length))
                    answers.append((int(head.split()[1]), answer))
                writer.close()
                return answers

        answers = asyncio.run(asyncio.wait_for(run(), timeout=60.0))
        for (status, answer), body in zip(answers, bodies):
            assert status == 200, answer
            assert answer == evaluate_one(parse_request("solve", body))

    def test_closing_a_connection_sends_eof_under_the_process_executor(self, shared_pool):
        # The pool forks while this connection is open, so its workers hold a
        # copy of the socket; the client still sees EOF after the answer.
        body = {"values": [round(v, 6) for v in random_values(9).tolist()], "k": 3}

        async def run():
            async with await start_server(
                "127.0.0.1", 0, max_wait_ms=1.0, executor="process", workers=2
            ) as running:
                return await asyncio.wait_for(
                    http_request(running.port, "POST", "/solve", body), timeout=30.0
                )

        assert asyncio.run(run()) == (200, evaluate_one(parse_request("solve", body)))

    def test_a_closed_process_mode_server_frees_its_port(self, shared_pool):
        # The pool forks while the server listens, and its workers outlive
        # the closed server; they must not keep the port bound.
        body = {"values": [round(v, 6) for v in random_values(9).tolist()], "k": 3}

        async def run():
            running = await start_server(
                "127.0.0.1", 0, max_wait_ms=1.0, executor="process", workers=2
            )
            port = running.port
            async with running:
                answer = await http_request(port, "POST", "/solve", body)
            async with await start_server("127.0.0.1", port, max_wait_ms=1.0):
                health = await http_request(port, "GET", "/healthz")
            return answer, health

        answer, health = asyncio.run(asyncio.wait_for(run(), timeout=60.0))
        assert answer == (200, evaluate_one(parse_request("solve", body)))
        assert health == (200, {"status": "ok"})

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the process table")
    def test_sigterm_stops_serve_and_its_pool_workers(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--executor", "process", "--workers", "2"],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUNBUFFERED": "1"},
        )
        workers: set[int] = set()
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r"serving on [^:]+:(\d+)", banner)[1])
            body = json.dumps({"values": [1.0, 0.6, 0.3], "k": 3, "policy": "sharing"})
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/solve", data=body.encode(), method="POST"
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
            workers = child_pids(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
            deadline = time.monotonic() + 5.0
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(is_running, workers))
        finally:
            proc.kill()
            proc.wait()
            for pid in filter(is_running, workers):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="needs POSIX signals")
    def test_sigterm_under_load_answers_what_it_read_and_logs_nothing(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUNBUFFERED": "1"},
        )
        try:
            port = int(re.search(r"serving on [^:]+:(\d+)", proc.stdout.readline())[1])
            streams = [[], []]
            threads = [
                threading.Thread(target=_stream_solves, args=(port, seed, streams[seed]))
                for seed in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            # A request that computes for about a second: read long before
            # the signal arrives, so it must be answered.
            slow = {"values": np.linspace(1.0, 2.0, 64).tolist(), "k": 2000, "policy": "sharing"}
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(_post("/solve", slow))
                time.sleep(0.3)
                proc.send_signal(signal.SIGTERM)
                with sock.makefile("rb") as rfile:
                    status, _, body = _read_response(rfile)
                    assert _read_response(rfile) is None  # then the server closes it
            assert status == b"HTTP/1.1 200 OK\r\n" and json.loads(body)["converged"] is True
            assert proc.wait(timeout=5) == 0
            for thread in threads:
                thread.join(timeout=10)
            # Both connections were mid-stream: every answer they got is whole.
            assert all(streams) and all(s == b"HTTP/1.1 200 OK\r\n" for s in sum(streams, []))
            assert "Traceback" not in proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_sigterm_stops_within_grace_when_a_peer_never_reads(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUNBUFFERED": "1"},
        )
        sock = socket.socket()
        try:
            port = int(re.search(r"serving on [^:]+:(\d+)", proc.stdout.readline())[1])
            # A tiny receive window and pipelined requests whose answers are
            # never read: the server's writes back up until its handler waits
            # in drain() with a request it has read.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", port))
            # ~20 kB answers to 2 kB requests: 1,000 of them overfill any
            # socket buffer (Linux lets a send buffer grow to 4 MiB).
            sweep = _post("/sweep", {"values": [1.0, 0.5], "k_grid": list(range(1, 501))})

            def pipeline() -> None:
                with contextlib.suppress(OSError):
                    sock.sendall(sweep * 1000)

            threading.Thread(target=pipeline, daemon=True).start()
            time.sleep(1.5)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
            assert "Traceback" not in proc.stderr.read()
        finally:
            sock.close()
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_non_integral_count_grids_are_a_400(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                port = running.port
                sweeps = [
                    await http_request(port, "POST", "/sweep", {"values": [1.0], "k_grid": grid})
                    for grid in ([True, 3], [2.000001, 3])
                ]
                times = {"values": [0.5, 0.5], "times": [0, 1.0000001]}
                return sweeps + [await http_request(port, "POST", "/coverage-times", times)]

        for status, body in asyncio.run(run()):
            assert status == 400, body
            assert "k_grid" in body["error"] or "times" in body["error"]

    def test_overflowing_total_value_is_a_400(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                return [
                    await http_request(running.port, "POST", f"/{kind}", body)
                    for kind, body in OVERFLOWING_TOTALS
                ]

        for status, body in asyncio.run(run()):
            assert status == 400, body
            assert "largest finite double" in body["error"]

    def test_invalid_json_is_a_400(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                reader, writer = await asyncio.open_connection("127.0.0.1", running.port)
                body = b"{not json"
                writer.write(
                    b"POST /solve HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                return raw

        raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 400")

    def test_queue_full_maps_to_503_with_retry_after(self):
        async def run():
            scheduler = ContinuousBatchScheduler(max_batch=4, max_wait_ms=1.0)

            async def always_full(request):
                raise QueueFullError("pending queue is full", retry_after=2.4)

            scheduler.submit = always_full  # type: ignore[method-assign]
            async with await start_server("127.0.0.1", 0, scheduler=scheduler) as running:
                reader, writer = await asyncio.open_connection("127.0.0.1", running.port)
                body = json.dumps({"values": [1.0, 0.5], "k": 2}).encode()
                writer.write(
                    b"POST /solve HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                return raw

        raw = asyncio.run(run())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 503")
        assert b"Retry-After: 2" in head
        payload = json.loads(body)
        assert payload["retry_after_s"] == 2

    def test_server_flags_thread_through_to_stats(self):
        async def run():
            async with await start_server(
                "127.0.0.1", 0, max_wait_ms=1.0, cache_size=32,
                max_pending=7, executor="thread", workers=2,
            ) as running:
                return await http_request(running.port, "GET", "/stats")

        status, stats = asyncio.run(run())
        assert status == 200
        scheduler_stats = stats["coalescer"]
        assert scheduler_stats["max_pending"] == 7
        assert scheduler_stats["cache"]["max_entries"] == 32
        assert scheduler_stats["executor"] == {"mode": "thread", "concurrency": 2}


async def raw_exchange(port: int, data: bytes, timeout: float = 3.0) -> bytes:
    """Send raw bytes, then read until the server closes (or ``timeout``)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), timeout)
    except asyncio.TimeoutError:
        return b"<no answer before the client timeout>"
    finally:
        writer.close()


def strict_json(raw: bytes) -> dict:
    """The body of a raw response, parsed as strict JSON (no NaN/Infinity)."""

    def reject(constant: str) -> None:
        raise ValueError(f"non-JSON constant {constant}")

    _, _, body = raw.partition(b"\r\n\r\n")
    return json.loads(body, parse_constant=reject)


class TestHTTPBoundary:
    """Slow, oversized and non-finite traffic still gets a status and a JSON body."""

    @pytest.mark.parametrize(
        "data",
        [
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header-line", "request-line"],
    )
    def test_overlong_line_is_a_431(self, data):
        async def run():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with await start_server("127.0.0.1", 0) as running:
                raw = await raw_exchange(running.port, data)
            return raw, unhandled

        raw, unhandled = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 431")
        assert b"Connection: close" in raw
        assert "too long" in strict_json(raw)["error"]
        assert unhandled == []

    @pytest.mark.parametrize(
        "data",
        [
            b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
            b"POST /solve HTTP/1.1\r\nContent-Length: 2\r\n",
        ],
        ids=["short-body", "unfinished-headers"],
    )
    def test_request_that_never_arrives_is_a_408(self, monkeypatch, data):
        import repro.serving.http as http

        monkeypatch.setattr(http, "_REQUEST_TIMEOUT_S", 0.2)

        async def run():
            async with await start_server("127.0.0.1", 0) as running:
                return await raw_exchange(running.port, data)

        raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 408")
        assert b"Connection: close" in raw
        assert "in time" in strict_json(raw)["error"]

    def test_idle_keep_alive_connection_is_not_timed(self, monkeypatch):
        import repro.serving.http as http

        monkeypatch.setattr(http, "_REQUEST_TIMEOUT_S", 0.2)

        async def run():
            async with await start_server("127.0.0.1", 0) as running:
                reader, writer = await asyncio.open_connection("127.0.0.1", running.port)
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                first = await reader.readuntil(b"}")
                await asyncio.sleep(0.5)
                writer.write(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                second = await asyncio.wait_for(reader.read(), 3.0)
                writer.close()
                return first, second

        first, second = asyncio.run(run())
        assert first.startswith(b"HTTP/1.1 200")
        assert second.startswith(b"HTTP/1.1 200")

    def test_non_finite_answer_is_a_500_with_strict_json(self):
        async def run():
            scheduler = ContinuousBatchScheduler()

            async def non_finite(request):
                return {"equilibrium_value": float("nan"), "coverage": float("inf")}

            scheduler.submit = non_finite  # type: ignore[method-assign]
            async with await start_server("127.0.0.1", 0, scheduler=scheduler) as running:
                body = json.dumps({"values": [1.0, 0.5], "k": 2}).encode()
                return await raw_exchange(
                    running.port,
                    b"POST /solve HTTP/1.1\r\nConnection: close\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body,
                )

        raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 500")
        assert "not valid JSON" in strict_json(raw)["error"]
