"""Tests of the benchmark's own machinery: checks, load generation, tracing.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import mixes  # noqa: E402
import tracing  # noqa: E402
from common import percentile  # noqa: E402


def _served(request: mixes.Request) -> bytes:
    from repro.serving.engine import evaluate_one
    from repro.serving.requests import parse_request

    return json.dumps(evaluate_one(parse_request(request.path.lstrip("/"), request.payload))).encode()


@pytest.fixture(scope="module")
def light_requests() -> list[mixes.Request]:
    rng = np.random.default_rng(7)
    return [mixes.build(rng, mixes.shape(family, 0.5, 0.5)) for family in mixes.FAMILIES]


def test_correct_answers_pass(light_requests):
    for request in light_requests:
        answer, problems = checks.check_answer(request, _served(request))
        assert problems == []
        assert checks.check_reference([(request, answer)]) == []


def test_corrupted_answers_fail(light_requests):
    solve, sweep = light_requests
    answer = json.loads(_served(solve))
    answer["probabilities"][0] += 1e-6
    assert checks.check_answer(solve, json.dumps(answer).encode())[1]
    assert checks.check_reference([(solve, answer)])

    answer = json.loads(_served(sweep))
    answer["coverages"][-1] = answer["coverages"][0] / 2
    assert checks.check_answer(sweep, json.dumps(answer).encode())[1]


def test_non_finite_json_is_refused(light_requests):
    body = _served(light_requests[0]).replace(b'"coverage": ', b'"coverage": NaN, "x": ')
    assert checks.check_answer(light_requests[0], body)[1]


def test_respelled_repeats_must_agree(light_requests):
    request = light_requests[0]
    assert checks.check_repeats([(request, b"a"), (request, b"a")]) == []
    assert checks.check_repeats([(request, b"a"), (request, b"b")])


@pytest.mark.parametrize("corrupt, status", [(False, 0), (True, 1)])
def test_a_wrong_answer_fails_the_run(monkeypatch, tmp_path, light_requests, corrupt, status):
    import run
    import serve_workload

    solve = light_requests[0]
    answer = json.loads(_served(solve))
    if corrupt:
        answer["probabilities"][0] += 1e-6
    sample = loadgen.Sample(0, due=1.0, released=1.0, sent=1.0, done=1.002, status=200,
                            outcome="ok", response=json.dumps(answer).encode())
    served = serve_workload.Pass(setup_s=[0.5], peak_rss_mb=80.0, setup_windows=[(0.0, 2.0)], reference=[[1.0, 1.0]], phases={
        "warmup": serve_workload.Phase(slices=[[sample]]),
        "latency": serve_workload.Phase(slices=[[sample]]),
        "capacity": serve_workload.Phase(slices=[[sample]], elapsed_s=[0.002]),
    })
    load = serve_workload.Load(warmup=[solve], latency=[solve], capacity=[solve], schedules=[])
    monkeypatch.setattr(serve_workload, "_load", lambda seed, seconds: (load, [0, seed]))
    monkeypatch.setattr(serve_workload, "_run_pass", lambda *args, **kwargs: served)
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", "serve-light", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == status


def test_figure1_check_catches_a_misplaced_peak():
    from repro.analysis.figure1 import build_figure1_spec, figure1_point_task

    spec = build_figure1_spec(c_grid=(-0.5, 0.0, 0.5), second_values=(0.3,),
                              welfare_grid_points=201)
    rows = [figure1_point_task(params, None) for params in spec.grid]
    assert checks.check_figure1(rows) == []
    import dataclasses

    rows[2] = dataclasses.replace(rows[2], ess_coverage=rows[1].ess_coverage + 0.01)
    assert checks.check_figure1(rows)


def test_generation_is_seeded_sliced_and_unique():
    first = mixes.generate(np.random.default_rng(3), 40, 5)
    again = mixes.generate(np.random.default_rng(3), 40, 5)
    other = mixes.generate(np.random.default_rng(4), 40, 5)
    assert [r.body for r in first] == [r.body for r in again]
    assert [r.body for r in first] != [r.body for r in other]
    assert len({r.body for r in first}) == len(first)
    for start in range(40, 200, 40):
        part = first[start:start + 40]
        assert sum(r.family == "solve-exclusive" for r in part) == 24
        assert sum(r.repeat for r in part) == 10
    repeats = [r for r in first if r.repeat]
    assert all(any(o.key == r.key and not o.repeat for o in first) for r in repeats)
    families = {tuple(r.family for r in first[i:i + 40]) for i in range(0, 200, 40)}
    assert len(families) == 1


def test_host_speed_scale_uses_the_measured_windows():
    samples = [[1.0, 2.0], [2.0, 0.5], [3.0, 0.5]]
    assert hostspeed.scale(samples) == pytest.approx(hostspeed.NOMINAL_MS)
    assert hostspeed.scale(samples, [(0.5, 1.5)]) == pytest.approx(hostspeed.NOMINAL_MS / 2.0)
    with pytest.raises(RuntimeError):
        hostspeed.scale(samples, [(5.0, 6.0)])


def test_probe_samples_while_open_and_stops():
    with hostspeed.Probe() as probe:
        opened = time.perf_counter()
        time.sleep(0.3)
        closed = time.perf_counter()
    assert probe.samples and probe._proc is None
    assert all(ms > 0 for _, ms in probe.samples)
    assert any(opened <= t <= closed for t, _ in probe.samples)


def test_percentile_counts_failures_as_misses():
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([1.0, 2.0, math.inf, math.inf], 90) == math.inf
    assert math.isnan(percentile([], 50))


def test_spans_nest_and_carry_the_request():
    recorder = tracing.Recorder()
    namespace = type("Namespace", (), {})()
    namespace.inner = lambda: None
    namespace.outer = lambda: namespace.inner()
    tracing.wrap(recorder, namespace, "inner", "inner")
    tracing.wrap(recorder, namespace, "outer", "outer")
    token = tracing._REQUEST.set("rid")
    try:
        namespace.outer()
    finally:
        tracing._REQUEST.reset(token)
    inner, outer = recorder.spans
    assert (inner[1], outer[1]) == ("inner", "outer")
    assert inner[4] == outer[0] and outer[4] is None
    assert inner[5] == outer[5] == "rid"
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


async def _serve_once(behaviour: str):
    async def handle(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        if behaviour == "drop":
            writer.close()
        elif behaviour == "stall":
            await asyncio.sleep(5)
        else:
            writer.write(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
            await asyncio.sleep(1)
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    request = mixes.Request("x", "/solve", {"values": [1.0]})
    try:
        samples, _ = await loadgen.closed_loop("127.0.0.1", port, [request], iter([0]),
                                               connections=1, deadline_s=0.3)
    finally:
        server.close()
    return samples[0]


@pytest.mark.parametrize("behaviour, outcome", [("drop", "dropped"), ("stall", "deadline"),
                                                ("refuse", "http_error")])
def test_every_request_ends_in_one_outcome(behaviour, outcome):
    sample = asyncio.run(_serve_once(behaviour))
    assert sample.outcome == outcome
    assert sample.done >= sample.sent
