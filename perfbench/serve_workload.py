"""The ``serve-light`` workload: ``repro-dispersal serve`` driven over real HTTP.

One pass of a workload:

1. set-up: spawn the server and wait for the first 200 from ``/healthz``
   (``setup_s``; repeated, and the median reported);
2. warm-up: a fixed set of requests per family, distinct from the workload's,
   one at a time (first-call dispatch and pmf-plan building leave the timed
   phases; the result cache is not pre-filled);
3. the ``latency`` and ``capacity`` phases, cut into slices that alternate,
   so both phases see the same share of the host's slow spells (the machine
   the benchmark was sized on runs up to 1.6x slower for seconds at a time).

Every timing of a pass is scaled to a nominal host speed by the
``hostspeed`` probe that runs through the pass; the raw figures stay in the
record.  Set-up and capacity are medians over the spawns and slices; the
latency percentiles come from the quicker slices (``SLICE_QUANTILE``), so a
stalled stretch of the host moves them little.

End-to-end numbers come from an untraced pass.  With ``--trace 1`` a second,
traced pass over the same requests and schedule runs against
``traced_server.py``; the per-layer metrics come from its spans, and the gap
between the two passes is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import json
import math
import re
import select
import signal
import subprocess
import sys
import time
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
import hostspeed
import loadgen
import mixes
from common import CONNECTIONS, OUT, ROOT, child_env, median, peak_rss_mb, percentile, proc_cpu_s
from tracing import body_digest

SETUP_SPAWNS = 7
#: A pass whose generator ran later than this behind its schedule (p99) did
#: not offer the load it claims, so the run is refused.
MAX_LAG_P99_MS = 50.0
#: A latency percentile of a pass is this percentile of its slices' values.
#: Wake-up delays on a shared host inflate open-loop latency far more than
#: its CPU speed explains, for tens of seconds at a time; the quicker slices
#: of a pass leave most of that out, and a faster program moves them all.
#: Over ten seeds the p90 spread (IQR / median) fell from 0.53 with the
#: median slice to 0.14 (2-CPU sandbox, a noisy hour).
SLICE_QUANTILE = 25
REFERENCE_PER_FAMILY = 4
STARTUP_TIMEOUT_S = 60.0
HOST = "127.0.0.1"


class Server:
    """One server subprocess: ``repro-dispersal serve`` or the traced entry point."""

    def __init__(self, spans_path: str | None = None) -> None:
        if spans_path is None:
            self.command = [sys.executable, "-u", "-m", "repro.cli", "serve",
                            "--host", HOST, "--port", "0"]
        else:
            self.command = [sys.executable, "-u", str(ROOT / "perfbench" / "traced_server.py"),
                            "--spans", spans_path]
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the set-up time in seconds."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.command, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
                                     text=True)
        deadline = start + STARTUP_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        banner = self.proc.stdout.readline() if ready else ""
        found = re.search(r"serving on 127\.0\.0\.1:(\d+)", banner)
        if not found:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(found.group(1))
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return time.perf_counter() - start
            except OSError:
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict:
        return checks.strict_json(self.get("/stats")[1])["coalescer"]

    def configuration(self) -> dict:
        """The limits and executor the running server reports on ``/stats``."""
        stats = self.stats()
        return {"executor": stats["executor"]["mode"],
                "concurrency": stats["executor"]["concurrency"],
                "cache_size": stats["cache"]["max_entries"] if stats["cache"] else 0,
                "max_batch": stats["max_batch"], "max_wait_ms": stats["max_wait_ms"],
                "max_pending": stats["max_pending"]}

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc = None


@dataclass
class Phase:
    """Samples of one phase, slice by slice."""

    slices: list[list[loadgen.Sample]] = field(default_factory=list)
    elapsed_s: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    cpu_s: float = 0.0
    stats: Counter = field(default_factory=Counter)

    @property
    def samples(self) -> list[loadgen.Sample]:
        return [sample for part in self.slices for sample in part]


@dataclass
class Pass:
    setup_s: list[float] = field(default_factory=list)
    server: dict = field(default_factory=dict)
    phases: dict[str, Phase] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    spans: dict | None = None
    setup_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Samples of the host-speed probe that ran through the pass.
    reference: list[list[float]] = field(default_factory=list)


def _counters(stats: dict) -> Counter:
    """The scheduler, cache and memo counters of one ``/stats`` answer."""
    return Counter({
        "requests": stats["requests"], "batches": stats["batches"], "solved": stats["solved"],
        "singleflight_hits": stats["singleflight_hits"], "rejected": stats["rejected"],
        "cache_hits": stats["cache"]["hits"], "cache_misses": stats["cache"]["misses"],
        "memo_hits": stats["plan_memo"]["hits"], "memo_misses": stats["plan_memo"]["misses"],
    })


def _measure(server: Server, phase: Phase, run: Callable[[], Any]) -> None:
    """Run one slice and add its samples, time, CPU and counters to ``phase``."""
    before = _counters(server.stats())
    cpu = proc_cpu_s(server.proc.pid)
    start = time.perf_counter()
    samples, elapsed = asyncio.run(run())
    phase.windows.append((start, time.perf_counter()))
    phase.cpu_s += proc_cpu_s(server.proc.pid) - cpu
    phase.stats.update(_counters(server.stats()))
    phase.stats.subtract(before)
    phase.slices.append(samples)
    phase.elapsed_s.append(elapsed)


@dataclass
class Load:
    """Everything one pass sends; identical for the untraced and traced pass."""

    warmup: list[mixes.Request]
    latency: list[mixes.Request]
    capacity: list[mixes.Request]
    schedules: list[list[tuple[int, float]]]


def _run_pass(load: Load, *, spawns: int, spans_path: str | None) -> Pass:
    result = Pass(phases={"warmup": Phase(), "latency": Phase(), "capacity": Phase()})
    with hostspeed.Probe() as probe:
        _serve(result, load, spawns, spans_path)
    result.reference = probe.samples
    if spans_path is not None:
        with open(spans_path) as handle:
            result.spans = json.load(handle)
    return result


def _serve(result: Pass, load: Load, spawns: int, spans_path: str | None) -> None:
    """Set-up, warm-up and the timed slices of one pass, into ``result``."""
    for attempt in range(spawns):
        server = Server(spans_path)
        start = time.perf_counter()
        result.setup_s.append(server.start())
        result.setup_windows.append((start, time.perf_counter()))
        if attempt < spawns - 1:
            server.stop()
    port = server.port
    try:
        result.server = server.configuration()
        _measure(server, result.phases["warmup"], functools.partial(
            loadgen.closed_loop, HOST, port, load.warmup, iter(range(len(load.warmup))),
            connections=1, deadline_s=mixes.DEADLINE_S))
        capacity_slices = np.array_split(np.arange(len(load.capacity)), mixes.SLICES)
        for index in range(mixes.SLICES):
            _measure(server, result.phases["latency"], functools.partial(
                _open_slice, port, load.latency, load.schedules[index]))
            _measure(server, result.phases["capacity"], functools.partial(
                loadgen.closed_loop, HOST, port, load.capacity,
                iter(capacity_slices[index].tolist()),
                connections=CONNECTIONS, deadline_s=mixes.DEADLINE_S))
        result.peak_rss_mb = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()


async def _open_slice(port: int, requests: list[mixes.Request],
                      schedule: list[tuple[int, float]]) -> tuple[list[loadgen.Sample], float]:
    samples = await loadgen.open_loop(HOST, port, requests, schedule,
                                      connections=CONNECTIONS, deadline_s=mixes.DEADLINE_S)
    return samples, max(s.done for s in samples) - min(s.due for s in samples)


def _slice_figures(run: Pass) -> dict[str, list[float]]:
    """Latency percentiles and throughput of every slice, as measured."""
    figures: dict[str, list[float]] = defaultdict(list)
    for part in run.phases["latency"].slices:
        latencies = [s.latency_ms if s.outcome == "ok" else math.inf for s in part]
        figures["latency_p50_ms"].append(percentile(latencies, 50))
        figures["latency_p90_ms"].append(percentile(latencies, 90))
    capacity = run.phases["capacity"]
    for part, elapsed in zip(capacity.slices, capacity.elapsed_s):
        figures["throughput_per_s"].append(sum(s.outcome == "ok" for s in part) / elapsed)
    return figures


def _end_to_end(run: Pass, scaled: bool = True) -> dict[str, float]:
    """Figures of a pass at the nominal host speed (``scaled``) or as
    measured: the median set-up and capacity, and the latency percentiles of
    the quicker slices (``SLICE_QUANTILE``)."""
    scale = hostspeed.scale(run.reference) if scaled else 1.0
    setup_scale = hostspeed.scale(run.reference, run.setup_windows) if scaled else 1.0
    slices = _slice_figures(run)
    return {"setup_s": median(run.setup_s) * setup_scale,
            "latency_p50_ms": percentile(slices["latency_p50_ms"], SLICE_QUANTILE) * scale,
            "latency_p90_ms": percentile(slices["latency_p90_ms"], SLICE_QUANTILE) * scale,
            "throughput_per_s": median(slices["throughput_per_s"]) / scale,
            "peak_rss_mb": run.peak_rss_mb}


def _check_pass(run: Pass, load: Load) -> tuple[list[str], dict[str, list]]:
    """Check every 200 answer of a pass; returns problems and the parsed answers by phase."""
    problems: list[str] = []
    answered: dict[str, list[tuple[mixes.Request, Any]]] = defaultdict(list)
    pairs = []
    sources = {"warmup": load.warmup, "latency": load.latency, "capacity": load.capacity}
    for name, phase in run.phases.items():
        for sample in phase.samples:
            if sample.outcome != "ok":
                continue
            request = sources[name][sample.index]
            answer, found = checks.check_answer(request, sample.response)
            problems += found
            answered[name].append((request, answer))
            pairs.append((request, sample.response))
    problems += checks.check_repeats(pairs)
    return problems, answered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def serving_layers(run: Pass, requests: list[mixes.Request]) -> dict[str, float]:
    """Per-layer metrics of the latency phase of a traced pass.

    ``path.self_sum_share`` compares the directly timed parts of each
    request's path with the client's view: the body decode, canonicalisation,
    cache key, cache lookup, the wait from the lookup's end to its group's
    start, the group's kernel run and the response encode-and-write, summed
    per request, median over requests, divided by the median client time.
    What the spans leave out (socket transfer, header parsing, event-loop
    wake-ups, the client's own work) is the gap to 1.
    """
    phase = run.phases["latency"]
    spans = run.spans["spans"]
    ms = lambda span: (span[3] - span[2]) / 1e6  # noqa: E731
    children: dict[Any, list] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)

    def child(span: list | None, name: str) -> list | None:
        return next((c for c in children[span[0]] if c[1] == name), None) if span else None

    windows = [(low * 1e9, high * 1e9) for low, high in phase.windows]
    window = [s for s in spans if any(low <= s[2] <= high for low, high in windows)]
    dispatch = {s[5]: s for s in window if s[1] == "http.dispatch"}
    respond = {s[5]: s for s in window if s[1] == "http.respond"}
    groups = [s for s in window if s[1] == "executor.run"]
    group_of = {rid: g for g in groups for rid in g[6]}

    rows: dict[str, list[float]] = defaultdict(list)
    for sample in phase.samples:
        if sample.outcome != "ok":
            continue
        rows["lag"].append((sample.released - sample.due) * 1e3)
        rows["conn_wait"].append((sample.sent - sample.released) * 1e3)
        rid = body_digest(requests[sample.index].body)
        span, answer = dispatch.get(rid), respond.get(rid)
        submit = child(span, "scheduler.submit")
        lookup = child(submit, "cache.get")
        if lookup is None or answer is None:
            rows["unmatched"].append(1.0)
            continue
        parse, key = child(span, "requests.parse"), child(submit, "requests.cache_key")
        timed = [ms(part) for part in (child(span, "http.decode"), parse, key, lookup, answer)
                 if part is not None]
        in_submit = sum(ms(part) for part in (key, lookup) if part is not None)
        group = group_of.get(rid)
        evaluate = child(group, "engine.evaluate_group")
        if evaluate is not None:  # not answered from the cache or another request's flight
            timed += [(group[2] - lookup[3]) / 1e6, ms(group)]
            in_submit += (group[3] - lookup[3]) / 1e6
            rows["queue_wait"].append((evaluate[2] - submit[2]) / 1e6)
        rows["client"].append((sample.done - sample.sent) * 1e3)
        rows["timed"].append(sum(timed))
        rows["http_self"].append(ms(answer))
        rows["dispatch_self"].append(ms(span) - ms(submit))
        rows["scheduler_self"].append(ms(submit) - in_submit)
        if parse:
            rows["parse_us"].append(ms(parse) * 1e3)
        if key:
            rows["cache_key_us"].append(ms(key) * 1e3)

    evaluates = [s for s in window if s[1] == "engine.evaluate_group"]
    packs = [c for e in evaluates for c in children[e[0]] if c[1] == "engine.pack"]
    busy = lambda name: sum(ms(s) for s in window if s[1] == name)  # noqa: E731
    ifd_calls = [s for s in window if s[1] == "kernel.ifd_batch"]
    all_ifd_rows = sum(s[6] for s in spans if s[1] == "kernel.ifd_batch")
    stats = phase.stats
    return {
        "loadgen.lag_p99_ms": percentile(rows["lag"], 99),
        "loadgen.conn_wait_p90_ms": percentile(rows["conn_wait"], 90),
        "http.self_ms_p50": percentile(rows["http_self"], 50),
        "dispatch.self_ms_p50": percentile(rows["dispatch_self"], 50),
        "requests.parse_us_p50": percentile(rows["parse_us"], 50),
        "requests.cache_key_us_p50": percentile(rows["cache_key_us"], 50),
        "cache.hit_ratio": _ratio(stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]),
        "scheduler.singleflight_hits": stats["singleflight_hits"],
        "scheduler.queue_wait_ms_p50": percentile(rows["queue_wait"], 50),
        "scheduler.queue_wait_ms_p90": percentile(rows["queue_wait"], 90),
        "scheduler.self_ms_p50": percentile(rows["scheduler_self"], 50),
        "scheduler.batch_size_mean": _ratio(stats["solved"], stats["batches"]),
        "scheduler.rejected": stats["rejected"],
        "executor.handoff_ms_p50": percentile([ms(g) - ms(e) for g in groups
                                               if (e := child(g, "engine.evaluate_group"))], 50),
        "engine.pack_ms_p50": percentile([ms(p) for p in packs], 50),
        "engine.self_ms_p50": percentile(
            [ms(e) - sum(ms(c) for c in children[e[0]]) for e in evaluates], 50),
        "kernel.ifd_batch.busy_ms": busy("kernel.ifd_batch"),
        "kernel.ifd_batch.calls": len(ifd_calls),
        "kernel.ifd_batch.rows": sum(s[6] for s in ifd_calls),
        "kernel.pmf.calls_per_row": _ratio(run.spans["counts"].get("kernel.pmf.calls", 0),
                                           all_ifd_rows),
        "memo.hit_ratio": _ratio(stats["memo_hits"], stats["memo_hits"] + stats["memo_misses"]),
        "kernel.sigma_star_batch.busy_ms": busy("kernel.sigma_star_batch"),
        "kernel.coverage_batch.busy_ms": busy("kernel.coverage_batch"),
        "path.self_sum_share": _ratio(percentile(rows["timed"], 50),
                                      percentile(rows["client"], 50)),
        "path.unmatched_requests": len(rows["unmatched"]),
    }


def _load(seed: int, seconds: float) -> tuple[Load, list[int]]:
    """The seeded requests and schedules of one run (and the seed stream)."""
    stream = [zlib.crc32(b"serve-light"), seed % 2**63]
    latency_rng, capacity_rng = (np.random.default_rng([*stream, part]) for part in (1, 2))
    latency_s = seconds * mixes.LATENCY_SHARE
    per_latency = max(1, round(mixes.LATENCY_RPS * latency_s / mixes.SLICES))
    per_capacity = max(1, round(mixes.NOMINAL_RPS * (seconds - latency_s) / mixes.SLICES))
    latency = mixes.generate(latency_rng, per_latency, mixes.SLICES)
    schedules = []
    for first in range(0, len(latency), per_latency):
        offsets = mixes.poisson_offsets(latency_rng, mixes.LATENCY_RPS, per_latency)
        schedules.append(list(zip(range(first, first + per_latency), offsets)))
    capacity = mixes.generate(capacity_rng, per_capacity, mixes.SLICES)
    return Load(mixes.warmup(), latency, capacity, schedules), stream


def _reference_sample(answered: list, stream: list[int]) -> list:
    """A seeded sample of each family's answers for the evaluate_one comparison."""
    rng = np.random.default_rng([*stream, 3])
    by_family: dict[str, list] = defaultdict(list)
    for request, answer in answered:
        by_family[request.family].append((request, answer))
    return [by_family[family][i] for family in sorted(by_family)
            for i in rng.choice(len(by_family[family]),
                                min(REFERENCE_PER_FAMILY, len(by_family[family])),
                                replace=False)]


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns metrics, counts, problems and details."""
    load, stream = _load(seed, seconds)
    passes = {"untraced": _run_pass(load, spawns=SETUP_SPAWNS, spans_path=None)}
    if trace:
        passes["traced"] = _run_pass(load, spawns=1,
                                     spans_path=str(OUT / f"spans-serve-light-{seed}.json"))

    problems: list[str] = []
    attempted = failed = 0
    details: dict[str, Any] = {
        "server": passes["untraced"].server,
        "load": {"latency_rps": mixes.LATENCY_RPS, "connections": CONNECTIONS,
                 "slices": mixes.SLICES, "latency_requests": len(load.latency),
                 "capacity_requests": len(load.capacity)},
        "mix": {"latency": mixes.realised_mix(load.latency),
                "capacity": mixes.realised_mix(load.capacity)},
    }
    for name, one in passes.items():
        found, answered = _check_pass(one, load)
        problems += found
        outcomes = {phase: dict(Counter(s.outcome for s in p.samples))
                    for phase, p in one.phases.items()}
        sent = sum(len(p.samples) for p in one.phases.values())
        bad = sent - sum(c.get("ok", 0) for c in outcomes.values())
        attempted += sent
        failed += bad
        lag = percentile([(s.released - s.due) * 1e3 for s in one.phases["latency"].samples], 99)
        if lag > MAX_LAG_P99_MS:
            raise RuntimeError(f"{name} pass invalid: generator lag p99 {lag:.1f} ms")
        details[name] = {
            "end_to_end": _end_to_end(one),
            "end_to_end_raw": _end_to_end(one, scaled=False),
            "host_speed": one.reference,
            "windows": {phase: p.windows for phase, p in one.phases.items()},
            "setup_windows": one.setup_windows,
            "slices_raw": _slice_figures(one),
            "latency_samples": len(one.phases["latency"].samples),
            "outcomes": outcomes,
            "error_rate": bad / sent,
            "setup_s_samples": one.setup_s,
            "generator_lag_p99_ms": lag,
            "server_cpu_ms_per_req": {
                phase: p.cpu_s * 1e3 / len(p.samples) for phase, p in one.phases.items()},
        }
        if one.server != details["server"]:
            problems.append(f"{name} server ran with {one.server}, "
                            f"the untraced one with {details['server']}")
        if name == "untraced":
            sample = _reference_sample(answered["latency"], stream)
            problems += checks.check_reference(sample)
            details["reference_checked"] = len(sample)

    result = {
        "end_to_end": details["untraced"]["end_to_end"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": details,
    }
    if trace:
        layers = serving_layers(passes["traced"], load.latency)
        untraced_e2e = details["untraced"]["end_to_end"]
        traced_e2e = details["traced"]["end_to_end"]
        layers["server.cpu_ms_per_req"] = details["untraced"]["server_cpu_ms_per_req"]["capacity"]
        layers["trace.overhead.latency_p50_share"] = (
            traced_e2e["latency_p50_ms"] / untraced_e2e["latency_p50_ms"] - 1.0)
        layers["trace.overhead.throughput_share"] = (
            1.0 - traced_e2e["throughput_per_s"] / untraced_e2e["throughput_per_s"])
        result["layers"] = layers
        details["tracing_overhead"] = {
            name: traced_e2e[name] - untraced_e2e[name] for name in untraced_e2e}
    return result
