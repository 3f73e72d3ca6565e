"""The ``sweep`` workload: cold experiment sweeps, each in a fresh interpreter.

Each repetition spawns ``sweep_child.py``, which imports the package, builds
the seeded specs and runs them on a 2-worker process pool into a fresh store.
``setup_s`` runs from the spawn to the built specs; a cell's latency runs from
its experiment's start to the moment its result is persisted in the store.
Every timing is scaled to a nominal host speed by the ``hostspeed`` probe
that runs through the repetitions (set-up by its samples during set-up).
"""

from __future__ import annotations

import json
import math
import select
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any

import hostspeed
from common import OUT, ROOT, child_env, median, percentile
from sweep_child import WORKERS

#: Wall time of one cold repetition on the 2-CPU machine the run was sized on.
NOMINAL_REPETITION_S = 7.5
CHILD_TIMEOUT_S = 150.0


def _repetition(seed: int, tag: str, trace: bool) -> tuple[float, dict]:
    """One cold sweep; returns its set-up seconds and the child's report,
    with the set-up's ``perf_counter`` interval added."""
    store = OUT / f"store-{tag}"
    report_path = OUT / f"sweep-{tag}.json"
    shutil.rmtree(store, ignore_errors=True)
    command = [sys.executable, str(ROOT / "perfbench" / "sweep_child.py"), "--seed", str(seed),
               "--store", str(store), "--out", str(report_path), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready or proc.stdout.readline().strip() != "ready":
            raise RuntimeError("sweep process failed before building its specs")
        setup_s = time.perf_counter() - start
        setup_window = (start, start + setup_s)
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError(f"sweep process exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(store, ignore_errors=True)
    report = json.loads(report_path.read_text())
    report_path.unlink()
    report["setup_window"] = setup_window
    report["window"] = (start, time.perf_counter())
    return setup_s, report


def _end_to_end(setups: list[float], reports: list[dict],
                probe: list[list[float]] | None) -> dict[str, float]:
    """End-to-end metrics at nominal host speed by the ``probe`` samples, or
    as measured without them."""
    experiments = [e for report in reports for e in report["experiments"]]
    scale = setup_scale = 1.0
    if probe is not None:
        scale = hostspeed.scale(probe)
        setup_scale = hostspeed.scale(probe, [r["setup_window"] for r in reports])
    cells = sum(e["n_tasks"] - e["failed_cells"] for e in experiments)
    wall = sum(e["end_ns"] - e["start_ns"] for e in experiments) / 1e9
    # A cell of a failed experiment never arrives: it misses every latency limit.
    arrivals = [a for e in experiments for a in e["arrivals_ms"]] + [
        math.inf for e in experiments for _ in range(e["failed_cells"])]
    return {
        "setup_s": median(setups) * setup_scale,
        "latency_p50_ms": percentile(arrivals, 50) * scale,
        "latency_p90_ms": percentile(arrivals, 90) * scale,
        "throughput_per_s": cells / (wall * scale),
        "peak_rss_mb": median([report["peak_rss_mb"] for report in reports]),
    }


def sweep_layers(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans, counts = report["spans"], report["counts"]
    seconds = lambda span: (span[3] - span[2]) / 1e9  # noqa: E731
    layers: dict[str, float] = {}
    busy_total = wall_total = 0.0
    chunks = 0
    for experiment in report["experiments"]:
        name = experiment["name"]
        inside = [s for s in spans
                  if s[1] == "task" and experiment["start_ns"] <= s[2] <= experiment["end_ns"]]
        wall = (experiment["end_ns"] - experiment["start_ns"]) / 1e9
        busy = sum(seconds(s) for s in inside)
        layers[f"runner.wall_s.{name}"] = wall
        layers[f"task.busy_s.{name}"] = busy
        busy_total += busy
        wall_total += wall
        chunks += -(-experiment["n_tasks"] // max(1, experiment["chunk_size"]))
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    puts = by_name["store.put"]
    ifd = by_name["kernel.ifd_batch"]
    ifd_rows = sum(s[6] for s in ifd)
    layers.update({
        "task.core_ifd.busy_s": sum(seconds(s) for s in by_name["task.core_ifd"]),
        "task.core_welfare.busy_s": sum(seconds(s) for s in by_name["task.core_welfare"]),
        "executors.idle_share": 1.0 - busy_total / (WORKERS * wall_total),
        "executors.retries": counts.get("executors.submits", 0) - chunks,
        "store.puts": len(puts),
        "store.put_ms_p50": percentile([seconds(s) * 1e3 for s in puts], 50),
        "store.bytes": sum(s[6] for s in puts),
        "kernel.ifd_batch.busy_ms": sum(seconds(s) for s in ifd) * 1e3,
        "kernel.ifd_batch.calls": len(ifd),
        "kernel.ifd_batch.rows": ifd_rows,
        "kernel.pmf.calls_per_row": counts.get("kernel.pmf.calls", 0) / ifd_rows if ifd_rows else 0.0,
        "kernel.coverage_times.busy_ms": sum(seconds(s) for s in by_name["kernel.coverage_times"]) * 1e3,
        "kernel.compare_policies_batch.busy_ms":
            sum(seconds(s) for s in by_name["kernel.compare_policies_batch"]) * 1e3,
        "memo.hit_ratio": counts.get("memo.hits", 0) / max(
            1, counts.get("memo.hits", 0) + counts.get("memo.misses", 0)),
        "kernel.dynamics.busy_ms": sum(seconds(s) for s in by_name["kernel.dynamics"]) * 1e3,
    })
    return layers


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the sweep workload; returns metrics, counts, problems and details."""
    OUT.mkdir(exist_ok=True)
    repetitions = 1 if trace else max(1, round(seconds / NOMINAL_REPETITION_S))
    setups, reports = [], []
    with hostspeed.Probe() as probe:
        for rep in range(repetitions):
            setup_s, report = _repetition(seed, f"{seed}-{rep}", trace=False)
            setups.append(setup_s)
            reports.append(report)
    all_reports = list(reports)
    result: dict[str, Any] = {"end_to_end": _end_to_end(setups, reports, probe.samples)}
    details: dict[str, Any] = {
        "repetitions": repetitions,
        "setup_s_samples": setups,
        "workers": WORKERS,
        "experiments": [{k: e[k] for k in ("name", "n_tasks", "chunk_size")}
                        for e in reports[0]["experiments"]],
        "untraced": {"end_to_end": result["end_to_end"],
                     "end_to_end_raw": _end_to_end(setups, reports, None),
                     "repetitions_raw": [_end_to_end([t], [r], None)
                                         for t, r in zip(setups, reports)],
                     "host_speed": probe.samples,
                     "windows": [r["window"] for r in reports]},
    }
    if trace:
        with hostspeed.Probe() as traced_probe:
            setup_s, traced = _repetition(seed, f"{seed}-traced", trace=True)
        all_reports.append(traced)
        traced_e2e = _end_to_end([setup_s], [traced], traced_probe.samples)
        untraced_e2e = result["end_to_end"]
        layers = sweep_layers(traced)
        layers["trace.overhead.latency_p50_share"] = (
            traced_e2e["latency_p50_ms"] / untraced_e2e["latency_p50_ms"] - 1.0)
        layers["trace.overhead.throughput_share"] = (
            1.0 - traced_e2e["throughput_per_s"] / untraced_e2e["throughput_per_s"])
        result["layers"] = layers
        details["traced"] = {"end_to_end": traced_e2e}
        details["tracing_overhead"] = {
            name: traced_e2e[name] - untraced_e2e[name] for name in untraced_e2e}
    experiments = [e for report in all_reports for e in report["experiments"]]
    result["attempted"] = sum(e["n_tasks"] for e in experiments)
    result["failed"] = sum(e["failed_cells"] for e in experiments)
    result["problems"] = [p for e in experiments for p in e["problems"]]
    details["error_rate"] = result["failed"] / result["attempted"]
    result["details"] = details
    return result
