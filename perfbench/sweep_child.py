"""One cold sweep in a fresh interpreter, started by ``sweep_workload.py``.

Builds the seeded specs, prints ``ready`` (the parent's set-up clock stops
there), then runs every spec through ``run_experiment`` on a 2-worker process
pool with a fresh store, checks the results and writes a JSON report.

    PYTHONPATH=src python perfbench/sweep_child.py --seed 1 --store DIR --out report.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time
from pathlib import Path

#: Registered experiments and the reduced grids the sweep workload runs.
#: The slow families (Figure 1 points, mechanism rows) get one cell per
#: instance, so cell arrivals spread smoothly around the percentiles reported.
SPECS = (
    ("figure1", {"c_grid": tuple(c / 6 for c in range(-3, 4))}),
    ("mechanism", {"k_values": (2, 4), "batch_rows": 1}),
    ("dynamics", {"k_values": (3, 5)}),
    ("coverage-times", {}),
)
WORKERS = 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, help="Directory for the fresh stores.")
    parser.add_argument("--out", required=True, help="Where to write the JSON report.")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from repro.experiments import run_experiment
    from repro.experiments.registry import build_experiment

    # One cell per pool task: cells reach the store one by one, as they finish.
    specs = [dataclasses.replace(build_experiment(name, seed=args.seed, **options), chunk_size=1)
             for name, options in SPECS]
    print("ready", flush=True)

    import checks
    import tracing
    from common import peak_rss_mb

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_sweep_hooks(recorder)

    experiments = []
    for spec in specs:
        store = Path(args.store) / spec.name
        wall_start = time.time_ns()
        start = time.perf_counter_ns()
        try:
            result = run_experiment(spec, executor="process", max_workers=WORKERS,
                                    store=str(store))
        except Exception as error:  # noqa: BLE001 - a failed experiment fails its cells
            result, problems = None, [f"{spec.name} raised {type(error).__name__}: {error}"]
        end = time.perf_counter_ns()
        cells = sorted(store.glob("*/*.pkl"))
        if result is not None:
            problems = checks.SWEEP_CHECKS[spec.name](result.rows)
            if len(cells) != spec.n_tasks:
                problems.append(f"{spec.name}: store holds {len(cells)} cells, "
                                f"expected {spec.n_tasks}")
        experiments.append({
            "name": spec.name,
            "n_tasks": spec.n_tasks,
            "failed_cells": spec.n_tasks if result is None else 0,
            "chunk_size": result.metadata["runtime"]["chunk_size"] if result else 0,
            "start_ns": start,
            "end_ns": end,
            "arrivals_ms": [(cell.stat().st_mtime_ns - wall_start) / 1e6 for cell in cells],
            "problems": problems,
        })

    # The tasks run in the pool workers, each reaped when its pool shut down;
    # the peak is the larger of this process and its largest worker.
    workers_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report = {"experiments": experiments, "peak_rss_mb": max(peak_rss_mb(), workers_mb)}
    if recorder is not None:
        report["spans"] = recorder.spans
        report["counts"] = dict(recorder.counts)
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
