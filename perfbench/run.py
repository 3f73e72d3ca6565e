"""Benchmark of the equilibrium service and the experiment-sweep path.

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 45 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``serve-light``: closed-form ``/solve`` and ``/sweep`` traffic with a share
  of re-spelled repeats, against a ``repro-dispersal serve`` subprocess;
* ``sweep``: cold ``run_experiment`` sweeps on a 2-worker process pool.

With ``--trace 0`` the last stdout line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric (layers that do
not run in a workload read 0).  Timings are reported at a nominal host speed
(``hostspeed.py`` says how and why).  A wrong answer sets ``correct`` to false
and the exit status to 1; the metrics are still printed.  The full record,
including the raw timings, outcome counts per phase, the realised request
mix, the environment stamp and the tracing overhead, goes to
``.perfbench_out/<workload>-<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

from common import OUT, ROOT, SRC, environment_stamp, import_seconds

WORKLOADS = ("serve-light", "sweep")
#: Whatever hangs (a stuck server, a lost sweep worker), the run ends by then.
RUN_LIMIT_S = 170
IMPORTED_MODULE = {"serve-light": "repro.serving.http", "sweep": "repro.analysis"}


def _metrics(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """Every metric of ``kind`` in ``BENCHMARK.json``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[kind]}
    broken = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    if broken:
        raise ValueError(f"no finite value for {', '.join(broken)}")
    return metrics


def _out_of_time(signum: int, frame: object) -> None:
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)

    if args.workload == "sweep":
        import sweep_workload

        result = sweep_workload.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve_workload

        result = serve_workload.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        result["layers"]["import.repro_s"] = import_seconds(IMPORTED_MODULE[args.workload])
        metrics = _metrics("per_layer", result["layers"])
    else:
        metrics = _metrics("end_to_end", result["end_to_end"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_stamp(),
        "correct": not result["problems"],
        "problems": result["problems"][:50],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        **result["details"],
    }
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for problem in result["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
