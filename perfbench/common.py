"""Small helpers shared by the workloads: percentiles, ``/proc`` readers, paths."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Keep-alive connections of the load generator: at most one per CPU, and
#: never more than the two of the machine the rates were sized on.
CONNECTIONS = min(2, os.cpu_count() or 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); NaN when empty.

    A failed request enters as ``inf``: it misses every latency limit.
    """
    data = sorted(values)
    if not data:
        return math.nan
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    fraction = position - low
    if fraction == 0:
        return data[low]
    high = data[low + 1]
    return math.inf if math.isinf(high) else data[low] + (high - data[low]) * fraction


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def child_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_seconds(module: str, repeats: int = 3) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return median(times)


def environment_stamp() -> dict:
    """Host description stamped into every output."""
    from repro.utils.envinfo import environment_metadata

    return {**environment_metadata(), "nproc": os.cpu_count()}
