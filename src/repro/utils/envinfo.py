"""Host-environment introspection: CPU budget and provenance metadata.

Two consumers share these helpers:

* the sweep strategies and the service's pools size themselves with
  :func:`pool_workers`, which defaults to :func:`available_cpus`: it
  respects container CPU limits (``sched_getaffinity``) instead of counting
  every core on the machine;
* the benchmark scripts stamp :func:`environment_metadata` into every
  ``BENCH_*.json`` artifact so timing trajectories are comparable across
  machines (a 10x speedup on 2 cores and a 10x speedup on 64 cores are
  different facts), and the serving ``/stats`` endpoint reports the same
  block.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any

import numpy as np

__all__ = ["available_cpus", "pool_workers", "environment_metadata"]


def available_cpus() -> int:
    """CPUs actually available to this process (container-limit aware).

    ``os.sched_getaffinity(0)`` reflects cgroup/taskset restrictions on
    Linux; ``os.cpu_count()`` is the fallback where affinity masks do not
    exist (macOS, Windows).  Always at least 1.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return max(1, len(getter(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return max(1, os.cpu_count() or 1)


def pool_workers(workers: int | None) -> int:
    """A pool's worker count: ``workers``, or :func:`available_cpus` when unset or 0."""
    count = int(workers) if workers else available_cpus()
    if count < 1:
        raise ValueError("workers must be >= 1")
    return count


def environment_metadata() -> dict[str, Any]:
    """A JSON-ready snapshot of the host environment for artifact provenance."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": available_cpus(),
    }
