"""How fast the host runs, from a fixed piece of reference work timed alongside.

The benchmark shares a few cores of a host with other tenants, and the speed
it gets drifts: the same pure-Python loop took 47 ms in one 15 s window and
68 ms two minutes later, and a 7 ms reference flips between about 3.5 and 7.5
ms from one second to the next (2-CPU sandbox).  A drift that slow moves
whole runs, so medians over a run do not remove it.  The benchmark therefore
runs a :class:`Probe` next to the program for the whole run, and reports every
timing of the run at a nominal host speed:

    scaled time = measured time * NOMINAL_MS / mean reference time

where the mean is over the whole run, except for set-up: that is a few
seconds at the start, so its mean is over the samples taken during it.

The probe is a separate process at the lowest priority.  Every ``PERIOD_S`` it
runs a short reference and records the CPU time it took; CPU time leaves out
the waits for the program it yields to, and the host's slow spells slow it as
they slow the program.  The reference is the benchmark's own code and never
calls the program, so a faster program still reads faster; a slower host no
longer does.  Raw figures stay in the run's record.

    python3 perfbench/hostspeed.py        # the probe: prints samples on SIGTERM
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: CPU time of one reference call on the host the bounds were set on, at its
#: usual speed; scaled figures are what that host would show.
NOMINAL_MS = 1.0
#: Pause between two reference calls: the probe takes about 5% of one core.
PERIOD_S = 0.02
_ROUNDS = 4
_VALUES = np.random.default_rng(2**40 + 13).random(96)


def _work() -> int:
    """The mix the program spends its time in: interpreter, JSON, small NumPy."""
    total = 0
    for round_ in range(_ROUNDS):
        text = json.dumps({"values": _VALUES.tolist(), "k": 3 + round_ % 5})
        values = np.sort(np.asarray(json.loads(text)["values"]))[::-1]
        total += int(np.cumsum(values).argmax()) + len(text)
        table = {i: i * i for i in range(200)}
        total += sum(v for k, v in table.items() if k % 3) % 7
    return total


class Probe:
    """The probe process for the duration of a ``with`` block; ``samples``
    holds ``(perf_counter time, CPU ms)`` of every reference call once the
    block has ended."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE,
                                      text=True)
        ready, _, _ = select.select([self._proc.stdout], [], [], 60)
        if not ready or self._proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("host-speed probe did not start")
        return self

    def __exit__(self, *exc: object) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return
        if proc.returncode == 0 and out.strip():
            self.samples = json.loads(out.strip().splitlines()[-1])


def scale(samples: list[list[float]], windows: list[tuple[float, float]] | None = None) -> float:
    """Factor that brings times measured during ``windows`` (``perf_counter``
    intervals; the whole run by default) to nominal host speed."""
    inside = [ms for t, ms in samples if windows is None or any(lo <= t <= hi for lo, hi in windows)]
    if not inside:
        raise RuntimeError("host-speed probe recorded nothing in the measured windows")
    return NOMINAL_MS / statistics.fmean(inside)


def _probe() -> None:
    os.nice(19)
    parent = os.getppid()
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    _work()
    print("ready", flush=True)
    samples = []
    while not stopped and os.getppid() == parent:  # an orphaned probe ends itself
        start = time.process_time()
        _work()
        samples.append((time.perf_counter(), (time.process_time() - start) * 1e3))
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    _probe()
