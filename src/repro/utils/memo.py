"""Cross-call memo of binomial-PMF plans.

A :class:`~repro.utils.numerics.BinomialPmfPlan` stages the log binomial
coefficients of one ``(backend, trial counts)`` pair.  The IFD solver, the
payoff and scenario kernels and the serving engine stage a plan once per
call; :class:`PlanMemo` lets calls with equal keys share it.  Keys pin the
backend name, device, float dtype and the per-row trial counts (a constant
roster keys on ``(value, size)``), so a hit is exactly the plan a fresh
:func:`~repro.utils.numerics.make_binomial_pmf_plan` call would build and
outputs are elementwise identical with the memo on or off.  The counters
feed the serving ``/stats`` endpoint and the benchmarks.

A lock guards the LRU (thread-pool executors solve groups concurrently);
process-pool workers each warm their own :data:`plan_memo`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.utils.numerics import BinomialPmfPlan

__all__ = ["PlanMemo", "plan_memo", "cached_binomial_pmf_plan"]


def _plan_key(backend: Any, trials: np.ndarray) -> tuple:
    """Everything a cached plan's device tensors depend on, as a dict key."""
    if trials.size and int(trials.min()) == int(trials.max()):
        shape: tuple = ("const", int(trials[0]), trials.size)
    else:
        shape = ("roster", trials.size, trials.tobytes())
    return (backend.name, str(backend.device), str(backend.float_dtype), shape)


class PlanMemo:
    """Bounded LRU of plans; the least recently used one goes beyond ``max_entries``."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, BinomialPmfPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.enabled = True
        self.hits = self.misses = self.evictions = self.bypasses = 0

    def get(
        self, n: np.ndarray | int, *, batch_size: int | None = None, backend: Any = None
    ) -> "BinomialPmfPlan":
        """The plan for trial counts ``n`` (arguments as in ``make_binomial_pmf_plan``).

        A miss builds and caches it; with the memo disabled every call builds
        a fresh plan and counts a bypass.
        """
        from repro.backend import resolve_backend
        from repro.utils.numerics import make_binomial_pmf_plan

        be = resolve_backend(backend)
        trials = np.asarray(n, dtype=np.int64)
        if trials.ndim == 0:
            if batch_size is None:
                raise ValueError("a scalar n requires batch_size")
            trials = np.broadcast_to(trials, (int(batch_size),))
        if not self.enabled:
            with self._lock:
                self.bypasses += 1
            return make_binomial_pmf_plan(trials, backend=be)
        key = _plan_key(be, trials)
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return plan
            self.misses += 1
        plan = make_binomial_pmf_plan(trials, backend=be)  # may upload: outside the lock
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return plan

    def clear(self) -> None:
        """Drop every cached plan (the counters keep describing the lifetime)."""
        with self._lock:
            self._entries.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = self.bypasses = 0

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Bypass the memo inside the block (every call builds a fresh plan)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


#: The process-wide memo the batch kernels consult.
plan_memo = PlanMemo()


def cached_binomial_pmf_plan(
    n: np.ndarray | int, *, batch_size: int | None = None, backend: Any = None
) -> "BinomialPmfPlan":
    """:func:`~repro.utils.numerics.make_binomial_pmf_plan` through :data:`plan_memo`."""
    return plan_memo.get(n, batch_size=batch_size, backend=backend)
