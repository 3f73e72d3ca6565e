"""Content-addressed LRU result cache of the equilibrium service.

Keys are the :attr:`~repro.serving.requests.ServingRequest.cache_key`
SHA-256 digests of canonicalised requests (:mod:`repro.utils.canonical`):
any two spellings of the same mathematical question share one slot, and the
cached answer is exact — closed forms and fixed-budget solvers do not
depend on when or with whom they were computed, so a hit is simply the
answer, not an approximation of it.

Values are response bodies: the strict-JSON bytes the scheduler encoded
once when the answer settled, which the HTTP front writes as they are.  A
body is about a third the size of the dict of boxed floats it encodes, and
a hit pays no encode.

The cache is bounded (strict LRU on both reads and writes) and counts hits,
misses, evictions and the bytes it holds for the ``/stats`` endpoint and the
serving benchmark.  A :class:`threading.Lock` guards the order-mutating
operations: the HTTP front runs on one event loop, but benchmarks and
embedding applications may probe from worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU mapping ``cache_key -> response body``."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> bytes | None:
        """The cached body for ``key`` (refreshing its recency), else ``None``."""
        with self._lock:
            body = self._entries.get(key)
            if body is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return body

    def put(self, key: str, body: bytes) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used entry."""
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                self._bytes -= len(previous)
            self._entries[key] = body
            self._entries.move_to_end(key)
            self._bytes += len(body)
            while len(self._entries) > self.max_entries:
                self._bytes -= len(self._entries.popitem(last=False)[1])
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict[str, Any]:
        """Counters for ``/stats`` and the benchmark artifact."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
