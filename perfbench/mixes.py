"""Seeded request mix and load plan of the ``serve-light`` workload.

Everything the server receives is generated here from the workload seed: the
program sees only the request bodies.  Family shares are exact and each
slice repeats one fixed list of request shapes (family, m, k), so two seeds
differ in the site values, the repeats and the arrival times, never in how
much work of each kind they send.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Open-loop arrival rate of the latency phase (requests per second).
LATENCY_RPS = 250.0
#: Share of ``--seconds`` for the latency phase; the capacity phase (both
#: connections back to back) gets the rest.  The two alternate in ``SLICES``
#: slices each.
LATENCY_SHARE = 0.7
SLICES = 20
#: The capacity phase sends this many requests per second of its share, so
#: every run does the same work and a faster program finishes sooner.
NOMINAL_RPS = 900.0
DEADLINE_S = 10.0
FAMILIES = {"solve-exclusive": 0.6, "sweep": 0.4}
#: Repeats re-send one of this many most recent distinct requests of the same
#: stream; the latency and capacity streams interleave, so their pools
#: together stay well inside the server's 4096-entry cache.
REPEAT_POOL = 1024
REPEAT_SHARE = 0.25
SWEEP_K_GRID = tuple(range(2, 22))
#: Warm-up requests come from their own fixed stream, never the workload's.
_WARMUP_SEED = 2**40 + 11
#: The request shapes of a slice (family, m, k) are fixed by the workload.
_TEMPLATE_SEED = 2**40 + 12


@dataclass
class Request:
    family: str
    path: str
    payload: dict
    body: bytes = b""
    #: Canonical identity: equal exactly when the server must give equal answers.
    key: tuple = ()
    repeat: bool = False
    m: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        self.body = json.dumps(self.payload, separators=(",", ":")).encode()


#: The shape of a request: everything but its values, ``(family, m, k)``.
Shape = tuple[str, int, int]


def _values(rng: np.random.Generator, m: int) -> list[float]:
    """``m`` site values in [0.05, 1] with six decimals (short JSON spellings)."""
    return (rng.integers(50_000, 1_000_001, size=m) / 1e6).tolist()


def _key(path: str, values: list[float], **params: object) -> tuple:
    return (path, tuple(sorted(values, reverse=True)), tuple(sorted(params.items())))


def _spread(q: float, options: range | tuple) -> int:
    """The option at quantile ``q`` in [0, 1)."""
    return int(options[int(q * len(options))])


def shape(family: str, q_m: float, q_k: float) -> Shape:
    """The shape at quantiles ``q_m`` and ``q_k`` of the family's M and k ranges."""
    k = _spread(q_k, (3, 8)) if family == "solve-exclusive" else 0
    return family, _spread(q_m, range(65, 128)), k


def build(rng: np.random.Generator, shape: Shape) -> Request:
    """A request of ``shape`` with fresh site values."""
    family, m, k = shape
    values = _values(rng, m)
    if family == "solve-exclusive":
        payload = {"values": values, "k": k, "policy": "exclusive"}
        return Request(family, "/solve", payload, key=_key("/solve", values, k=k, p="exclusive"),
                       m=m, k=k)
    payload = {"values": values, "k_grid": list(SWEEP_K_GRID)}
    return Request(family, "/sweep", payload, key=_key("/sweep", values), m=m)


def warmup() -> list[Request]:
    """A fixed warm-up set, eight requests per family."""
    rng = np.random.default_rng(_WARMUP_SEED)
    return [build(rng, shape(family, rng.random(), i / 8))
            for family in FAMILIES for i in range(8)]


def _roster(rng: np.random.Generator, shares: dict[str, float], n: int) -> list[str]:
    roster: list[str] = []
    for family, share in shares.items():
        roster += [family] * round(share * n)
    while len(roster) < n:
        roster.append(next(iter(shares)))
    del roster[n:]
    return [roster[i] for i in rng.permutation(n)]


def _respell(rng: np.random.Generator, original: Request) -> Request:
    """The same question with its values (and ``k_grid``) in another order."""
    payload = dict(original.payload)
    for name in ("values", "k_grid"):
        if name in payload:
            payload[name] = [payload[name][i] for i in rng.permutation(len(payload[name]))]
    return Request(original.family, original.path, payload, key=original.key, repeat=True,
                   m=original.m, k=original.k)


def _template(rng: np.random.Generator, n: int) -> list[Shape]:
    """``n`` shapes with exact family shares and stratified ``m`` and ``k``.

    Request cost follows ``k`` and the padded width of ``m``; spreading both
    evenly over their ranges makes every seed's template about equally hard.
    """
    families = _roster(rng, FAMILIES, n)
    counts = {family: families.count(family) for family in FAMILIES}
    orders = {family: rng.permutation(count) for family, count in counts.items()}
    rank = dict.fromkeys(FAMILIES, 0)
    shapes = []
    for family in families:
        r, count = rank[family], counts[family]
        rank[family] += 1
        shapes.append(shape(family, (orders[family][r] + rng.random()) / count,
                            (r + rng.random()) / count))
    return shapes


def generate(rng: np.random.Generator, per_slice: int, slices: int) -> list[Request]:
    """``slices`` consecutive slices of ``per_slice`` requests, every body unique.

    Every slice sends the same shapes in the same order, each time with fresh
    values, so slices are equally hard and differ only in when they ran.  The
    shapes are part of the workload's definition and the same for every
    seed; the seed draws the values, the repeats and the order of arrival.
    Repeats (re-spelled earlier requests) take an exact share of each slice.
    """
    template = _template(np.random.default_rng(_TEMPLATE_SEED), per_slice)
    # Each family repeats from its share of the pool, so the pool spans the
    # last REPEAT_POOL distinct requests whatever the family mix.
    originals: dict[str, list[Request]] = {family: [] for family in FAMILIES}
    seen: set[bytes] = set()
    out: list[Request] = []
    for _ in range(slices):
        kinds = _roster(rng, {"repeat": REPEAT_SHARE, "new": 1.0 - REPEAT_SHARE}, per_slice)
        for one, kind in zip(template, kinds):
            family = one[0]
            request = None
            pool = originals[family][-int(REPEAT_POOL * FAMILIES[family]):]
            if kind == "repeat" and pool:
                for _ in range(8):
                    candidate = _respell(rng, pool[rng.integers(len(pool))])
                    if candidate.body not in seen:
                        request = candidate
                        break
            while request is None or request.body in seen:
                request = build(rng, one)
            if not request.repeat:
                originals[family].append(request)
            seen.add(request.body)
            out.append(request)
    return out


def poisson_offsets(rng: np.random.Generator, rate: float, n: int) -> list[float]:
    """Due times (seconds from phase start) of ``n`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n)).tolist()


def realised_mix(requests: list[Request]) -> dict:
    """Family shares, repeat share and M/k histograms actually sent."""
    n = max(1, len(requests))
    families: dict[str, int] = {}
    m_hist: dict[str, int] = {}
    k_hist: dict[str, int] = {}
    for request in requests:
        families[request.family] = families.get(request.family, 0) + 1
        bucket = f"{request.m // 16 * 16}-{request.m // 16 * 16 + 15}"
        m_hist[bucket] = m_hist.get(bucket, 0) + 1
        k_hist[str(request.k)] = k_hist.get(str(request.k), 0) + 1
    return {
        "requests": len(requests),
        "family_shares": {f: c / n for f, c in sorted(families.items())},
        "repeat_share": sum(r.repeat for r in requests) / n,
        "m_histogram": dict(sorted(m_hist.items())),
        "k_histogram": dict(sorted(k_hist.items())),
    }
