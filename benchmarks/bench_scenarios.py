"""Smoke benchmark: batched scenario kernels vs looped calls, as a JSON artifact.

Runs without pytest (plain script, stdlib + NumPy only) so CI can execute it
as a standalone job::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --output BENCH_scenarios.json

Four comparisons are timed, one per batched scenario family of
:mod:`repro.batch.scenarios`:

* ``cost_adjusted_ifd_batch`` vs a loop of its one-row calls (ragged
  instances, mixed per-row ``k``, per-row cost vectors);
* ``two_group_competition_batch`` vs a loop of its one-row calls over a mixed
  policy-pair roster;
* ``repeated_dispersal_batch`` (adaptive ``sigma_star`` schedule) vs a loop
  of its one-row calls;
* ``best_two_level_batch`` vs a loop of scalar ``best_two_level_policy``
  calls over the same ``C_c`` grid.

The scenario kernels have no scalar front: a caller with one instance makes
the one-row call on ``f[None, :]``, which is what the loops time.

Each comparison includes a correctness spot check (the artifact can never
report a fast wrong answer).  The script exits non-zero when any family's
speedup falls below ``--min-speedup`` (default 5x) — the acceptance bar the
batched scenario layer was built against, enforced as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.utils.envinfo import environment_metadata

from repro.batch import (
    PaddedValues,
    best_two_level_batch,
    cost_adjusted_ifd_batch,
    cost_adjusted_site_values_batch,
    repeated_dispersal_batch,
    two_group_competition_batch,
)
from repro.core.ifd import verify_ifd
from repro.core.policies import AggressivePolicy, ExclusivePolicy, SharingPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.mechanism import best_two_level_policy

SEED = 20180503

#: Travel-cost grid: ragged instances with mixed per-row player counts.
TC_N_INSTANCES = 96
TC_M_RANGE = (6, 24)
TC_K_CHOICES = (2, 3, 4, 6, 8)

#: Two-group grid: every ordered pair of the roster, repeated over instances.
GC_N_MATCHUPS = 60
GC_M_RANGE = (6, 20)
GC_K = 6

#: Repeated-dispersal grid.
RD_N_HORIZONS = 256
RD_M_RANGE = (6, 24)
RD_K_CHOICES = (2, 3, 5, 8)
RD_ROUNDS = 6

#: Mechanism sweep: instances x k grid x C_c grid.
BT_N_INSTANCES = 16
BT_M_RANGE = (4, 10)
BT_K_GRID = (2, 3)
BT_C_POINTS = 9


def best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def ragged_instances(rng, count, m_range) -> list[SiteValues]:
    return [
        SiteValues.random(int(m), rng, low=0.1, high=3.0)
        for m in rng.integers(m_range[0], m_range[1], size=count)
    ]


def bench_travel_costs(rng, repeats: int) -> dict:
    instances = ragged_instances(rng, TC_N_INSTANCES, TC_M_RANGE)
    padded = PaddedValues.from_instances(instances)
    ks = rng.choice(TC_K_CHOICES, size=len(instances)).astype(np.int64)
    costs = np.where(padded.mask, rng.uniform(0.0, 0.4, padded.values.shape), 0.0)
    policy = SharingPolicy()

    cost_adjusted_ifd_batch(padded, costs, ks, policy)  # warm-up
    batched = best_of(lambda: cost_adjusted_ifd_batch(padded, costs, ks, policy), repeats)
    looped = best_of(
        lambda: [
            cost_adjusted_ifd_batch(
                values.as_array()[None, :], costs[i, : values.m], int(ks[i]), policy
            )
            for i, values in enumerate(instances)
        ],
        max(1, repeats // 2),
    )

    # Each spot-checked row must meet the IFD conditions of its own game:
    # equal net values on the support, none higher off it.
    batch = cost_adjusted_ifd_batch(padded, costs, ks, policy)
    nu = cost_adjusted_site_values_batch(padded, costs, batch.probabilities, ks, policy)
    for index in (0, len(instances) // 2, len(instances) - 1):
        m = instances[index].m
        support = batch.probabilities[index, :m] > 1e-9
        net = nu[index, :m]
        assert np.ptp(net[support]) < 1e-6, (index, net)
        assert net.max() <= batch.values[index] + 1e-6, (index, net)

    return {
        "grid": {"instances": len(instances), "m_range": list(TC_M_RANGE), "k_choices": list(TC_K_CHOICES)},
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def bench_group_competition(rng, repeats: int) -> dict:
    roster = [ExclusivePolicy(), SharingPolicy(), AggressivePolicy(0.5)]
    pairs = [(a, b) for a in roster for b in roster if a is not b]
    matchups = [pairs[i % len(pairs)] for i in range(GC_N_MATCHUPS)]
    instances = ragged_instances(rng, GC_N_MATCHUPS, GC_M_RANGE)
    padded = PaddedValues.from_instances(instances)
    firsts = [pair[0] for pair in matchups]
    seconds = [pair[1] for pair in matchups]

    two_group_competition_batch(padded, firsts, seconds, GC_K)  # warm-up
    batched = best_of(
        lambda: two_group_competition_batch(padded, firsts, seconds, GC_K), repeats
    )
    looped = best_of(
        lambda: [
            two_group_competition_batch(values.as_array()[None, :], first, second, GC_K)
            for values, (first, second) in zip(instances, matchups)
        ],
        max(1, repeats // 2),
    )

    # The spot check asks each wave to be an IFD of its own game: the first
    # on the values, the second on the expected leftovers.
    batch = two_group_competition_batch(padded, firsts, seconds, GC_K)
    for index in (0, GC_N_MATCHUPS // 2, GC_N_MATCHUPS - 1):
        f = instances[index].as_array()
        p1 = batch.first_strategies[index, : f.size]
        p2 = batch.second_strategies[index, : f.size]
        leftovers = np.maximum(f * (1.0 - p1) ** GC_K, 1e-12)
        for wave_values, strategy, policy in ((f, p1, firsts[index]), (leftovers, p2, seconds[index])):
            report = verify_ifd(wave_values, Strategy(strategy), GC_K, policy)
            assert report.is_ifd, (index, report)

    return {
        "grid": {"matchups": GC_N_MATCHUPS, "m_range": list(GC_M_RANGE), "k": GC_K},
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def bench_repeated(rng, repeats: int) -> dict:
    instances = ragged_instances(rng, RD_N_HORIZONS, RD_M_RANGE)
    padded = PaddedValues.from_instances(instances)
    ks = rng.choice(RD_K_CHOICES, size=len(instances)).astype(np.int64)
    depletions = rng.uniform(0.0, 0.6, len(instances))

    options = dict(rounds=RD_ROUNDS, schedule="adaptive")
    repeated_dispersal_batch(padded, ks, depletion=depletions, **options)  # warm-up
    batched = best_of(
        lambda: repeated_dispersal_batch(padded, ks, depletion=depletions, **options),
        repeats,
    )
    def one_row(i: int):
        return repeated_dispersal_batch(
            instances[i].as_array()[None, :], int(ks[i]), depletion=depletions[i], **options
        )

    looped = best_of(
        lambda: [one_row(i) for i in range(len(instances))], max(1, repeats // 2)
    )

    # Every horizon conserves value, and a row of the batch equals the same
    # instance solved alone.
    batch = repeated_dispersal_batch(padded, ks, depletion=depletions, **options)
    totals = np.where(padded.mask, padded.values, 0.0).sum(axis=1)
    np.testing.assert_allclose(
        batch.cumulative_consumption + batch.remaining_values, totals, rtol=1e-9
    )
    for index in (0, RD_N_HORIZONS // 2, RD_N_HORIZONS - 1):
        np.testing.assert_allclose(
            batch.per_round_consumption[index],
            one_row(index).per_round_consumption[0],
            atol=1e-9,
        )

    return {
        "grid": {
            "horizons": RD_N_HORIZONS,
            "m_range": list(RD_M_RANGE),
            "k_choices": list(RD_K_CHOICES),
            "rounds": RD_ROUNDS,
        },
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def bench_best_two_level(rng, repeats: int) -> dict:
    instances = ragged_instances(rng, BT_N_INSTANCES, BT_M_RANGE)
    padded = PaddedValues.from_instances(instances)
    ks = np.asarray(BT_K_GRID, dtype=np.int64)
    c_grid = np.linspace(-0.5, 0.5, BT_C_POINTS)

    best_two_level_batch(padded, ks, c_grid=c_grid)  # warm-up
    batched = best_of(lambda: best_two_level_batch(padded, ks, c_grid=c_grid), repeats)
    looped = best_of(
        lambda: [
            best_two_level_policy(values, int(k), c_grid=c_grid)
            for values in instances
            for k in ks
        ],
        max(1, repeats // 2),
    )

    batch = best_two_level_batch(padded, ks, c_grid=c_grid)
    for index in (0, BT_N_INSTANCES - 1):
        for k_index, k in enumerate(ks):
            _, rows = best_two_level_policy(instances[index], int(k), c_grid=c_grid)
            # Compare achieved coverages, not argmax cells: coverage plateaus
            # can tie adjacent c cells to within solver tolerance.
            np.testing.assert_allclose(
                batch.best_coverages[index, k_index],
                max(row.equilibrium_coverage for row in rows),
                atol=1e-5,
            )

    return {
        "grid": {
            "instances": BT_N_INSTANCES,
            "m_range": list(BT_M_RANGE),
            "k_grid": list(BT_K_GRID),
            "c_points": BT_C_POINTS,
        },
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=Path("BENCH_scenarios.json"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="Fail when any family's batched-vs-looped speedup drops below this.",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(SEED)
    families = {
        "cost_adjusted_ifd": bench_travel_costs(rng, args.repeats),
        "two_group_competition": bench_group_competition(rng, args.repeats),
        "repeated_dispersal": bench_repeated(rng, args.repeats),
        "best_two_level": bench_best_two_level(rng, args.repeats),
    }

    report = {
        "benchmark": "batched scenario kernels vs looped calls",
        "environment": environment_metadata(),
        "min_speedup_required": args.min_speedup,
        "families": families,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    failed = False
    for name, entry in families.items():
        speedup = entry["speedup"]
        print(
            f"{name}: batched {entry['batched_seconds'] * 1e3:.1f} ms, "
            f"looped {entry['looped_seconds'] * 1e3:.1f} ms -> {speedup:.1f}x"
        )
        if speedup < args.min_speedup:
            print(
                f"FAIL: {name} speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            failed = True
    print(f"artifact written to {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
