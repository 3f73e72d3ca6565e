"""Smoke benchmark: batched stochastic kernels vs scalar loops, as a JSON artifact.

Runs without pytest (plain script, stdlib + NumPy only) so CI can execute it
as a standalone job::

    PYTHONPATH=src python benchmarks/bench_mc.py --output BENCH_mc.json

Three comparisons are timed, one per batched stochastic family:

* ``simulate_dispersal_batch`` (:mod:`repro.batch.simulation`) vs a loop of
  scalar :class:`~repro.simulation.engine.DispersalSimulator` runs — the
  Monte-Carlo calibration-sweep regime: many ragged instances with mixed
  per-row ``k``, a moderate trial count each;
* ``simulate_search_batch`` (:mod:`repro.batch.search`) vs a loop of scalar
  :func:`~repro.search.simulator.simulate_search` calls over a mixed
  strategy roster;
* ``optimal_grant_design_batch`` (:mod:`repro.batch.mechanism`) vs a loop of
  scalar :func:`~repro.mechanism.kleinberg_oren.optimal_grant_design` calls
  (each a full water-filling IFD solve of the re-priced game).

Each comparison includes a correctness spot check (the artifact can never
report a fast wrong answer).  The script exits non-zero when any family's
speedup falls below ``--min-speedup`` (default 5x) — the acceptance bar the
batched stochastic layer was built against, enforced as a gate by the CI
``bench-smoke`` job.
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
    coverage_batch,
    optimal_grant_design_batch,
    simulate_dispersal_batch,
    simulate_search_batch,
)
from repro.batch.search import as_prior_batch, as_search_strategy_batch
from repro.core.policies import SharingPolicy
from repro.core.sigma_star import sigma_star
from repro.core.values import SiteValues
from repro.mechanism import optimal_grant_design
from repro.search import (
    BayesianSearchProblem,
    proportional_strategy,
    simulate_search,
    uniform_strategy,
)
from repro.simulation import DispersalSimulator

SEED = 20180503

#: Simulation grid: many ragged instances, mixed per-row k, moderate trials —
#: the Monte-Carlo calibration-sweep regime the experiment harness runs.
SIM_N_INSTANCES = 512
SIM_M_RANGE = (5, 16)
SIM_K_CHOICES = (2, 3, 4)
SIM_N_TRIALS = 64

#: Search grid.
SEARCH_N_PROBLEMS = 384
SEARCH_M_RANGE = (5, 20)
SEARCH_K_CHOICES = (2, 4, 8)
SEARCH_N_TRIALS = 384
SEARCH_MAX_ROUNDS = 200

#: Mechanism (grant-design) grid.
MECH_N_INSTANCES = 48
MECH_M_RANGE = (4, 10)
MECH_K_CHOICES = (2, 3, 5)


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


def bench_simulation(rng, repeats: int) -> dict:
    instances = ragged_instances(rng, SIM_N_INSTANCES, SIM_M_RANGE)
    padded = PaddedValues.from_instances(instances)
    ks = rng.choice(SIM_K_CHOICES, size=len(instances)).astype(np.int64)
    strategies = np.zeros(padded.values.shape)
    for index, values in enumerate(instances):
        strategies[index, : values.m] = sigma_star(values, int(ks[index])).strategy.as_array()
    policy = SharingPolicy()

    simulate_dispersal_batch(padded, strategies, ks, policy, SIM_N_TRIALS, 0)  # warm-up
    batched = best_of(
        lambda: simulate_dispersal_batch(padded, strategies, ks, policy, SIM_N_TRIALS, 0),
        repeats,
    )
    simulators = [
        DispersalSimulator(values, int(ks[i]), policy) for i, values in enumerate(instances)
    ]
    row_strategies = [
        strategies[i, : values.m] for i, values in enumerate(instances)
    ]
    from repro.core.strategy import Strategy

    row_strategies = [Strategy(row) for row in row_strategies]
    looped = best_of(
        lambda: [
            simulator.run(strategy, SIM_N_TRIALS, i)
            for i, (simulator, strategy) in enumerate(zip(simulators, row_strategies))
        ],
        max(1, repeats // 2),
    )

    # Correctness spot check: batched means sit within Monte-Carlo error of
    # the exact coverage of every checked row.
    batch = simulate_dispersal_batch(padded, strategies, ks, policy, 4_000, 1)
    unique_ks = np.unique(ks)
    columns = np.searchsorted(unique_ks, ks)
    exact = coverage_batch(padded, strategies, unique_ks)[
        np.arange(len(instances)), columns
    ]
    for index in (0, len(instances) // 2, len(instances) - 1):
        sem = max(float(batch.coverage_sems[index]), 1e-9)
        assert abs(float(batch.coverage_means[index]) - float(exact[index])) < 8 * sem

    return {
        "grid": {
            "instances": len(instances),
            "m_range": list(SIM_M_RANGE),
            "k_choices": list(SIM_K_CHOICES),
            "n_trials": SIM_N_TRIALS,
        },
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def bench_search(rng, repeats: int) -> dict:
    problems = [
        BayesianSearchProblem.from_weights(rng.uniform(0.1, 2.0, int(m)))
        for m in rng.integers(SEARCH_M_RANGE[0], SEARCH_M_RANGE[1], size=SEARCH_N_PROBLEMS)
    ]
    ks = rng.choice(SEARCH_K_CHOICES, size=len(problems)).astype(np.int64)
    strategies = [
        uniform_strategy(problem) if index % 2 else proportional_strategy(problem)
        for index, problem in enumerate(problems)
    ]
    priors = as_prior_batch(problems)
    matrix = as_search_strategy_batch(strategies, priors)
    options = dict(max_rounds=SEARCH_MAX_ROUNDS)

    simulate_search_batch(priors, matrix, ks, SEARCH_N_TRIALS, rng=0, **options)  # warm-up
    batched = best_of(
        lambda: simulate_search_batch(priors, matrix, ks, SEARCH_N_TRIALS, rng=0, **options),
        repeats,
    )
    looped = best_of(
        lambda: [
            simulate_search(problem, strategy, int(ks[i]), SEARCH_N_TRIALS, rng=i, **options)
            for i, (problem, strategy) in enumerate(zip(problems, strategies))
        ],
        max(1, repeats // 2),
    )

    # Correctness spot check: empirical round-one rates track the closed form.
    from repro.batch import success_probability_batch

    batch = simulate_search_batch(priors, matrix, ks, 4_000, rng=1, **options)
    expected = success_probability_batch(priors, matrix, ks)
    for index in (0, len(problems) // 2, len(problems) - 1):
        sem = float(np.sqrt(expected[index] * (1 - expected[index]) / 4_000))
        assert abs(float(batch.round_one_success_rates[index]) - float(expected[index])) < 8 * max(sem, 1e-9)

    return {
        "grid": {
            "problems": len(problems),
            "m_range": list(SEARCH_M_RANGE),
            "k_choices": list(SEARCH_K_CHOICES),
            "n_trials": SEARCH_N_TRIALS,
            "max_rounds": SEARCH_MAX_ROUNDS,
        },
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def bench_mechanism(rng, repeats: int) -> dict:
    instances = ragged_instances(rng, MECH_N_INSTANCES, MECH_M_RANGE)
    padded = PaddedValues.from_instances(instances)
    ks = rng.choice(MECH_K_CHOICES, size=len(instances)).astype(np.int64)
    policy = SharingPolicy()

    optimal_grant_design_batch(padded, ks, policy)  # warm-up
    batched = best_of(lambda: optimal_grant_design_batch(padded, ks, policy), repeats)
    looped = best_of(
        lambda: [
            optimal_grant_design(values, int(ks[i]), policy)
            for i, values in enumerate(instances)
        ],
        max(1, repeats // 2),
    )

    batch = optimal_grant_design_batch(padded, ks, policy)
    for index in (0, len(instances) // 2, len(instances) - 1):
        scalar = optimal_grant_design(instances[index], int(ks[index]), policy)
        np.testing.assert_allclose(
            batch.rewards[index, : instances[index].m], scalar.rewards, atol=1e-8
        )
        np.testing.assert_allclose(
            batch.induced_coverages[index], scalar.induced_coverage, atol=1e-6
        )

    return {
        "grid": {
            "instances": len(instances),
            "m_range": list(MECH_M_RANGE),
            "k_choices": list(MECH_K_CHOICES),
        },
        "batched_seconds": batched,
        "looped_seconds": looped,
        "speedup": looped / batched,
    }


def run_mc_bench(output: Path, *, repeats: int, min_speedup: float) -> tuple[bool, list[str]]:
    """Time the three stochastic families and write the artifact; returns (ok, lines)."""
    rng = np.random.default_rng(SEED)
    families = {
        "simulation": bench_simulation(rng, repeats),
        "search": bench_search(rng, repeats),
        "mechanism": bench_mechanism(rng, repeats),
    }
    report = {
        "benchmark": "batched stochastic kernels vs scalar loops",
        "environment": environment_metadata(),
        "min_speedup_required": min_speedup,
        "families": families,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")

    ok = True
    lines = []
    for name, entry in families.items():
        speedup = entry["speedup"]
        lines.append(
            f"{name}: batched {entry['batched_seconds'] * 1e3:.1f} ms, "
            f"looped {entry['looped_seconds'] * 1e3:.1f} ms -> {speedup:.1f}x"
        )
        if speedup < min_speedup:
            ok = False
    lines.append(f"artifact written to {output}")
    return ok, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=Path("BENCH_mc.json"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="Fail when any family's batched-vs-looped speedup drops below this.",
    )
    args = parser.parse_args(argv)

    ok, lines = run_mc_bench(args.output, repeats=args.repeats, min_speedup=args.min_speedup)
    for line in lines:
        print(line)
    if not ok:
        print(
            f"FAIL: a stochastic family's speedup fell below {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
