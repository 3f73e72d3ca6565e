"""Command-line interface for the reproduction experiments.

Usage (after ``pip install -e .``)::

    repro-dispersal figure1 [--output-dir results/] [--seed 0] [--json]
    repro-dispersal observation1
    repro-dispersal spoa [--quick]
    repro-dispersal ess [--mutants 25]
    repro-dispersal sweep [--m 20] [--policy sharing exclusive]
    repro-dispersal dynamics [--rule logit] [--grid full] [--batch 128]
    repro-dispersal travel-costs [--policy sharing] [--cost-scales 0 0.1 0.3]
    repro-dispersal group-competition [--policies exclusive sharing aggressive]
    repro-dispersal repeated [--rounds 6] [--depletions 0 0.25 0.5]
    repro-dispersal search [--trials 600] [--strategies sigma_star uniform]
    repro-dispersal coverage-times [--trials 400] [--horizon 64]
    repro-dispersal mechanism [--policies exclusive sharing] [--design-policy sharing]
    repro-dispersal serve [--host 127.0.0.1] [--port 8080] [--max-batch 64]
    repro-dispersal experiments

or equivalently ``python -m repro.cli ...``.  Every sub-command is a thin
client of the experiment registry (:mod:`repro.experiments`): the command
builds the registered spec, hands it to the runner and renders the resulting
rows.  Three flags are shared by all sub-commands:

``--seed S``
    Base seed of the experiment; reruns with the same seed are bit-identical
    (per-task generators are spawned deterministically from it).
``--json``
    Print the structured :class:`~repro.experiments.result.ExperimentResult`
    as JSON instead of the text report.
``--workers N``
    Fan tasks out to ``N`` worker processes (``0`` = serial, ``-1`` = one per
    CPU); the output does not depend on the worker count.
``--backend NAME``
    Array backend the batched kernels run on (``numpy`` default;
    ``array_api_strict`` / ``torch`` when installed — see
    ``repro.backend``).  The choice is activated around every task, in
    worker processes too, and the results do not depend on it; the
    ``REPRO_BACKEND`` environment variable sets the same default globally.
``--device NAME``
    Device the backend places arrays on (``cpu`` default; ``cuda`` / ``mps``
    with the torch backend when the accelerator is present — see
    ``repro.backend.with_device``).  Validated eagerly, threaded into worker
    processes by name, and settable globally via ``REPRO_DEVICE``.
``--executor NAME``
    Execution strategy (``serial`` / ``process`` / ``async`` — see
    ``repro.experiments.executors``); all strategies produce bit-identical
    results.
``--store DIR`` / ``--resume``
    Persist every finished grid cell to an incremental content-addressed
    store as it completes, and skip cells already stored — interrupted
    sweeps resume where they left off and widened grids only compute the
    new cells.  ``--resume`` alone uses the default ``.repro-store``
    directory.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.backend import BackendNotAvailableError, available_backends, resolve_backend
from repro.core.policies import POLICY_FACTORIES as _POLICY_FACTORIES
from repro.search.strategies import SEARCH_STRATEGY_FACTORIES as _SEARCH_STRATEGIES
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.experiments.result import ExperimentResult

# Each sub-command imports the experiment modules it runs, so parsing the
# command line (and `serve`) never loads the experiment fabric.

__all__ = ["main", "build_parser"]

#: ``repro.experiments.executors.executor_names()``, spelled out so that
#: parsing does not import the executors (a test keeps the two equal).
_EXECUTOR_NAMES = ("async", "process", "serial")

#: Preset grid densities of the ``dynamics`` sub-command (``--grid``).
_DYNAMICS_GRIDS = {
    "quick": {
        "families": ("uniform", "zipf"),
        "m_values": (5, 8),
        "k_values": (2, 3),
        "inits": ("uniform", "random"),
    },
    "full": {
        "families": ("uniform", "zipf", "geometric", "linear"),
        "m_values": (6, 12, 24),
        "k_values": (2, 3, 5, 8),
        "inits": ("uniform", "proportional", "random"),
    },
}


def _bounded(kind: Callable[[str], float], low: float, high: float = math.inf):
    """An argparse ``type`` parsing ``kind`` and refusing values outside ``[low, high]``."""

    def parse(text: str) -> float:
        value = kind(text)
        if not low <= value <= high:
            bounds = f"in [{low}, {high}]" if high < math.inf else f">= {low}"
            raise argparse.ArgumentTypeError(f"{value!r} is not {bounds}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value" errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="Base seed (bit-identical reruns).")
    common.add_argument(
        "--json", action="store_true", help="Print the structured result as JSON."
    )
    common.add_argument(
        "--workers",
        type=int,
        default=0,
        help="Worker processes (0 = serial, -1 = one per CPU).",
    )
    common.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "Array backend for the batched kernels (default: REPRO_BACKEND or "
            "numpy; array_api_strict/torch when installed — an unknown "
            "name lists what resolved on this machine)."
        ),
    )
    common.add_argument(
        "--device",
        default=None,
        metavar="NAME",
        choices=("cpu", "cuda", "mps"),
        help=(
            "Device the backend places arrays on (default: REPRO_DEVICE or "
            "cpu; cuda/mps need the torch backend plus the accelerator)."
        ),
    )
    common.add_argument(
        "--executor",
        default=None,
        choices=_EXECUTOR_NAMES,
        help=(
            "Execution strategy (default: serial below two --workers, process "
            "pool otherwise); every strategy is bit-identical."
        ),
    )
    common.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "Incremental experiment store: finished grid cells are persisted "
            "here as they complete and skipped on re-runs (resume/extend)."
        ),
    )
    common.add_argument(
        "--resume",
        action="store_true",
        help="Shorthand for --store .repro-store (resume into the default store).",
    )

    parser = argparse.ArgumentParser(
        prog="repro-dispersal",
        description="Reproduction experiments for Collet & Korman, SPAA 2018.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser(
        "figure1", parents=[common], help="Regenerate the two panels of Figure 1."
    )
    fig.add_argument("--output-dir", type=Path, default=None, help="Write CSV series here.")
    fig.add_argument("--points", type=int, default=51, help="Grid points on c in [-0.5, 0.5].")
    fig.add_argument("--no-plot", action="store_true", help="Skip the ASCII plots.")

    sub.add_parser(
        "observation1", parents=[common], help="Check the (1 - 1/e) coverage bound."
    )

    spoa = sub.add_parser(
        "spoa", parents=[common], help="SPoA experiments (Corollary 5, Theorem 6)."
    )
    spoa.add_argument("--quick", action="store_true", help="Smaller instance grid.")

    ess = sub.add_parser("ess", parents=[common], help="ESS audit of sigma_star (Theorem 3).")
    ess.add_argument("--mutants", type=int, default=25, help="Random mutants per instance.")

    sweep = sub.add_parser(
        "sweep", parents=[common], help="Coverage-ratio sweep over k for several policies."
    )
    sweep.add_argument("--m", type=int, default=20, help="Number of sites.")
    sweep.add_argument(
        "--policy",
        nargs="+",
        choices=sorted(_POLICY_FACTORIES),
        default=["exclusive", "sharing", "constant"],
    )

    dynamics = sub.add_parser(
        "dynamics",
        parents=[common],
        help="Batched evolutionary-dynamics sweep over a (family, M, k, init) grid.",
    )
    dynamics.add_argument(
        "--rule",
        choices=["discrete", "euler", "logit", "best-response"],
        default="discrete",
        help="Update rule stepped by the batched DynamicsEngine.",
    )
    dynamics.add_argument(
        "--policy",
        choices=sorted(_POLICY_FACTORIES),
        default="sharing",
        help="Congestion policy shared by every trajectory.",
    )
    dynamics.add_argument(
        "--grid",
        choices=sorted(_DYNAMICS_GRIDS),
        default="quick",
        help="Preset (family, M, k, init) grid density, passed to the spec builder.",
    )
    dynamics.add_argument(
        "--batch",
        type=int,
        default=None,
        help=(
            "Trajectories per engine run (= rows per runner task; default: "
            "auto-tuned from the grid size and CPU count)."
        ),
    )
    dynamics.add_argument("--max-iter", type=int, default=20_000, help="Iteration cap per row.")

    travel = sub.add_parser(
        "travel-costs",
        parents=[common],
        help="Cost-adjusted equilibria over a (family, M, k, cost-scale) grid.",
    )
    travel.add_argument(
        "--policy",
        choices=sorted(_POLICY_FACTORIES),
        default="sharing",
        help="Congestion policy shared by every cell.",
    )
    travel.add_argument(
        "--cost-scales",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3],
        metavar="S",
        help="Cost ceilings as fractions of the mean site value (0 = cost-free).",
    )
    travel.add_argument(
        "--batch",
        type=int,
        default=None,
        help="Grid cells per batched solver call (default: auto-tuned).",
    )

    competition = sub.add_parser(
        "group-competition",
        parents=[common],
        help="Sequential two-group contests over every ordered policy pair.",
    )
    competition.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(_POLICY_FACTORIES),
        default=["exclusive", "sharing", "aggressive"],
        help="Within-group rule roster (every ordered pair competes).",
    )
    competition.add_argument("--k", type=int, default=6, help="First group size.")
    competition.add_argument(
        "--k-second", type=int, default=None, help="Second group size (default: --k)."
    )
    competition.add_argument(
        "--batch",
        type=int,
        default=None,
        help="Matchups per batched solver call (default: auto-tuned).",
    )

    repeated = sub.add_parser(
        "repeated",
        parents=[common],
        help="Expected multi-round depletion horizons (constant vs adaptive).",
    )
    repeated.add_argument(
        "--schedules",
        nargs="+",
        choices=["adaptive", "constant"],
        default=["adaptive", "constant"],
        help="Round-strategy schedules to evaluate.",
    )
    repeated.add_argument("--rounds", type=int, default=6, help="Horizon length T.")
    repeated.add_argument(
        "--depletions",
        type=float,
        nargs="+",
        default=[0.0, 0.25, 0.5],
        metavar="D",
        help="Surviving value fractions in [0, 1) (0 = fully consumed).",
    )
    repeated.add_argument(
        "--batch",
        type=int,
        default=None,
        help="Horizons per batched kernel call (default: auto-tuned).",
    )

    search = sub.add_parser(
        "search",
        parents=[common],
        help="Bayesian box-search baselines: closed forms vs batched simulation.",
    )
    search.add_argument(
        "--strategies",
        nargs="+",
        choices=sorted(_SEARCH_STRATEGIES),
        default=["sigma_star", "uniform", "proportional", "greedy_top_k"],
        help="Round-strategy roster evaluated on every problem.",
    )
    search.add_argument("--trials", type=int, default=600, help="Simulated searches per cell.")
    search.add_argument(
        "--max-rounds", type=int, default=400, help="Censoring horizon of the simulation."
    )
    search.add_argument(
        "--batch",
        type=int,
        default=None,
        help="Grid cells per batched kernel call (default: auto-tuned).",
    )

    coverage_times = sub.add_parser(
        "coverage-times",
        parents=[common],
        help="Exact Von Schelling coverage-time laws vs the Monte-Carlo estimator.",
    )
    coverage_times.add_argument(
        "--strategies",
        nargs="+",
        choices=sorted(_SEARCH_STRATEGIES),
        default=["sigma_star", "uniform", "proportional", "greedy_top_k"],
        help="Round-strategy roster evaluated on every problem.",
    )
    coverage_times.add_argument(
        "--trials", type=int, default=400, help="Simulated coverage runs per cell."
    )
    coverage_times.add_argument(
        "--max-rounds", type=int, default=4000, help="Censoring horizon of the simulation."
    )
    coverage_times.add_argument(
        "--horizon", type=int, default=64, help="Round at which the exact CDF is reported."
    )
    coverage_times.add_argument(
        "--batch",
        type=int,
        default=None,
        help="Grid cells per batched kernel call (default: auto-tuned).",
    )

    mechanism = sub.add_parser(
        "mechanism",
        parents=[common],
        help="Congestion-rule design vs Kleinberg-Oren reward design.",
    )
    mechanism.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(_POLICY_FACTORIES),
        default=["exclusive", "sharing", "constant", "aggressive"],
        help="Congestion-rule roster swept over the grid (the paper's lever).",
    )
    mechanism.add_argument(
        "--design-policy",
        choices=sorted(_POLICY_FACTORIES),
        default="sharing",
        help="Fixed rule the reward-design lever re-prices sites under.",
    )
    mechanism.add_argument(
        "--batch",
        type=int,
        default=None,
        help="Grid cells per batched kernel call (default: auto-tuned).",
    )

    serve = sub.add_parser(
        "serve",
        help="Run the online equilibrium service (continuous batching + cache).",
        description=(
            "Persistent asyncio HTTP service exposing /solve, /sweep, /mechanism, "
            "/coverage-times, /healthz and /stats.  Requests dispatch immediately "
            "when the kernels are idle and accumulate only while they are busy "
            "(up to --max-batch, backstopped by --max-wait-ms); kernel calls run "
            "on the --executor of choice, repeated requests are answered from a "
            "content-addressed LRU cache, and a full --max-pending queue sheds "
            "load with 503 + Retry-After."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="Interface to bind.")
    serve.add_argument(
        "--port", type=_bounded(int, 0, 65535), default=8080, help="TCP port (0 = ephemeral)."
    )
    serve.add_argument(
        "--max-batch",
        type=_bounded(int, 1),
        default=64,
        help="Flush the coalescing window once this many requests are queued.",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=_bounded(float, 0),
        default=2.0,
        help="Accumulation backstop: no admitted request waits longer than this "
        "for co-batchable traffic while kernels are busy.",
    )
    serve.add_argument(
        "--cache-size",
        type=_bounded(int, 0),
        default=4096,
        help="LRU result-cache capacity in entries (0 disables caching).",
    )
    serve.add_argument(
        "--max-pending",
        type=_bounded(int, 1),
        default=1024,
        help="Bounded pending-queue depth; beyond it requests get 503 + Retry-After.",
    )
    serve.add_argument(
        "--executor",
        default=None,
        choices=("inline", "thread", "process"),
        help="Where batched kernel calls run: on the event loop (inline, default), "
        "on a thread pool, or on a warm process pool.",
    )
    serve.add_argument(
        "--workers",
        type=_bounded(int, 0),
        default=None,
        help="Pool size for --executor thread/process (0 or unset: visible CPU count).",
    )
    serve.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="Array backend the coalesced kernels run on (default: REPRO_BACKEND or numpy).",
    )
    serve.add_argument(
        "--device",
        default=None,
        metavar="NAME",
        choices=("cpu", "cuda", "mps"),
        help="Device the backend places arrays on (default: REPRO_DEVICE or cpu).",
    )

    sub.add_parser(
        "experiments", parents=[common], help="List the registered experiments."
    )
    return parser


def _execute(spec, args: argparse.Namespace) -> ExperimentResult:
    from repro.experiments.runner import run_experiment

    backend = getattr(args, "backend", None)
    device = getattr(args, "device", None)
    if backend is not None or device is not None:
        # Validate eagerly for a clean error; backend detection stays lazy so
        # plain CLI runs never pay (or crash on) torch imports.  The
        # device check also runs here so a missing accelerator fails before
        # any work is scheduled rather than inside a worker process.
        try:
            resolve_backend(backend, device=device)
        except BackendNotAvailableError as error:
            raise SystemExit(
                f"error: {error} (available: {', '.join(available_backends())})"
            ) from error
    store = getattr(args, "store", None)
    if store is None and getattr(args, "resume", False):
        store = Path(".repro-store")
    return run_experiment(
        spec,
        max_workers=args.workers,
        backend=backend,
        device=device,
        executor=getattr(args, "executor", None),
        store=store,
    )


def _run_figure1(args: argparse.Namespace) -> str:
    from repro.analysis.figure1 import assemble_figure1_panels, build_figure1_spec, write_panels_csv
    from repro.analysis.reporting import figure1_report

    spec = build_figure1_spec(points=args.points, seed=args.seed)
    result = _execute(spec, args)
    panels = assemble_figure1_panels(result.rows)
    # CSV artifacts are written regardless of the output mode, so --json and
    # --output-dir compose.
    paths = write_panels_csv(panels, args.output_dir) if args.output_dir is not None else []
    if args.json:
        return result.to_json(timing=False)
    report = figure1_report(panels, plot=not args.no_plot)
    if paths:
        report += "\n\nCSV written to:\n" + "\n".join(str(path) for path in paths)
    return report


def _run_observation1(args: argparse.Namespace) -> str:
    from repro.analysis.observation1 import build_observation1_spec
    from repro.analysis.reporting import render_report, rows_to_table

    spec = build_observation1_spec(seed=args.seed)
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    holds = all(row.holds for row in rows)
    return render_report(
        "Observation 1: Cover(p*) > (1 - 1/e) * top-k value",
        [
            (f"All {len(rows)} instances satisfy the bound: {holds}", rows_to_table(rows)),
        ],
    )


def _run_spoa(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.spoa_experiments import (
        CertificateRow,
        SharingBoundRow,
        SPoARow,
        build_spoa_spec,
    )

    spec = build_spoa_spec(quick=args.quick, seed=args.seed)
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    worst_rows = result.rows_of_type(SPoARow)
    certificates = result.rows_of_type(CertificateRow)
    sharing_rows = result.rows_of_type(SharingBoundRow)
    # Duplicate display names (two-level / power-law parameterisations) are
    # suffixed with their position so each table line is distinct.
    cert_names: list[str] = []
    for row in certificates:
        name = row.policy_name
        if name in cert_names:
            name = f"{name}-{len(cert_names)}"
        cert_names.append(name)
    cert_table = format_table(
        ["policy", "m", "k", "SPoA on Theorem-6 instance"],
        [
            [name, row.m, row.k, row.ratio]
            for name, row in zip(cert_names, certificates)
        ],
    )
    sharing_line = "\n".join(
        f"max ratio found: {row.max_ratio:.6f} ({row.n_instances} instances)"
        for row in sharing_rows
    )
    return render_report(
        "Symmetric Price of Anarchy",
        [
            (
                "Worst per-instance SPoA per policy (Corollary 5: exclusive = 1)",
                rows_to_table(worst_rows),
            ),
            ("Theorem 6 certificates (non-exclusive policies are > 1)", cert_table),
            ("Sharing policy randomized search (bound is 2)", sharing_line),
        ],
    )


def _run_ess(args: argparse.Namespace) -> str:
    from repro.analysis.ess_experiments import build_ess_spec
    from repro.analysis.reporting import render_report, rows_to_table

    spec = build_ess_spec(n_random_mutants=args.mutants, seed=args.seed)
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    all_ess = all(row.is_ess for row in rows)
    return render_report(
        "Theorem 3: sigma_star is an ESS under the exclusive policy",
        [
            (f"All {len(rows)} instances passed the ESS audit: {all_ess}", rows_to_table(rows)),
        ],
    )


def _run_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report
    from repro.analysis.sweeps import assemble_sweep, build_sweep_spec

    policies = [_POLICY_FACTORIES[name]() for name in args.policy]
    spec = build_sweep_spec(policies=policies, m=args.m, seed=args.seed)
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    sweep = assemble_sweep(result.rows)
    headers = [sweep.x_label] + list(sweep.curves.keys())
    rows = []
    for index, x in enumerate(sweep.x_values):
        rows.append([int(x)] + [float(curve[index]) for curve in sweep.curves.values()])
    return render_report(
        f"Equilibrium coverage / optimal coverage on a Zipf instance (M={args.m})",
        [("ratio by number of players k", format_table(headers, rows))],
    )


def _run_dynamics(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.sweeps import build_dynamics_spec

    spec = build_dynamics_spec(
        rule=args.rule,
        policy=_POLICY_FACTORIES[args.policy](),
        batch_rows=args.batch,
        max_iter=args.max_iter,
        seed=args.seed,
        **_DYNAMICS_GRIDS[args.grid],
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    n_converged = sum(row.converged for row in rows)
    worst = max(row.exploitability for row in rows)
    return render_report(
        f"Batched {args.rule} dynamics under the {args.policy} policy",
        [
            (
                f"{n_converged}/{len(rows)} trajectories converged; "
                f"worst final exploitability {worst:.3e}",
                rows_to_table(rows),
            ),
        ],
    )


def _run_travel_costs(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.scenario_experiments import build_travel_costs_spec

    spec = build_travel_costs_spec(
        policy=args.policy,
        cost_scales=args.cost_scales,
        batch_rows=args.batch,
        seed=args.seed,
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    free = [row for row in rows if row.cost_scale == 0.0]
    costly = [row for row in rows if row.cost_scale > 0.0]
    free_line = (
        f"cost-free rows reduce to the core model "
        f"(mean coverage ratio {np.mean([r.coverage_ratio for r in free]):.4f})"
        if free
        else "(no cost-free rows in the grid)"
    )
    costly_line = (
        f"costly rows: mean coverage ratio "
        f"{np.mean([r.coverage_ratio for r in costly]):.4f}, "
        f"worst {min(r.coverage_ratio for r in costly):.4f}"
        if costly
        else "(no costly rows in the grid)"
    )
    return render_report(
        f"Travel costs under the {args.policy} policy",
        [(f"{free_line}; {costly_line}", rows_to_table(rows))],
    )


def _run_group_competition(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.scenario_experiments import build_group_competition_spec

    spec = build_group_competition_spec(
        policies=args.policies,
        k=args.k,
        k_second=args.k_second,
        batch_rows=args.batch,
        seed=args.seed,
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    by_first: dict[str, list[float]] = {}
    for row in rows:
        by_first.setdefault(row.first_policy, []).append(row.first_share)
    ranking = sorted(by_first.items(), key=lambda item: -float(np.mean(item[1])))
    headline = ", ".join(
        f"{name} eats {float(np.mean(shares)):.3f} of the pie when first"
        for name, shares in ranking
    )
    return render_report(
        "Two-group competition (first feeds, second takes the leftovers)",
        [(headline, rows_to_table(rows))],
    )


def _run_repeated(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.scenario_experiments import build_repeated_spec

    spec = build_repeated_spec(
        schedules=args.schedules,
        rounds=args.rounds,
        depletions=args.depletions,
        batch_rows=args.batch,
        seed=args.seed,
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    by_schedule: dict[str, list[float]] = {}
    for row in rows:
        by_schedule.setdefault(row.schedule, []).append(row.cumulative_consumption)
    headline = "; ".join(
        f"{name}: mean cumulative consumption {float(np.mean(total)):.3f}"
        for name, total in sorted(by_schedule.items())
    )
    return render_report(
        f"Repeated dispersal with depletion over {args.rounds} rounds",
        [(headline, rows_to_table(rows))],
    )


def _run_search(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.stochastic_experiments import build_search_spec

    spec = build_search_spec(
        strategies=args.strategies,
        n_trials=args.trials,
        max_rounds=args.max_rounds,
        batch_rows=args.batch,
        seed=args.seed,
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    by_cell: dict[tuple, list] = {}
    for row in rows:
        by_cell.setdefault((row.family, row.m, row.k), []).append(row)
    wins = sum(
        1
        for cell_rows in by_cell.values()
        if max(cell_rows, key=lambda r: r.success_probability).strategy == "sigma_star"
    )
    headline = (
        f"sigma_star has the best single-round success probability on "
        f"{wins}/{len(by_cell)} problems (Theorem 4 with the prior as value function)"
    )
    return render_report(
        "Parallel Bayesian search: round-strategy baselines",
        [(headline, rows_to_table(rows))],
    )


def _run_coverage_times(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.stochastic_experiments import build_coverage_times_spec

    spec = build_coverage_times_spec(
        strategies=args.strategies,
        n_trials=args.trials,
        max_rounds=args.max_rounds,
        horizon=args.horizon,
        batch_rows=args.batch,
        seed=args.seed,
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    rows = list(result.rows)
    validated = [
        row
        for row in rows
        if np.isfinite(row.expected_rounds) and row.censored_trials == 0
    ]
    uncoverable = sum(1 for row in rows if not np.isfinite(row.expected_rounds))
    censored = sum(1 for row in rows if np.isfinite(row.expected_rounds) and row.censored_trials)
    max_z = max((row.z_score for row in validated), default=float("nan"))
    headline = (
        f"exact vs Monte-Carlo agreement on {len(validated)}/{len(rows)} rows "
        f"(max |z| = {max_z:.2f}; {uncoverable} uncoverable, {censored} censored)"
    )
    return render_report(
        "Coverage times: exact Von Schelling laws vs exponential-race simulation",
        [(headline, rows_to_table(rows))],
    )


def _run_mechanism(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report, rows_to_table
    from repro.analysis.stochastic_experiments import (
        GrantDesignRow,
        MechanismPolicyRow,
        build_mechanism_spec,
    )

    spec = build_mechanism_spec(
        policies=args.policies,
        design_policy=args.design_policy,
        batch_rows=args.batch,
        seed=args.seed,
    )
    result = _execute(spec, args)
    if args.json:
        return result.to_json(timing=False)
    policy_rows = result.rows_of_type(MechanismPolicyRow)
    grant_rows = result.rows_of_type(GrantDesignRow)
    by_policy: dict[str, list[float]] = {}
    for row in policy_rows:
        by_policy.setdefault(row.policy_name, []).append(
            row.equilibrium_coverage / row.optimal_coverage if row.optimal_coverage > 0 else np.nan
        )
    ranking = sorted(by_policy.items(), key=lambda item: -float(np.mean(item[1])))
    policy_line = ", ".join(
        f"{name}: {float(np.mean(ratios)):.4f}" for name, ratios in ranking
    )
    grant_line = (
        f"grant design under the {args.design_policy} rule reaches "
        f"{float(np.mean([r.induced_coverage / r.optimal_coverage for r in grant_rows if r.optimal_coverage > 0])):.4f} "
        f"of the optimum (worst max deviation "
        f"{max(r.max_deviation for r in grant_rows):.2e})"
        if grant_rows
        else "(no grant-design rows)"
    )
    return render_report(
        "Mechanism design: congestion rules vs reward (grant) design",
        [
            (
                f"mean coverage ratio by congestion rule — {policy_line}",
                rows_to_table(policy_rows),
            ),
            (grant_line, rows_to_table(grant_rows)),
        ],
    )


def _run_serve(args: argparse.Namespace) -> str:
    # Deferred import: plain experiment commands never pay for asyncio/serving.
    import asyncio
    import contextlib
    import signal

    from repro.serving import serve_forever

    backend = args.backend
    if backend is not None or args.device is not None:
        try:
            # Serving runs in-process, so the resolved (device-pinned) handle
            # can be handed to the scheduler directly instead of by name.
            backend = resolve_backend(backend, device=args.device)
        except BackendNotAvailableError as error:
            raise SystemExit(
                f"error: {error} (available: {', '.join(available_backends())})"
            ) from error
    async def serve() -> None:
        # SIGTERM and SIGINT (unless started ignored) cancel the server through
        # the loop: it answers what it has read, and the interpreter exits
        # normally, joining the shared process pool's workers on the way out.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            if signal.getsignal(signum) is not signal.SIG_IGN:
                loop.add_signal_handler(signum, asyncio.current_task().cancel)
        with contextlib.suppress(asyncio.CancelledError):
            await serve_forever(
                args.host,
                args.port,
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait_ms,
                cache_size=args.cache_size,
                backend=backend,
                max_pending=args.max_pending,
                executor=args.executor,
                workers=args.workers,
            )

    asyncio.run(serve())
    return "serve: shut down"


def _run_experiments(args: argparse.Namespace) -> str:
    from repro.analysis.reporting import render_report
    from repro.experiments.registry import experiment_names, get_experiment

    definitions = [get_experiment(name) for name in experiment_names()]
    if args.json:
        return json.dumps(
            {d.name: d.summary for d in definitions}, indent=2, sort_keys=True
        )
    lines = [[d.name, d.summary] for d in definitions]
    return render_report(
        "Registered experiments",
        [("name / summary", format_table(["experiment", "summary"], lines))],
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the ``repro-dispersal`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "figure1": _run_figure1,
        "observation1": _run_observation1,
        "spoa": _run_spoa,
        "ess": _run_ess,
        "sweep": _run_sweep,
        "dynamics": _run_dynamics,
        "travel-costs": _run_travel_costs,
        "group-competition": _run_group_competition,
        "repeated": _run_repeated,
        "search": _run_search,
        "coverage-times": _run_coverage_times,
        "mechanism": _run_mechanism,
        "serve": _run_serve,
        "experiments": _run_experiments,
    }
    print(runners[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
