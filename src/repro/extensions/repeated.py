"""Repeated dispersal with resource depletion (Section 5.1 "other forms of repetition").

The one-shot game is played for ``T`` rounds over the same patch set.  A patch
visited in a round is (partially) depleted: its value is multiplied by a
``depletion`` factor in ``[0, 1)`` (0 means fully consumed).  Players remain
uncoordinated within a round; between rounds the *schedule* tells every player
which distribution to use — either the same strategy every round, or the
"adaptive sigma_star" schedule that re-solves the one-shot game on the current
expected remaining values (the natural greedy extension of the paper's
analysis, and the dispersal analogue of running Korman-Rodeh's ``A*`` for
several rounds).

The simulator tracks the realised cumulative group consumption so that
different congestion policies / schedules can be compared over a horizon;
:func:`expected_repeated_dispersal` evaluates the exact expectation of the
same process (the ``n_trials -> inf`` limit) deterministically, and
:func:`repro.batch.scenarios.repeated_dispersal_batch` evolves that expected
track for whole instance batches at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.batch.solvers import sigma_star_batch
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer, check_site_parameters

__all__ = [
    "ExpectedDispersalResult",
    "RepeatedDispersalResult",
    "adaptive_sigma_star_schedule",
    "constant_schedule",
    "expected_repeated_dispersal",
    "simulate_repeated_dispersal",
]

#: The round-strategy contract: a ``Schedule`` is any callable mapping
#: ``(round_index, current_expected_values) -> Strategy``.  It is invoked once
#: per round with the 0-based round index and the *expected* remaining value
#: vector (deterministic, shared by every trial — players cannot condition on
#: the realised outcomes of others in the no-communication setting).  The
#: returned :class:`~repro.core.strategy.Strategy` must cover exactly the
#: instance's ``M`` sites; the simulator raises ``ValueError`` otherwise.
#: Schedules may keep internal state, but the expected-value argument already
#: carries everything the greedy adaptive schedules need.
Schedule = Callable[[int, np.ndarray], Strategy]


@dataclass(frozen=True)
class RepeatedDispersalResult:
    """Outcome of a repeated-dispersal simulation.

    Attributes
    ----------
    cumulative_consumption_mean:
        Mean (over trials) of the total value consumed by the group across all
        rounds.
    per_round_consumption:
        Mean consumption per round, shape ``(rounds,)``.
    remaining_value_mean:
        Mean total value left in the environment after the last round.
    n_trials, rounds, k:
        Simulation parameters.
    """

    cumulative_consumption_mean: float
    per_round_consumption: np.ndarray
    remaining_value_mean: float
    n_trials: int
    rounds: int
    k: int


def constant_schedule(strategy: Strategy) -> Schedule:
    """A schedule that plays the same strategy every round."""

    def schedule(_round_index: int, _current_values: np.ndarray) -> Strategy:
        return strategy

    return schedule


def adaptive_sigma_star_schedule(k: int, *, floor: float = 1e-9) -> Schedule:
    """Re-solve ``sigma_star`` on the current expected remaining values each round.

    Sites whose expected remaining value has dropped to (numerically) zero are
    excluded from the support by clamping them to ``floor`` before solving; the
    resulting probability mass on such sites is negligible.
    """
    k = check_positive_integer(k, "k")

    def schedule(_round_index: int, current_values: np.ndarray) -> Strategy:
        # A one-row matrix is answered in its own site order, sorted or not.
        clamped = np.maximum(current_values, floor)[None, :]
        return Strategy(sigma_star_batch(clamped, [k]).probabilities[0, 0])

    return schedule


def simulate_repeated_dispersal(
    values: SiteValues | np.ndarray,
    k: int,
    schedule: Schedule,
    *,
    rounds: int = 5,
    depletion: float = 0.0,
    n_trials: int = 200,
    rng: np.random.Generator | int | None = None,
) -> RepeatedDispersalResult:
    """Simulate ``rounds`` of dispersal with depletion and report group consumption.

    Parameters
    ----------
    values, k:
        Patch values and number of players.
    schedule:
        Round-strategy schedule.  It receives the round index and the *expected*
        remaining values (deterministic across trials), so all trials share the
        same per-round strategy — consistent with the no-communication setting,
        where players cannot condition on the realised outcomes of others.
    rounds:
        Number of rounds ``T``.
    depletion:
        Fraction of a visited patch's value that survives the visit
        (0 = fully consumed, 0.5 = half remains, ...).
    n_trials:
        Monte-Carlo trials.
    """
    k = check_positive_integer(k, "k")
    rounds = check_positive_integer(rounds, "rounds")
    n_trials = check_positive_integer(n_trials, "n_trials")
    depletion = float(check_site_parameters(depletion, "depletion", (), below=1.0))
    generator = as_generator(rng)

    f0 = values.as_array() if isinstance(values, SiteValues) else np.asarray(values, dtype=float)
    m = f0.size

    # Realised per-trial remaining values and the deterministic expected track
    # used by the schedule.
    remaining = np.tile(f0, (n_trials, 1))
    expected_remaining = f0.copy()
    per_round = np.zeros(rounds)

    for round_index in range(rounds):
        strategy = schedule(round_index, expected_remaining)
        probabilities = strategy.as_array()
        if probabilities.size != m:
            raise ValueError("schedule returned a strategy over the wrong number of sites")

        choices = generator.choice(m, size=(n_trials, k), p=probabilities)
        visited = np.zeros((n_trials, m), dtype=bool)
        rows = np.repeat(np.arange(n_trials), k)
        visited[rows, choices.ravel()] = True

        consumed = (remaining * visited).sum(axis=1) * (1.0 - depletion)
        per_round[round_index] = consumed.mean()
        remaining = np.where(visited, remaining * depletion, remaining)

        # Expected update used by the schedule (same formula in expectation).
        visit_prob = 1.0 - (1.0 - probabilities) ** k
        expected_remaining = expected_remaining * (1.0 - visit_prob * (1.0 - depletion))

    return RepeatedDispersalResult(
        cumulative_consumption_mean=float(per_round.sum()),
        per_round_consumption=per_round,
        remaining_value_mean=float(remaining.sum(axis=1).mean()),
        n_trials=n_trials,
        rounds=rounds,
        k=k,
    )


@dataclass(frozen=True)
class ExpectedDispersalResult:
    """Deterministic expected-track outcome of a repeated-dispersal horizon.

    Attributes
    ----------
    cumulative_consumption:
        Expected total value consumed by the group across all rounds.
    per_round_consumption:
        Expected consumption per round, shape ``(rounds,)``.
    remaining_value:
        Expected total value left after the last round.
    rounds, k:
        Horizon parameters.
    """

    cumulative_consumption: float
    per_round_consumption: np.ndarray
    remaining_value: float
    rounds: int
    k: int


def expected_repeated_dispersal(
    values: SiteValues | np.ndarray,
    k: int,
    schedule: Schedule,
    *,
    rounds: int = 5,
    depletion: float = 0.0,
) -> ExpectedDispersalResult:
    """Exact expected consumption of :func:`simulate_repeated_dispersal`.

    Because per-round consumption is linear in the remaining values and round
    choices are independent across rounds, the expectation of the Monte-Carlo
    simulator factorises into the same recursion its schedules already
    condition on: per round, each patch is visited with probability
    ``1 - (1 - p(x))**k`` and its expected remaining value decays by the
    depletion factor.  This deterministic track therefore equals the
    ``n_trials -> inf`` limit of the simulator (the test suite checks the
    convergence), with no sampling noise — and it is the scalar reference the
    batched :func:`repro.batch.scenarios.repeated_dispersal_batch` is
    property-tested against.

    Parameters
    ----------
    values, k:
        Patch values and number of players.
    schedule:
        Round-strategy :data:`Schedule` (same contract as the simulator).
    rounds:
        Number of rounds ``T``.
    depletion:
        Fraction of a visited patch's value that survives a visit, in
        ``[0, 1)`` (``0`` = fully consumed).
    """
    k = check_positive_integer(k, "k")
    rounds = check_positive_integer(rounds, "rounds")
    depletion = float(check_site_parameters(depletion, "depletion", (), below=1.0))
    f0 = values.as_array() if isinstance(values, SiteValues) else np.asarray(values, dtype=float)

    expected_remaining = f0.copy()
    per_round = np.zeros(rounds)
    for round_index in range(rounds):
        probabilities = schedule(round_index, expected_remaining).as_array()
        if probabilities.size != f0.size:
            raise ValueError("schedule returned a strategy over the wrong number of sites")
        visit_probability = 1.0 - (1.0 - probabilities) ** k
        per_round[round_index] = float(
            np.dot(expected_remaining, visit_probability) * (1.0 - depletion)
        )
        expected_remaining = expected_remaining * (
            1.0 - visit_probability * (1.0 - depletion)
        )

    return ExpectedDispersalResult(
        cumulative_consumption=float(per_round.sum()),
        per_round_consumption=per_round,
        remaining_value=float(expected_remaining.sum()),
        rounds=rounds,
        k=k,
    )
