"""Batched Bayesian search: closed forms and whole-search simulation per batch.

The scalar :mod:`repro.search.simulator` evaluates one ``(prior, strategy,
k)`` triple per call; sweeping the Korman-Rodeh "treasure in M boxes"
connection over experiment grids therefore re-enters Python per cell.  The
kernels here evaluate whole ``(B,)`` batches of search problems at once:

* :func:`success_probability_batch` — the single-round success probability
  ``sum_x q(x) (1 - (1 - p(x))**k)`` as one ``(B,)`` tensor pass (pure
  Array-API on the active backend);
* :func:`expected_discovery_time_batch` — the geometric-rounds closed form
  ``sum_x q(x) / (1 - (1 - p(x))**k)``, with rows in which some possible box
  is never searched **where-masked to ``inf``** instead of tripping
  divide-by-zero warnings;
* :func:`simulate_search_batch` — a Monte-Carlo simulator of complete
  searches for all ``(B, n_trials)`` cells, which inverts the conditional
  geometric law of the discovery round in one pass (the scalar simulator's
  approach, vectorised over the batch).

Priors and strategies ride on zero-padded ``(B, M_max)`` matrices (ragged
box counts allowed); padding columns carry zero prior mass and zero search
probability, so they can never hold or hide a treasure.  Randomness comes
from the host generator under the seed policy of :mod:`repro.utils.rng`;
public results are host NumPy arrays.

Every kernel agrees with its scalar counterpart (the scalar entry points of
:mod:`repro.search.simulator` are thin ``B = 1`` wrappers; property-tested
in ``tests/test_batch_search.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.backend import (
    Backend,
    expected_transfer,
    from_numpy,
    resolve_backend,
    to_numpy,
)
from repro.utils.rng import as_generator
from repro.utils.sampling import STACK_SPACING, stacked_flat_cdfs
from repro.utils.validation import check_counts, check_positive_integer, check_probability_rows

__all__ = [
    "SearchSimulationBatch",
    "as_prior_batch",
    "as_search_strategy_batch",
    "expected_discovery_time_batch",
    "simulate_search_batch",
    "success_probability_batch",
]

# --------------------------------------------------------------------------
# staging helpers
# --------------------------------------------------------------------------


def as_prior_batch(priors: np.ndarray | Sequence[Any]) -> np.ndarray:
    """Validate a batch of box priors into a host ``(B, M_max)`` matrix.

    Parameters
    ----------
    priors:
        A ``(B, M_max)`` probability matrix, or a length-``B`` sequence of
        :class:`~repro.search.boxes.BayesianSearchProblem` objects / 1-D
        prior vectors (ragged box counts allowed).  Rows are normalised but
        **not** re-sorted — strategies must follow the same box order the
        caller used (problem objects come pre-sorted).

    Returns
    -------
    numpy.ndarray
        Host ``(B, M_max)`` float matrix; short rows are zero-padded (a
        padding box can never hold the treasure) and every row sums to one
        (rules: :func:`~repro.utils.validation.check_probability_rows`).
    """
    return check_probability_rows(priors, "priors", normalize=True)[0]


def as_search_strategy_batch(
    strategies: np.ndarray | Sequence[Any], priors: np.ndarray
) -> np.ndarray:
    """Validate per-row round strategies against a packed prior batch.

    Accepts a ``(B, M_max)`` matrix or a length-``B`` sequence of
    :class:`~repro.core.strategy.Strategy` objects / 1-D vectors; ragged
    rows are zero-padded to the priors' width.  Every row must be a
    distribution over its problem's boxes (same order as the prior row).
    """
    return check_probability_rows(strategies, "strategies", shape=priors.shape)[0]


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def success_probability_batch(
    priors: np.ndarray | Sequence[Any],
    strategies: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Single-round success probability of every search of a batch.

    The batch counterpart of
    :func:`repro.search.simulator.single_round_success_probability`:
    ``sum_x q_b(x) * (1 - (1 - p_b(x))**k_b)`` computed as one ``(B, M)``
    tensor pass (this is exactly the coverage of ``p_b`` with the prior as
    value function).

    Returns
    -------
    numpy.ndarray
        Host ``(B,)`` vector of probabilities.
    """
    be = resolve_backend(backend)
    xp = be.xp
    q_host = as_prior_batch(priors)
    p_host = as_search_strategy_batch(strategies, q_host)
    ks = check_counts(k, "k", size=q_host.shape[0])
    with expected_transfer():  # input staging
        q = from_numpy(be, q_host, dtype=be.float_dtype)
        p = from_numpy(be, p_host, dtype=be.float_dtype)
        kcol = from_numpy(be, ks.astype(float), dtype=be.float_dtype)[:, None]
    hit = 1.0 - (1.0 - p) ** kcol
    total = xp.sum(q * hit, axis=1)
    with expected_transfer():  # result materialisation
        return to_numpy(total)


def expected_discovery_time_batch(
    priors: np.ndarray | Sequence[Any],
    strategies: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    *,
    backend: Backend | str | None = None,
) -> np.ndarray:
    """Expected rounds until discovery for every search of a batch.

    The batch counterpart of
    :func:`repro.search.simulator.expected_discovery_time`.  Conditionally on
    the treasure's box the round count is geometric, so the expectation is
    ``sum_x q_b(x) / (1 - (1 - p_b(x))**k_b)``.  Rows in which some box with
    positive prior mass is never searched are **where-masked** to ``inf`` —
    the division never touches the zero per-round probabilities, so no
    overflow or invalid-value warnings are emitted on any backend.

    Returns
    -------
    numpy.ndarray
        Host ``(B,)`` vector; ``inf`` rows mark searches that may never end.
    """
    be = resolve_backend(backend)
    xp = be.xp
    q_host = as_prior_batch(priors)
    p_host = as_search_strategy_batch(strategies, q_host)
    ks = check_counts(k, "k", size=q_host.shape[0])
    with expected_transfer():  # input staging
        q = from_numpy(be, q_host, dtype=be.float_dtype)
        p = from_numpy(be, p_host, dtype=be.float_dtype)
        kcol = from_numpy(be, ks.astype(float), dtype=be.float_dtype)[:, None]
        one = from_numpy(be, np.asarray(1.0), dtype=be.float_dtype)
        zero = from_numpy(be, np.asarray(0.0), dtype=be.float_dtype)
        inf = from_numpy(be, np.asarray(np.inf), dtype=be.float_dtype)
    per_round = 1.0 - (1.0 - p) ** kcol
    possible = q > 0
    findable = per_round > 0
    never_found = xp.any(possible & ~findable, axis=1)
    safe = xp.where(findable, per_round, one)
    total = xp.sum(xp.where(possible & findable, q / safe, zero), axis=1)
    result = xp.where(never_found, inf, total)
    with expected_transfer():  # result materialisation
        return to_numpy(result)


# --------------------------------------------------------------------------
# whole-search simulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSimulationBatch:
    """Empirical summary of simulated searches, one row per problem.

    ``rounds[b, t] == max_rounds + 1`` marks a **censored** trial (the
    treasure was not found within ``max_rounds`` rounds); all success and
    round statistics condition on the uncensored trials, so
    ``mean_rounds_when_found`` under-estimates the true expected discovery
    time whenever ``success_rates[b] < 1``.  All attributes are host NumPy
    arrays.

    Attributes
    ----------
    n_trials, max_rounds:
        Simulation parameters.
    k:
        ``(B,)`` ``int64`` searcher counts.
    success_rates:
        ``(B,)`` fraction of trials in which the treasure was found.
    mean_rounds_when_found:
        ``(B,)`` mean discovery round over the found trials (``nan`` rows
        where nothing was found).
    round_one_success_rates:
        ``(B,)`` fraction of trials decided in the first round.
    censored_counts:
        ``(B,)`` ``int64`` number of censored trials per row
        (``n_trials - n_trials * success_rates``, exactly) — nonzero rows
        mark conditional statistics that must not be compared against
        unconditional closed forms.
    rounds:
        ``(B, n_trials)`` ``int64`` per-trial discovery rounds
        (``max_rounds + 1`` = censored).
    """

    n_trials: int
    max_rounds: int
    k: np.ndarray
    success_rates: np.ndarray
    mean_rounds_when_found: np.ndarray
    round_one_success_rates: np.ndarray
    censored_counts: np.ndarray
    rounds: np.ndarray


def simulate_search_batch(
    priors: np.ndarray | Sequence[Any],
    strategies: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    n_trials: int,
    *,
    max_rounds: int = 200,
    rng: np.random.Generator | int | None = None,
    backend: Backend | str | None = None,
) -> SearchSimulationBatch:
    """Simulate complete searches for every problem of a batch at once.

    Each trial hides a treasure according to its row's prior, then plays
    rounds in which ``k_b`` searchers independently sample boxes from the
    row's strategy until the treasure is found or ``max_rounds`` is
    exhausted.

    Parameters
    ----------
    priors, strategies, k:
        The packed search batch (see :func:`as_prior_batch`,
        :func:`as_search_strategy_batch`, and the ``k <= 0`` roster
        validation of the closed-form kernels).
    n_trials:
        Independent searches per row.
    max_rounds:
        Censoring horizon; unfinished searches report ``max_rounds + 1``.
    rng:
        Seed or host generator.
    backend:
        Array backend for the inverse-CDF ``searchsorted`` passes; results
        never depend on the choice.

    Returns
    -------
    SearchSimulationBatch
        Each trial's discovery round is drawn by inverting its conditional
        geometric law in one vectorised pass — statistically identical to
        playing every round, at a per-trial (not per-round) cost.  The
        scalar :func:`repro.search.simulator.simulate_search` wraps this
        kernel.
    """
    n_trials = check_positive_integer(n_trials, "n_trials")
    max_rounds = check_positive_integer(max_rounds, "max_rounds")
    be = resolve_backend(backend)
    generator = as_generator(rng)
    q = as_prior_batch(priors)
    p = as_search_strategy_batch(strategies, q)
    ks = check_counts(k, "k", size=q.shape[0])

    rounds = _geometric_rounds(q, p, ks, n_trials, max_rounds, generator, be)

    found = rounds <= max_rounds
    counts = found.sum(axis=1)
    sums = (rounds * found).sum(axis=1)
    mean_rounds = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return SearchSimulationBatch(
        n_trials=n_trials,
        max_rounds=max_rounds,
        k=ks,
        success_rates=found.mean(axis=1),
        mean_rounds_when_found=mean_rounds,
        round_one_success_rates=(rounds == 1).mean(axis=1),
        censored_counts=(n_trials - counts).astype(np.int64),
        rounds=rounds.astype(np.int64),
    )


def _geometric_rounds(
    q: np.ndarray,
    p: np.ndarray,
    ks: np.ndarray,
    n_trials: int,
    max_rounds: int,
    generator: np.random.Generator,
    be: Backend,
) -> np.ndarray:
    """Invert the conditional geometric round law for all ``(B, n_trials)`` cells.

    Device-resident end-to-end: the treasure-hiding ``searchsorted`` (one
    stacked inverse-CDF pass over the B priors), the per-treasure strategy
    gather and the geometric inversion all run on the backend; the one
    upload (staging + both host uniform blocks) and the one download (the
    finished round matrix) are the documented boundaries.
    """
    xp = be.xp
    fdt, idt = be.float_dtype, be.int_dtype
    b, m = p.shape
    offsets = np.arange(b, dtype=np.int64)
    u_hide = generator.random((b, n_trials))
    u = generator.random((b, n_trials))
    with expected_transfer():  # staging + per-call draw placement
        hide_dev = from_numpy(
            be, u_hide + STACK_SPACING * offsets[:, None], dtype=fdt
        )
        flat_prior_dev = from_numpy(be, stacked_flat_cdfs(q), dtype=fdt)
        p_flat_dev = from_numpy(be, p.reshape(-1), dtype=fdt)
        k_col_dev = from_numpy(be, ks.astype(float)[:, None], dtype=fdt)
        row_off_dev = from_numpy(be, (offsets * m)[:, None], dtype=idt)
        limit_dev = from_numpy(be, np.asarray(m - 1, dtype=np.int64), dtype=idt)
        u_dev = from_numpy(be, u, dtype=fdt)
        half = from_numpy(be, np.asarray(0.5), dtype=fdt)
        one = from_numpy(be, np.asarray(1.0), dtype=fdt)
        inf = from_numpy(be, np.asarray(np.inf), dtype=fdt)
        censored = from_numpy(be, np.asarray(float(max_rounds + 1)), dtype=fdt)
    positions = xp.searchsorted(flat_prior_dev, xp.reshape(hide_dev, (-1,)), side="right")
    treasure = xp.minimum(xp.reshape(positions, (b, n_trials)) - row_off_dev, limit_dev)
    p_at_treasure = xp.reshape(
        xp.take(p_flat_dev, xp.reshape(treasure + row_off_dev, (-1,))), (b, n_trials)
    )
    per_round = 1.0 - (1.0 - p_at_treasure) ** k_col_dev
    # Inverse-CDF sampling of the geometric distribution, where-masked so the
    # log of the unfindable cells (per-round probability 0) is never taken.
    findable = per_round > 0
    clipped = xp.clip(xp.where(findable, per_round, half), 1e-300, 1.0 - 1e-16)
    drawn = xp.ceil(xp.log1p(-u_dev) / xp.log1p(-clipped))
    rounds = xp.where(findable, xp.maximum(drawn, one), inf)
    rounds = xp.where(rounds > float(max_rounds), censored, rounds)
    with expected_transfer():  # result materialisation
        return np.asarray(to_numpy(rounds)).astype(np.int64)

