"""Independent oracles the batch kernels are tested against.

None of these shares code with the kernel it checks:

* :func:`enumerated_coverage` averages the value of the occupied sites over
  every one of the ``M ** k`` pure profiles — no ``(1 - p) ** k`` law;
* :func:`brute_force_site_payoffs` averages each site's reward over every one
  of the ``M ** (k - 1)`` opponent site choices — no binomial law — and
  :func:`assert_oracle_ifd` checks both IFD conditions on them;
* :func:`maximize_coverage_waterfilling` and
  :func:`maximize_coverage_projected_gradient` maximise the coverage without
  reference to the game: the first bisects on the KKT multiplier, the second
  is plain projected gradient ascent.  By Theorem 4 both land on
  ``sigma_star``;
* :func:`enumerated_capacity_coverage` averages the capacity-constrained
  coverage over every pure profile, and :func:`enumerated_capacity_gradient`
  differentiates each site's visit-count law term by term over all ``2 ** k``
  visit/no-visit sequences — no binomial pmf in either;
  :func:`maximize_capacity_coverage` is projected gradient ascent on the
  batch capacity kernels, whose optimum the tests hold against ``sigma_star``
  and fixed baselines;
* :func:`expected_repeated_dispersal` runs the expected track of repeated
  dispersal one instance and one round at a time under a callable schedule,
  where :func:`repro.batch.scenarios.repeated_dispersal_batch` steps a
  batch under a named one, and :func:`simulate_repeated_dispersal` plays the
  same rounds with sampled visits (its ``n_trials -> inf`` limit);
* :func:`lockstep_search_rounds` plays every round of a Bayesian search
  explicitly, where the batched simulator inverts the geometric law of the
  discovery round;
* :func:`binomial_law` writes out ``C(n, j) p^j (1 - p)^(n - j)`` term by
  term with exact integer coefficients, where the kernels sum in log space;
* :func:`payoff_against_groups` convolves the opponent groups' binomial
  laws one shift at a time, and :func:`mixture_payoff_expanded` evaluates
  Eq. (3) literally on it, as a binomial mixture over the resident/mutant
  make-up of the opponents, where :func:`repro.core.payoffs.mixture_payoff`
  plays one mixed opponent;
* :func:`enumerated_payoff_gaps` averages the resident-minus-mutant payoff
  gap of the ESS characterisation over every one of the ``M ** (k - 1)``
  opponent site choices — no binomial law — where
  :mod:`repro.core.ess` contracts a resident and a stacked mutant law;
* :func:`replicator_loop` runs the discrete replicator one row at a time,
  with its congestion factor summed term by term over :func:`binomial_law`,
  where the dynamics engine steps a shrinking batch on de Casteljau
  evaluations.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
import pytest

from repro.batch.extensions import capacity_coverage_batch, capacity_coverage_gradient_batch
from repro.core.coverage import coverage, coverage_gradient
from repro.core.optimal_coverage import CoverageOptimum
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.utils.coercion import strategy_array, values_array
from repro.utils.numerics import binomial_pmf_tensor, safe_power, simplex_projection
from repro.utils.validation import check_positive_integer

#: Payoff tolerance of the IFD checks.
ORACLE_ATOL = 1e-9


def _profiles(m: int, players: int) -> np.ndarray:
    """Every pure profile of ``players`` site choices, one per row."""
    choices = list(itertools.product(range(m), repeat=players))
    return np.array(choices, dtype=int).reshape(len(choices), players)


def enumerated_visits(strategy, k: int) -> np.ndarray:
    """Exact probability that each site is occupied, over all ``M ** k`` profiles."""
    p = np.asarray(strategy, dtype=float)
    profiles = _profiles(p.size, k)
    weights = np.prod(p[profiles], axis=1)
    return weights @ (profiles[:, :, None] == np.arange(p.size)).any(axis=1)


def enumerated_coverage(values, strategy, k: int) -> float:
    """Exact ``Cover(p)``: the expected value of the occupied sites, enumerated."""
    return float(enumerated_visits(strategy, k) @ np.asarray(values, dtype=float))


def brute_force_site_payoffs(values, costs, strategy, k, policy):
    """Exact ``nu_p(x)``: average ``f(x) C(1 + #opponents at x) - d(x)`` over
    every one of the ``M ** (k - 1)`` opponent site choices."""
    f = np.asarray(values, dtype=float)
    p = np.asarray(strategy, dtype=float)
    choices = _profiles(f.size, k - 1)
    weights = np.prod(p[choices], axis=1)
    occupancy = (choices[:, :, None] == np.arange(f.size)).sum(axis=1)
    rewards = f * policy.table(k)[occupancy] - np.asarray(costs, dtype=float)
    return weights @ rewards


def binomial_law(n: int, p) -> np.ndarray:
    """``P[Binomial(n, p) = j]`` for ``j = 0 .. n`` along the first axis, term by term."""
    p = np.asarray(p, dtype=float)
    return np.array([math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)])


def payoff_against_groups(
    values: SiteValues | np.ndarray,
    focal: Strategy | np.ndarray,
    groups: Sequence[tuple[Strategy | np.ndarray, int]],
    policy: CongestionPolicy,
) -> float:
    """Expected payoff ``E(focal; sigma_1^{n_1}, sigma_2^{n_2}, ...)``.

    ``groups`` is a sequence of ``(strategy, count)`` pairs describing the
    opponents.  The number of co-visitors at a site is the sum of independent
    binomials, whose distribution is computed by convolving the per-group
    binomial laws.  With a single group this reduces to
    :func:`expected_payoff`; with two groups it is the
    ``E(rho; sigma^l, pi^(k-l-1))`` payoff of the ESS characterisation.
    """
    f = values_array(values)
    rho = strategy_array(focal)
    if f.shape != rho.shape:
        raise ValueError("focal strategy and values must cover the same number of sites")

    total_opponents = 0
    # occupancy_dist[x, j] = P[j opponents at site x]; start from "zero opponents".
    occupancy = np.ones((f.size, 1), dtype=float)
    for strategy, count in groups:
        count = int(count)
        if count < 0:
            raise ValueError("group sizes must be non-negative")
        if count == 0:
            continue
        q = strategy_array(strategy)
        if q.shape != f.shape:
            raise ValueError("every group strategy must cover the same number of sites")
        pmf = binomial_pmf_tensor(count, q[None])[0]  # (M, count + 1)
        new = np.zeros((f.size, occupancy.shape[1] + count), dtype=float)
        # Convolve, site by site, but vectorised over sites for each shift.
        for j in range(pmf.shape[1]):
            new[:, j : j + occupancy.shape[1]] += pmf[:, j : j + 1] * occupancy
        occupancy = new
        total_opponents += count

    c_table = policy.table(total_opponents + 1)
    factors = occupancy @ c_table  # E[C(1 + #co-visitors)] per site
    return float(np.dot(rho, f * factors))


def enumerated_payoff_gaps(values, resident, mutant, k: int, policy) -> np.ndarray:
    """``E(resident; resident^(k-1-l), mutant^l) - E(mutant; resident^(k-1-l), mutant^l)``
    for ``l = 0 .. k-1``, averaged over every one of the ``M ** (k - 1)``
    opponent site choices: the first ``k - 1 - l`` opponents play
    ``resident``, the other ``l`` play ``mutant``."""
    f = np.asarray(values, dtype=float)
    sigma = np.asarray(resident, dtype=float)
    pi = np.asarray(mutant, dtype=float)
    choices = _profiles(f.size, k - 1)
    occupancy = (choices[:, :, None] == np.arange(f.size)).sum(axis=1)
    rewards = f * policy.table(k)[occupancy]  # (profiles, M): focal reward per site
    gaps = []
    for ell in range(k):
        laws = np.array([sigma] * (k - 1 - ell) + [pi] * ell).reshape(k - 1, f.size)
        weights = np.prod(laws[np.arange(k - 1), choices], axis=1)
        gaps.append((sigma - pi) @ (weights @ rewards))
    return np.array(gaps)


def mixture_payoff_expanded(values, focal, resident, mutant, epsilon, k: int, policy) -> float:
    """Eq. (3) literally: ``U = sum_l C(k-1, l) (1-eps)^l eps^(k-1-l)
    E(focal; resident^l, mutant^(k-1-l))``, one opponent make-up at a time."""
    n = k - 1
    total = 0.0
    for ell in range(n + 1):
        weight = math.comb(n, ell) * (1.0 - epsilon) ** ell * epsilon ** (n - ell)
        if weight == 0.0:
            continue
        payoff = payoff_against_groups(values, focal, [(resident, ell), (mutant, n - ell)], policy)
        total += weight * payoff
    return float(total)


def assert_oracle_ifd(values, costs, strategy, k, policy) -> float:
    """Both IFD conditions on the brute-force payoffs, within ``ORACLE_ATOL``.

    Returns the common payoff of the support.
    """
    p = np.asarray(strategy, dtype=float)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    nu = brute_force_site_payoffs(values, costs, p, k, policy)
    support = p > 1e-12
    assert nu[support].max() - nu[support].min() <= ORACLE_ATOL, nu
    if np.any(~support):
        assert nu[~support].max() <= nu[support].mean() + ORACLE_ATOL, nu
    return float(nu[support].mean())


def maximize_coverage_waterfilling(
    values: SiteValues | np.ndarray,
    k: int,
    *,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> CoverageOptimum:
    """Maximise coverage by water-filling on the KKT multiplier.

    The stationarity condition for the concave program is
    ``k f(x) (1 - p(x))**(k-1) = lambda`` on the support, i.e.
    ``p(x) = 1 - (lambda / (k f(x)))**(1/(k-1))`` clipped at zero.  The scalar
    ``lambda`` is found by bisection so that the probabilities sum to one.
    This derivation never mentions the game, so it provides an independent
    numerical witness for Theorem 4.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    m = f.size

    if k == 1:
        strategy = Strategy.point_mass(m, int(np.argmax(f)))
        return CoverageOptimum(strategy, coverage(f, strategy, 1), "waterfilling")

    exponent = 1.0 / (k - 1)

    def probabilities(lam: float) -> np.ndarray:
        ratio = safe_power(lam / (k * f), exponent)
        return np.clip(1.0 - ratio, 0.0, 1.0)

    lo, hi = 0.0, float(k * f.max())
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if probabilities(mid).sum() >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    probs = probabilities(0.5 * (lo + hi))
    total = probs.sum()
    if total <= 0:
        raise RuntimeError("water-filling failed to allocate probability mass")
    strategy = Strategy(probs / total)
    return CoverageOptimum(strategy, coverage(f, strategy, k), "waterfilling")


def maximize_coverage_projected_gradient(
    values: SiteValues | np.ndarray,
    k: int,
    *,
    step_size: float | None = None,
    max_iter: int = 2000,
    tol: float = 1e-12,
    initial: Strategy | None = None,
) -> CoverageOptimum:
    """Maximise coverage by projected gradient ascent on the simplex.

    Coverage is concave in ``p``, so plain projected gradient ascent with a
    fixed step converges to the global optimum.  The step defaults to
    ``1 / (k * (k - 1) * max f)``, an upper bound on the Lipschitz constant of
    the gradient.
    """
    k = check_positive_integer(k, "k")
    f = values_array(values)
    m = f.size
    if k == 1:
        strategy = Strategy.point_mass(m, int(np.argmax(f)))
        return CoverageOptimum(strategy, coverage(f, strategy, 1), "projected-gradient")

    if step_size is None:
        lipschitz = k * (k - 1) * float(f.max())
        step_size = 1.0 / max(lipschitz, 1e-12)
    p = (initial.as_array() if initial is not None else np.full(m, 1.0 / m)).copy()
    previous = coverage(f, p, k)
    for _ in range(max_iter):
        grad = coverage_gradient(f, p, k)
        p = simplex_projection(p + step_size * grad)
        current = coverage(f, p, k)
        if abs(current - previous) <= tol * max(1.0, abs(current)):
            previous = current
            break
        previous = current
    strategy = Strategy(p)
    return CoverageOptimum(strategy, coverage(f, strategy, k), "projected-gradient")


def enumerated_capacity_coverage(values, strategy, k: int, requirements) -> float:
    """Exact ``sum_x f(x) E[min(1, N_x / r_x)]``, averaged over all ``M ** k`` profiles."""
    f = np.asarray(values, dtype=float)
    p = np.asarray(strategy, dtype=float)
    r = np.broadcast_to(np.asarray(requirements, dtype=float), f.shape)
    profiles = _profiles(f.size, k)
    weights = np.prod(p[profiles], axis=1)
    occupancy = (profiles[:, :, None] == np.arange(f.size)).sum(axis=1)
    return float(weights @ (np.minimum(1.0, occupancy / r) @ f))


def enumerated_capacity_gradient(values, strategy, k: int, requirements) -> np.ndarray:
    """Exact ``d CapCover / d p(x)`` for every site, enumerated.

    Each site's term ``f(x) E[min(1, N_x / r_x)]`` is differentiated in its
    own ``p(x)``, the kernel's convention.  Site ``x`` is visited by each of
    the ``k`` players independently with probability ``p(x)``; a
    visit/no-visit sequence ``s`` has probability
    ``prod_i q_i`` with ``q_i = p(x)`` or ``1 - p(x)``, and its derivative is
    the product rule ``sum_j (+1 or -1) prod_{i != j} q_i``.
    """
    f = np.asarray(values, dtype=float)
    p = np.asarray(strategy, dtype=float)
    r = np.broadcast_to(np.asarray(requirements, dtype=float), f.shape)
    gradient = np.zeros_like(f)
    for x in range(f.size):
        for sequence in itertools.product((False, True), repeat=k):
            factors = [p[x] if visit else 1.0 - p[x] for visit in sequence]
            derivative = sum(
                (1.0 if sequence[j] else -1.0) * np.prod(factors[:j] + factors[j + 1 :])
                for j in range(k)
            )
            gradient[x] += derivative * min(1.0, sum(sequence) / r[x])
    return f * gradient


def maximize_capacity_coverage(
    values, k: int, requirements, *, max_iter: int = 5_000, tol: float = 1e-12
):
    """Maximise the capacity-constrained coverage of every row by projected gradient ascent.

    ``values`` is a ``(B, M)`` matrix (or one ``(M,)`` row) and
    ``requirements`` anything :func:`capacity_coverage_batch` takes.  Every
    step makes one :func:`capacity_coverage_gradient_batch` call for all rows,
    with each row's step ``1 / (k**2 max f)``; a row stops moving once its
    objective changes by at most ``tol`` (relative).  The objective is concave
    in each ``p(x)``, so each row reaches its global optimum.  Returns the
    ``(B, M)`` strategies and their ``(B,)`` coverages.
    """
    f = np.atleast_2d(values_array(values))
    step = 1.0 / np.maximum(k * k * f.max(axis=1, keepdims=True), 1e-12)
    p = np.full(f.shape, 1.0 / f.shape[1])
    previous = capacity_coverage_batch(f, p, k, requirements)
    running = np.ones(f.shape[0], dtype=bool)
    for _ in range(max_iter):
        grad = capacity_coverage_gradient_batch(f, p, k, requirements)
        moved = np.apply_along_axis(simplex_projection, 1, p + step * grad)
        p = np.where(running[:, None], moved, p)
        current = capacity_coverage_batch(f, p, k, requirements)
        running &= np.abs(current - previous) > tol * np.maximum(1.0, np.abs(current))
        previous = current
        if not running.any():
            break
    return p, previous


def expected_repeated_dispersal(values, k: int, schedule, *, rounds: int, depletion: float):
    """The expected track of ``rounds`` of dispersal with depletion, one round at a time.

    ``schedule(round_index, expected_remaining)`` returns the round's
    strategy.  Each site is visited with probability ``1 - (1 - p(x))**k``,
    the group consumes ``(1 - depletion)`` of each visited site's remaining
    value, and the site keeps the rest.  Returns the ``(rounds,)`` expected
    consumption per round and the ``(M,)`` expected remaining values.
    """
    remaining = values_array(values).copy()
    per_round = np.zeros(rounds)
    for round_index in range(rounds):
        visit = 1.0 - (1.0 - strategy_array(schedule(round_index, remaining))) ** k
        per_round[round_index] = remaining @ visit * (1.0 - depletion)
        remaining = remaining * (1.0 - visit * (1.0 - depletion))
    return per_round, remaining


def simulate_repeated_dispersal(
    values, k: int, schedule, *, rounds: int, depletion: float, n_trials: int, rng
):
    """Monte-Carlo repeated dispersal: ``n_trials`` realised horizons.

    Every round the ``k`` players of every trial sample sites; a visited
    site yields ``(1 - depletion)`` of its realised remaining value and keeps
    the rest.  The schedule sees the *expected* remaining values (the players
    cannot condition on what others found), so all trials share the round's
    strategy.  Returns the ``(rounds,)`` mean consumption per round and the
    mean total value left.
    """
    generator = np.random.default_rng(rng)
    f = values_array(values)
    remaining = np.tile(f, (n_trials, 1))
    expected = f.copy()
    per_round = np.zeros(rounds)
    for round_index in range(rounds):
        p = strategy_array(schedule(round_index, expected))
        choices = generator.choice(f.size, size=(n_trials, k), p=p)
        visited = (choices[:, :, None] == np.arange(f.size)).any(axis=1)
        per_round[round_index] = (remaining * visited).sum(axis=1).mean() * (1.0 - depletion)
        remaining = np.where(visited, remaining * depletion, remaining)
        expected = expected * (1.0 - (1.0 - (1.0 - p) ** k) * (1.0 - depletion))
    return per_round, float(remaining.sum(axis=1).mean())


def lockstep_search_rounds(priors, strategies, k, n_trials: int, max_rounds: int, rng) -> np.ndarray:
    """Discovery round of every trial of every row, playing each round explicitly.

    Each trial hides a treasure by its row's prior; then, round by round, the
    ``k_b`` searchers of every trial still running pick boxes by the row's
    strategy, and a trial ends in the first round one of them picks the
    treasure's box.  The loop stops early once every trial has ended.
    Returns the ``(B, n_trials)`` rounds, ``max_rounds + 1`` marking a
    censored trial.
    """
    generator = np.random.default_rng(rng)
    q = np.asarray(priors, dtype=float)
    p = np.asarray(strategies, dtype=float)
    ks = np.broadcast_to(np.asarray(k, dtype=int), (q.shape[0],))
    m = q.shape[1]
    rounds = np.full((q.shape[0], n_trials), max_rounds + 1, dtype=np.int64)
    for row in range(q.shape[0]):
        treasure = generator.choice(m, size=n_trials, p=q[row] / q[row].sum())
        active = np.arange(n_trials)
        for round_index in range(1, max_rounds + 1):
            if active.size == 0:
                break
            picks = generator.choice(m, size=(active.size, int(ks[row])), p=p[row])
            found = (picks == treasure[active, None]).any(axis=1)
            rounds[row, active[found]] = round_index
            active = active[~found]
    return rounds


def replicator_loop(values, k, policy, initial, *, max_iter: int, tol: float, record_every: int):
    """The discrete replicator, row by row, laid out as the engine reports it.

    Row ``b`` steps ``p <- p (nu + s) / sum(p (nu + s))`` with
    ``nu = f E[C(1 + Bin(k_b - 1, p))]`` and the engine's fitness shift
    ``s = max(0, -min(C) max f) + 1e-3 max f``, until the L1 step is at most
    ``tol`` or after ``max_iter`` steps.  Returns a dict of the engine's
    ``states``, ``iterations``, ``record_times``, ``records`` and
    ``payoff_records``: a snapshot every ``record_every`` steps while any row
    runs, a finished row frozen at its last state, and as each row's payoff
    the one of its latest recorded step (zero before the first).
    """
    ks = np.broadcast_to(np.asarray(k, dtype=int), (len(values),))
    rows = []
    for f, n, p in zip(values, ks - 1, initial):
        f, p = np.asarray(f, dtype=float), np.asarray(p, dtype=float)
        table = np.asarray(policy.table(n + 1), dtype=float)
        shift = max(0.0, -table.min() * f.max()) + 1e-3 * f.max()
        states, payoffs = [p], [0.0]  # payoffs[t]: mean payoff before step t
        for _ in range(max_iter):
            nu = f * sum(c * term for c, term in zip(table, binomial_law(n, p)))
            weighted = p * (nu + shift)
            new = weighted / weighted.sum()
            payoffs.append(float(p @ nu))
            states.append(new)
            change, p = np.abs(new - p).sum(), new
            if change <= tol:
                break
        rows.append((states, payoffs))
    iterations = np.array([len(states) - 1 for states, _ in rows])
    times = list(range(0, int(iterations.max()) + 1, record_every))
    width = max(len(f) for f in values)

    def at(t):
        """Every row's state and latest recorded payoff after step ``t``."""
        last = [min(t, len(states) - 1) for states, _ in rows]
        state = [np.pad(s[i], (0, width - s[i].size)) for (s, _), i in zip(rows, last)]
        paid = [payoffs[i // record_every * record_every] for (_, payoffs), i in zip(rows, last)]
        return np.array(state), np.array(paid)

    snapshots = [at(t) for t in times]
    return {
        "states": at(max_iter)[0],
        "iterations": iterations,
        "record_times": np.array(times),
        "records": np.array([state for state, _ in snapshots]),
        "payoff_records": np.reshape(
            [paid for _, paid in snapshots[1:]], (len(times) - 1, len(rows))
        ),
    }
