"""Batched Monte-Carlo dispersal: whole instance batches of trials per draw.

The scalar :class:`repro.simulation.engine.DispersalSimulator` simulates one
``(f, k, policy)`` instance per call; a Monte-Carlo calibration sweep over an
experiment grid therefore re-enters Python once per cell and loops
``np.bincount`` once per trial batch.  The kernels here simulate **all**
instances of a padded batch at once:

* one ``(n_chunk, B, k_max)`` inverse-CDF draw per memory chunk, inverting
  every row's strategy CDF in a single ``searchsorted`` pass over a stacked
  CDF layout (the :mod:`repro.utils.sampling` trick extended to the batch
  axis);
* per-trial occupancy counts and per-row occupancy histograms through the
  :func:`repro.backend.batched_bincount` segment-sum adapter — one flat
  ``bincount`` per chunk instead of one Python call per trial;
* coverage / payoff / collision statistics and their standard errors
  accumulated as ``(B,)`` tensors.

Memory is bounded by ``max_chunk_draws`` (default ``2**22`` = ~4M uniforms,
about 32 MB of doubles): requests whose ``B * n_trials * k_max`` exceeds the
cap are split into trial chunks and the statistics are accumulated across
chunks.  Chunk draws are laid out trial-major, so the sampled site choices —
and with them every integer statistic (occupancy histograms, collision
counts, visit frequencies) — are **bit-identical for every chunk size** (see
the seed policy in :mod:`repro.utils.rng`); the accumulated floating-point
means and standard errors agree to summation rounding (``~1e-15``
relative).

Backend note: under a non-NumPy backend the whole chunk pipeline is
**device-resident**: uniforms are placed on the device once per chunk (a
documented :func:`~repro.backend.expected_transfer` boundary, like the input
staging), the inverse-CDF inversion, occupancy counts, histograms and all
statistic sums stay native, and the host is touched exactly once — when the
accumulated sums are materialised into the result dataclass.  Wrap a call in
:func:`repro.backend.track_transfers` to assert the zero-mid-kernel-transfer
property.  The NumPy path is bit-identical to the pre-backend code; every
public result is a plain host NumPy array with documented dtypes (``int64``
occupancy histograms, ``float64`` frequencies and statistics), whatever
backend was active.

Every kernel agrees with its scalar counterpart (the scalar engine is a thin
``B = 1`` wrapper over this module; property-tested in
``tests/test_batch_simulation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.backend import (
    Backend,
    batched_bincount,
    ensure_numpy,
    expected_transfer,
    from_numpy,
    random_uniform,
    resolve_backend,
    take_along_axis,
    to_numpy,
)
from repro.batch.padding import PaddedValues
from repro.batch.payoffs import as_k_vector, congestion_table_batch
from repro.batch.solvers import as_padded
from repro.core.policies import CongestionPolicy
from repro.utils.rng import as_generator
from repro.utils.sampling import STACK_SPACING, stacked_flat_cdfs
from repro.utils.validation import check_positive_integer, check_probability_rows

__all__ = [
    "DEFAULT_MAX_CHUNK_DRAWS",
    "DispersalSimulationBatch",
    "ProfileSimulationBatch",
    "as_strategy_batch",
    "simulate_dispersal_batch",
    "simulate_profile_batch",
]

#: Default ceiling on the number of uniform draws materialised per chunk
#: (``B * k_max`` draws per trial).  2**22 doubles is ~32 MB — the whole
#: chunk pipeline (choices, occupancies, payoffs) peaks at a small multiple
#: of that, so even thousand-row sweeps stay within a few hundred MB.
DEFAULT_MAX_CHUNK_DRAWS = 1 << 22

# --------------------------------------------------------------------------
# staging helpers
# --------------------------------------------------------------------------


def as_strategy_batch(
    strategies: np.ndarray | Sequence[Any], padded: PaddedValues
) -> np.ndarray:
    """Validate a batch of strategies into a host ``(B, M_max)`` matrix.

    Parameters
    ----------
    strategies:
        A full ``(B, M_max)`` probability matrix, or a length-``B`` sequence
        of per-row strategies (:class:`~repro.core.strategy.Strategy`
        objects or 1-D vectors, ragged lengths allowed as long as each row
        matches its instance's site count).
    padded:
        The instance batch the strategies ride on.  Padded rows are sorted
        non-increasing, so strategy entries must follow the same site order.

    Returns
    -------
    numpy.ndarray
        Host ``(B, M_max)`` float matrix; padding columns are exactly zero
        and every row sums to one over its real sites.
    """
    return check_probability_rows(
        strategies,
        "strategies",
        sizes=padded.sizes,
        shape=(padded.batch_size, padded.width),
    )[0]


def _draw_choices(
    flat_cdfs_dev: Any,
    shifts_dev: Any,
    n_trials: int,
    rng: np.random.Generator,
    be: Backend,
) -> Any:
    """One trial-major ``(n_trials, B, k_max)`` inverse-CDF draw.

    ``shifts_dev`` is the device ``(B, k_max)`` matrix of stacked-CDF row
    shifts (symmetric draws repeat each row's shift across the player axis;
    profile draws give every player their own row).  The uniforms always come
    from the host ``rng`` — trial-major, so chunked draws concatenate to the
    unchunked stream — and are placed on the device once per chunk (the
    documented draw boundary); the ``searchsorted`` inversion runs on the
    active backend.  Returns **device** choices (columns are *global*
    stacked-row positions; the caller subtracts the row offsets and clamps,
    also on the device).
    """
    xp = be.xp
    b, k_max = shifts_dev.shape
    with expected_transfer():
        u = random_uniform(be, rng, (n_trials, int(b), int(k_max)))
    flat = xp.reshape(u + shifts_dev[None, :, :], (-1,))
    positions = xp.searchsorted(flat_cdfs_dev, flat, side="right")
    return xp.reshape(positions, (n_trials, int(b), int(k_max)))


def _chunk_trials(n_trials: int, batch_size: int, k_max: int, max_chunk_draws: int) -> int:
    """Trials per chunk under the ``max_chunk_draws`` memory cap (at least 1)."""
    max_chunk_draws = check_positive_integer(max_chunk_draws, "max_chunk_draws")
    return max(1, min(n_trials, max_chunk_draws // max(1, batch_size * k_max)))


def _sem_vector(sq_sum: np.ndarray, mean: np.ndarray, n_trials: int) -> np.ndarray:
    """Standard errors of per-trial means; ``nan`` rows when ``n_trials == 1``."""
    if n_trials == 1:
        return np.full(mean.shape, np.nan)
    var = np.maximum(sq_sum / n_trials - mean**2, 0.0)
    return np.sqrt(var / n_trials)


# --------------------------------------------------------------------------
# symmetric-profile simulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersalSimulationBatch:
    """Summary statistics of a symmetric-profile simulation, one row per instance.

    All "mean" quantities are per-trial averages and the matching ``*_sems``
    entries are standard errors of those means; every ``*_sems`` entry is
    ``nan`` when ``n_trials == 1`` (a single trial carries no spread
    information).  Every attribute is a plain host NumPy array with the
    documented dtype, whatever array backend ran the draw inversion.

    Attributes
    ----------
    n_trials:
        Trials simulated per instance.
    k:
        ``(B,)`` ``int64`` per-row player counts.
    coverage_means, coverage_sems:
        ``(B,)`` ``float64`` per-trial coverage statistics.
    payoff_means, payoff_sems:
        ``(B,)`` ``float64`` per-player average payoff statistics.
    collision_rates:
        ``(B,)`` ``float64`` fraction of ``(trial, player)`` pairs that
        shared their site.
    sites_visited_means:
        ``(B,)`` ``float64`` mean number of distinct sites visited per trial.
    occupancy_histograms:
        ``(B, k_max + 1)`` ``int64``; entry ``[b, l]`` counts the
        ``(trial, site)`` pairs of row ``b`` with exactly ``l`` visitors
        (real sites only; columns beyond ``k_b`` are zero).
    site_visit_frequencies:
        ``(B, M_max)`` ``float64`` fraction of trials in which each site
        received at least one visitor; padding columns are zero.
    padded:
        The instance batch of the ``B`` axis.
    """

    n_trials: int
    k: np.ndarray
    coverage_means: np.ndarray
    coverage_sems: np.ndarray
    payoff_means: np.ndarray
    payoff_sems: np.ndarray
    collision_rates: np.ndarray
    sites_visited_means: np.ndarray
    occupancy_histograms: np.ndarray
    site_visit_frequencies: np.ndarray
    padded: PaddedValues


def simulate_dispersal_batch(
    values: PaddedValues | Sequence | np.ndarray,
    strategies: np.ndarray | Sequence[Any],
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    n_trials: int,
    rng: np.random.Generator | int | None = None,
    *,
    max_chunk_draws: int = DEFAULT_MAX_CHUNK_DRAWS,
    backend: Backend | str | None = None,
) -> DispersalSimulationBatch:
    """Simulate ``n_trials`` symmetric-profile games for every instance at once.

    The batch counterpart of :class:`repro.simulation.engine.DispersalSimulator.run`
    (which is a thin ``B = 1`` wrapper over this kernel): row ``b`` plays
    ``k_b`` i.i.d. players drawing sites from ``strategies[b]`` on instance
    ``b``, and all rows share each trial-major uniform block.

    Parameters
    ----------
    values:
        Instance batch (ragged ``M`` allowed; see
        :func:`~repro.batch.solvers.as_padded`).
    strategies:
        Per-row strategies (see :func:`as_strategy_batch`).
    k:
        Player count — scalar or per-row ``(B,)`` vector.
    policy:
        Congestion policy shared by every row (validated at the largest
        ``k_b``).
    n_trials:
        Trials per instance.
    rng:
        Seed or host generator (see :func:`repro.utils.rng.as_generator`).
    max_chunk_draws:
        Memory cap: at most this many uniforms (= ``B * k_max`` per trial)
        are materialised per chunk.  The sampled choices (and all integer
        statistics) are bit-identical for every cap value; accumulated float
        statistics agree to summation rounding.
    backend:
        Array backend running the ``searchsorted`` inversion (``None`` =
        active backend).  Statistics are host-side; results never depend on
        the choice.
    """
    n_trials = check_positive_integer(n_trials, "n_trials")
    be = resolve_backend(backend)
    generator = as_generator(rng)
    padded = as_padded(values)
    b, m = padded.batch_size, padded.width
    ks = as_k_vector(k, b)
    k_max = int(ks.max())
    policy.validate(k_max)
    probabilities = as_strategy_batch(strategies, padded)

    row_offsets = np.broadcast_to(np.arange(b, dtype=np.int64)[:, None], (b, k_max))
    with expected_transfer():  # input staging: one upload per kernel call
        flat_cdfs = from_numpy(be, stacked_flat_cdfs(probabilities), dtype=be.float_dtype)
        shifts = from_numpy(be, STACK_SPACING * row_offsets, dtype=be.float_dtype)
        offsets = from_numpy(be, row_offsets * m, dtype=be.int_dtype)
        limits = from_numpy(be, (padded.sizes - 1)[None, :, None], dtype=be.int_dtype)
    accum = _Accumulators(padded, ks, policy, profile=False, backend=be)

    xp = be.xp
    chunk = _chunk_trials(n_trials, b, k_max, max_chunk_draws)
    remaining = n_trials
    while remaining > 0:
        batch = min(remaining, chunk)
        positions = _draw_choices(flat_cdfs, shifts, batch, generator, be)
        choices = xp.minimum(positions - offsets[None, :, :], limits)
        accum.update(choices)
        remaining -= batch

    return accum.dispersal_result(n_trials)


# --------------------------------------------------------------------------
# heterogeneous-profile simulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileSimulationBatch:
    """Summary of simulations in which each player may use a different strategy.

    As in :class:`DispersalSimulationBatch`, all attributes are host NumPy
    arrays and every ``*_sems`` entry is ``nan`` when ``n_trials == 1``.
    ``player_payoff_means`` / ``player_payoff_sems`` are ``(B, k_max)``
    ``float64`` matrices; columns beyond a row's ``k_b`` are zero
    (respectively ``nan``), since those player slots do not exist.
    """

    n_trials: int
    k: np.ndarray
    coverage_means: np.ndarray
    coverage_sems: np.ndarray
    player_payoff_means: np.ndarray
    player_payoff_sems: np.ndarray
    padded: PaddedValues


def simulate_profile_batch(
    values: PaddedValues | Sequence | np.ndarray,
    profiles: np.ndarray | Sequence[Sequence[Any]],
    k: Sequence[int] | np.ndarray | int | None,
    policy: CongestionPolicy,
    n_trials: int,
    rng: np.random.Generator | int | None = None,
    *,
    max_chunk_draws: int = DEFAULT_MAX_CHUNK_DRAWS,
    backend: Backend | str | None = None,
) -> ProfileSimulationBatch:
    """Simulate asymmetric strategy profiles for every instance at once.

    The batch counterpart of
    :class:`repro.simulation.engine.DispersalSimulator.run_profile`.  Player
    ``i`` of row ``b`` draws from ``profiles[b][i]``; one stacked CDF over
    all ``B * k_max`` player slots inverts the whole profile draw in a single
    ``searchsorted`` pass per chunk.

    Parameters
    ----------
    values, policy, n_trials, rng, max_chunk_draws, backend:
        As in :func:`simulate_dispersal_batch`.
    profiles:
        ``(B, k_max, M_max)`` probability tensor, or a length-``B`` sequence
        of per-row strategy sequences (each of length ``k_b``).
    k:
        Per-row player counts; ``None`` infers ``k_b`` from the profile
        sequence lengths (a tensor input then means ``k_b = k_max`` for every
        row).  Rows with ``k_b < k_max`` ignore the surplus player slots.
    """
    n_trials = check_positive_integer(n_trials, "n_trials")
    be = resolve_backend(backend)
    generator = as_generator(rng)
    padded = as_padded(values)
    b, m = padded.batch_size, padded.width

    if isinstance(profiles, np.ndarray) or hasattr(profiles, "__array_namespace__"):
        tensor = np.asarray(ensure_numpy(profiles), dtype=float)
        if tensor.ndim != 3 or tensor.shape[0] != b or tensor.shape[2] != m:
            raise ValueError(
                f"profiles must form a ({b}, k_max, {m}) tensor, got {tensor.shape}"
            )
        ks = as_k_vector(tensor.shape[1] if k is None else k, b)
    else:
        rows = [list(row) for row in profiles]
        if len(rows) != b:
            raise ValueError(f"expected {b} profile rows, got {len(rows)}")
        ks = as_k_vector([len(row) for row in rows] if k is None else k, b)
        tensor = np.zeros((b, int(ks.max()), m))
        for index, row in enumerate(rows):
            if len(row) != int(ks[index]):
                raise ValueError(
                    f"profile row {index} has {len(row)} strategies for k={int(ks[index])}"
                )
            tensor[index, : len(row), :] = check_probability_rows(
                row, "strategies", sizes=padded.sizes[index], shape=(len(row), m)
            )[0]
    k_max = int(ks.max())
    if tensor.shape[1] < k_max:
        raise ValueError(f"profiles provide {tensor.shape[1]} player slots for k_max={k_max}")
    tensor = tensor[:, :k_max, :]
    policy.validate(k_max)

    # Validate every *real* player slot; give the surplus slots a valid dummy
    # CDF (their draws are overwritten with the sentinel site anyway).
    player_mask = np.arange(k_max)[None, :] < ks[:, None]
    dummy = np.zeros(m)
    dummy[0] = 1.0
    flat_rows = np.where(
        player_mask.reshape(-1)[:, None],
        tensor.reshape(b * k_max, m),
        dummy[None, :],
    )
    flat_rows, _ = check_probability_rows(
        flat_rows, "strategies", sizes=np.repeat(padded.sizes, k_max)
    )

    row_offsets = (
        np.arange(b, dtype=np.int64)[:, None] * k_max
        + np.arange(k_max, dtype=np.int64)[None, :]
    )
    with expected_transfer():  # input staging: one upload per kernel call
        flat_cdfs = from_numpy(be, stacked_flat_cdfs(flat_rows), dtype=be.float_dtype)
        shifts = from_numpy(be, STACK_SPACING * row_offsets, dtype=be.float_dtype)
        offsets = from_numpy(be, row_offsets * m, dtype=be.int_dtype)
        limits = from_numpy(be, (padded.sizes - 1)[None, :, None], dtype=be.int_dtype)
    accum = _Accumulators(padded, ks, policy, profile=True, backend=be)

    xp = be.xp
    chunk = _chunk_trials(n_trials, b, k_max, max_chunk_draws)
    remaining = n_trials
    while remaining > 0:
        batch = min(remaining, chunk)
        positions = _draw_choices(flat_cdfs, shifts, batch, generator, be)
        choices = xp.minimum(positions - offsets[None, :, :], limits)
        accum.update(choices)
        remaining -= batch

    return accum.profile_result(n_trials)


# --------------------------------------------------------------------------
# chunk statistics
# --------------------------------------------------------------------------


class _Accumulators:
    """Chunk-wise statistics shared by the two simulation kernels.

    Two bodies behind one interface: the NumPy path is the original host
    arithmetic, bit for bit, while non-NumPy backends accumulate every sum
    **on the device** (per-chunk heavy lifting through the
    :func:`~repro.backend.batched_bincount` segment-sum adapter either way).
    The device sums cross to the host exactly once, inside
    :meth:`_materialise`, as the documented result boundary.
    """

    def __init__(
        self,
        padded: PaddedValues,
        ks: np.ndarray,
        policy: CongestionPolicy,
        *,
        profile: bool,
        backend: Backend,
    ) -> None:
        b, m = padded.batch_size, padded.width
        k_max = int(ks.max())
        self.padded = padded
        self.ks = ks
        self.k_max = k_max
        self.profile = profile
        self.be = backend
        self.mask = padded.mask
        # Values extended with a zero sentinel column: padding players point
        # their choices at site M_max and earn exactly nothing.
        self.values_ext = np.concatenate(
            [padded.values * padded.mask, np.zeros((b, 1))], axis=1
        )
        self.tables = congestion_table_batch(policy, ks - 1)  # (B, k_max), zero-padded
        self.pad_players = np.arange(k_max)[None, :] >= ks[:, None]  # (B, k_max)
        self.rows_3d = np.arange(b)[None, :, None]

        self.coverage_sum = np.zeros(b)
        self.coverage_sq_sum = np.zeros(b)
        self.sites_visited_sum = np.zeros(b)
        self.collisions = np.zeros(b, dtype=np.int64)
        self.occupancy_histogram = np.zeros((b, k_max + 1), dtype=np.int64)
        self.site_visits = np.zeros((b, m), dtype=np.int64)
        if profile:
            self.payoff_sum = np.zeros((b, k_max))
            self.payoff_sq_sum = np.zeros((b, k_max))
        else:
            self.payoff_sum = np.zeros(b)
            self.payoff_sq_sum = np.zeros(b)
        if not backend.is_numpy:
            self._init_device()

    def _init_device(self) -> None:
        """Stage the per-batch constants and zeroed sums on the device."""
        be, b, m, k_max = self.be, self.padded.batch_size, self.padded.width, self.k_max
        xp = be.xp
        fdt, idt = be.float_dtype, be.int_dtype
        with expected_transfer():  # input staging: one upload per kernel call
            self.values_ext_dev = from_numpy(be, self.values_ext, dtype=fdt)
            self.tables_flat_dev = from_numpy(be, self.tables.reshape(-1), dtype=fdt)
            self.pad_players_dev = from_numpy(be, self.pad_players)
            self.mask_dev = from_numpy(be, self.mask)
            self.ks_f_dev = from_numpy(be, np.asarray(self.ks, dtype=float), dtype=fdt)
            self.sentinel_dev = from_numpy(be, np.asarray(m, dtype=np.int64), dtype=idt)
            self.hist_sentinel_dev = from_numpy(
                be, np.asarray(k_max + 1, dtype=np.int64), dtype=idt
            )
            # Flat-gather row offsets: ``xp.take`` over a raveled matrix
            # replaces NumPy's 2-D fancy indexing on standard namespaces.
            self.val_rows_dev = from_numpy(
                be, (np.arange(b, dtype=np.int64) * (m + 1))[None, :, None], dtype=idt
            )
            self.table_rows_dev = from_numpy(
                be, (np.arange(b, dtype=np.int64) * k_max)[None, :, None], dtype=idt
            )
        self.values_flat_dev = xp.reshape(self.values_ext_dev, (-1,))
        self.values_m_dev = self.values_ext_dev[:, :m]
        self.coverage_sum = xp.zeros((b,), dtype=fdt)
        self.coverage_sq_sum = xp.zeros((b,), dtype=fdt)
        self.sites_visited_sum = xp.zeros((b,), dtype=idt)
        self.collisions = xp.zeros((b,), dtype=idt)
        self.occupancy_histogram = xp.zeros((b, k_max + 1), dtype=idt)
        self.site_visits = xp.zeros((b, m), dtype=idt)
        shape = (b, k_max) if self.profile else (b,)
        self.payoff_sum = xp.zeros(shape, dtype=fdt)
        self.payoff_sq_sum = xp.zeros(shape, dtype=fdt)
        self._materialised = False

    def update(self, choices: Any) -> None:
        """Fold one ``(n_chunk, B, k_max)`` chunk of site choices into the sums."""
        if self.be.is_numpy:
            self._update_host(np.asarray(choices))
        else:
            self._update_device(choices)

    def _update_host(self, choices: np.ndarray) -> None:
        """Original host accumulation (bit-identical NumPy fast path)."""
        n_chunk, b, k_max = choices.shape
        m = self.padded.width
        if self.pad_players.any():
            choices = np.where(self.pad_players[None, :, :], m, choices)

        occ3 = batched_bincount(choices.reshape(n_chunk * b, k_max), m + 1)
        occ3 = occ3.reshape(n_chunk, b, m + 1)
        occ = occ3[:, :, :m]

        visited = occ > 0
        coverage = np.einsum("tbm,bm->tb", visited, self.values_ext[:, :m])
        self.coverage_sum += coverage.sum(axis=0)
        self.coverage_sq_sum += (coverage**2).sum(axis=0)
        self.sites_visited_sum += visited.sum(axis=2).sum(axis=0)
        self.site_visits += visited.sum(axis=0)

        player_occ = np.take_along_axis(occ3, choices, axis=2)
        payoffs = (
            self.values_ext[self.rows_3d, choices]
            * self.tables[self.rows_3d, player_occ - 1]
        )
        if self.profile:
            self.payoff_sum += payoffs.sum(axis=0)
            self.payoff_sq_sum += (payoffs**2).sum(axis=0)
        else:
            per_trial = payoffs.sum(axis=2) / self.ks[None, :]
            self.payoff_sum += per_trial.sum(axis=0)
            self.payoff_sq_sum += (per_trial**2).sum(axis=0)
        self.collisions += ((player_occ > 1) & ~self.pad_players[None, :, :]).sum(
            axis=(0, 2)
        )

        # Per-row occupancy histogram over real (trial, site) pairs: padding
        # sites are diverted to a sentinel bin and dropped; offsetting by the
        # row index turns the whole chunk into one flat segment-sum bincount.
        bins = self.k_max + 2
        occ_h = np.where(self.mask[None, :, :], occ, self.k_max + 1)
        occ_h += bins * np.arange(b, dtype=occ_h.dtype)[None, :, None]
        counts = np.bincount(occ_h.ravel(), minlength=b * bins).reshape(b, bins)
        self.occupancy_histogram += counts[:, : self.k_max + 1]

    def _update_device(self, choices: Any) -> None:
        """Device-resident accumulation: same sums, zero host crossings."""
        be = self.be
        xp = be.xp
        fdt, idt = be.float_dtype, be.int_dtype
        n_chunk, b, k_max = (int(s) for s in choices.shape)
        m = self.padded.width
        if bool(self.pad_players.any()):  # host-known at staging time
            choices = xp.where(self.pad_players_dev[None, :, :], self.sentinel_dev, choices)

        occ3 = batched_bincount(
            xp.reshape(choices, (n_chunk * b, k_max)), m + 1, backend=be
        )
        occ3 = xp.reshape(occ3, (n_chunk, b, m + 1))
        occ = occ3[:, :, :m]

        visited = occ > 0
        visited_f = xp.astype(visited, fdt)
        if be.supports_einsum:
            coverage = xp.einsum("tbm,bm->tb", visited_f, self.values_m_dev)
        else:
            coverage = xp.sum(visited_f * self.values_m_dev[None, :, :], axis=2)
        self.coverage_sum = self.coverage_sum + xp.sum(coverage, axis=0)
        self.coverage_sq_sum = self.coverage_sq_sum + xp.sum(coverage * coverage, axis=0)
        visited_i = xp.astype(visited, idt)
        self.sites_visited_sum = self.sites_visited_sum + xp.sum(visited_i, axis=(0, 2))
        self.site_visits = self.site_visits + xp.sum(visited_i, axis=0)

        player_occ = take_along_axis(be, occ3, choices, axis=2)
        site_vals = xp.reshape(
            xp.take(self.values_flat_dev, xp.reshape(choices + self.val_rows_dev, (-1,))),
            choices.shape,
        )
        factors = xp.reshape(
            xp.take(
                self.tables_flat_dev,
                xp.reshape(player_occ - 1 + self.table_rows_dev, (-1,)),
            ),
            choices.shape,
        )
        payoffs = site_vals * factors
        if self.profile:
            self.payoff_sum = self.payoff_sum + xp.sum(payoffs, axis=0)
            self.payoff_sq_sum = self.payoff_sq_sum + xp.sum(payoffs * payoffs, axis=0)
        else:
            per_trial = xp.sum(payoffs, axis=2) / self.ks_f_dev[None, :]
            self.payoff_sum = self.payoff_sum + xp.sum(per_trial, axis=0)
            self.payoff_sq_sum = self.payoff_sq_sum + xp.sum(per_trial * per_trial, axis=0)
        colliding = (player_occ > 1) & ~self.pad_players_dev[None, :, :]
        self.collisions = self.collisions + xp.sum(xp.astype(colliding, idt), axis=(0, 2))

        # Per-row occupancy histogram: padding sites go to a sentinel bin
        # that is sliced off; transposing to (B, n_chunk * M) makes each row
        # one segment of the batched bincount, all on the device.
        bins = self.k_max + 2
        occ_h = xp.where(self.mask_dev[None, :, :], occ, self.hist_sentinel_dev)
        occ_rows = xp.reshape(xp.permute_dims(occ_h, (1, 0, 2)), (b, n_chunk * m))
        counts = batched_bincount(occ_rows, bins, backend=be)
        self.occupancy_histogram = self.occupancy_histogram + counts[:, : self.k_max + 1]

    def _materialise(self) -> None:
        """The single documented device→host crossing of the result boundary."""
        if self.be.is_numpy or self._materialised:
            return
        with expected_transfer():
            self.coverage_sum = np.asarray(to_numpy(self.coverage_sum), dtype=np.float64)
            self.coverage_sq_sum = np.asarray(
                to_numpy(self.coverage_sq_sum), dtype=np.float64
            )
            self.sites_visited_sum = np.asarray(
                to_numpy(self.sites_visited_sum), dtype=np.float64
            )
            self.collisions = np.asarray(to_numpy(self.collisions), dtype=np.int64)
            self.occupancy_histogram = np.asarray(
                to_numpy(self.occupancy_histogram), dtype=np.int64
            )
            self.site_visits = np.asarray(to_numpy(self.site_visits), dtype=np.int64)
            self.payoff_sum = np.asarray(to_numpy(self.payoff_sum), dtype=np.float64)
            self.payoff_sq_sum = np.asarray(to_numpy(self.payoff_sq_sum), dtype=np.float64)
        self._materialised = True

    # ------------------------------------------------------------- results
    def dispersal_result(self, n_trials: int) -> DispersalSimulationBatch:
        self._materialise()
        coverage_means = self.coverage_sum / n_trials
        payoff_means = self.payoff_sum / n_trials
        return DispersalSimulationBatch(
            n_trials=n_trials,
            k=self.ks,
            coverage_means=coverage_means,
            coverage_sems=_sem_vector(self.coverage_sq_sum, coverage_means, n_trials),
            payoff_means=payoff_means,
            payoff_sems=_sem_vector(self.payoff_sq_sum, payoff_means, n_trials),
            collision_rates=self.collisions / (n_trials * self.ks),
            sites_visited_means=self.sites_visited_sum / n_trials,
            occupancy_histograms=self.occupancy_histogram,
            site_visit_frequencies=np.asarray(
                self.site_visits / n_trials, dtype=np.float64
            ),
            padded=self.padded,
        )

    def profile_result(self, n_trials: int) -> ProfileSimulationBatch:
        self._materialise()
        coverage_means = self.coverage_sum / n_trials
        payoff_means = self.payoff_sum / n_trials
        payoff_sems = _sem_vector(self.payoff_sq_sum, payoff_means, n_trials)
        # Surplus player slots do not exist: zero means, nan spreads.
        payoff_means = np.where(self.pad_players, 0.0, payoff_means)
        payoff_sems = np.where(self.pad_players, np.nan, payoff_sems)
        return ProfileSimulationBatch(
            n_trials=n_trials,
            k=self.ks,
            coverage_means=coverage_means,
            coverage_sems=_sem_vector(self.coverage_sq_sum, coverage_means, n_trials),
            player_payoff_means=payoff_means,
            player_payoff_sems=payoff_sems,
            padded=self.padded,
        )
