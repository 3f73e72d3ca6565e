"""Unified batched dynamics engine: one stepping loop for every update rule.

The loop (evaluate the payoff kernel, apply an update, measure the L1 step,
record at strides, stop on tolerance or iteration cap) is written once: the
:class:`DynamicsEngine` evolves a whole ``(B, M)`` population of game states
simultaneously:

* **pluggable rules** — an :class:`UpdateRule` maps ``(states, t)`` to new
  states; the bundled rules cover the replicator variants, logit response,
  smoothed best response and the invasion share dynamic;
* **one ``nu`` per step** — payoff-driven rules receive the batched
  ``site_values`` evaluation exactly once per iteration and derive mean
  payoff, best response and update direction from it.  Its congestion
  factor ``g_b(q)`` comes from the IFD solver's
  :func:`~repro.batch.ifd.bernstein_evaluator`, built once per engine from
  the congestion tables (de Casteljau up to ``k = 25``, log-space binomial
  laws above);
* **per-row convergence masking** — rows that meet the tolerance (or a rule's
  own halting condition) are frozen and dropped from subsequent kernel
  evaluations, and the loop exits early once every row is done;
* **strided trajectory recording** — full-batch snapshots are taken every
  ``record_every`` steps; :meth:`DynamicsBatchResult.trajectory` slices them
  back into exactly the per-row trajectories the scalar loops used to build.

The stepping math is pure Array-API code on the backend resolved at engine
construction (:mod:`repro.backend`).  On NumPy the engine steps a compact
working array of the active rows and writes it back to the full batch only
when a row finishes, on record steps and at exit; the evaluator, values,
masks and rule constants are restricted to that subset once per change of
it (:meth:`DynamicsEngine.restrict`), not once per step.  On every other
backend the run is *device-resident*:
all constants (padded values, masks, the evaluator's congestion
coefficients, rule-specific shifts) are staged once at construction under an
expected-transfer boundary, the full batch is stepped each iteration with
finished rows frozen by ``where``, and the convergence mask, iteration
counters and trajectory snapshots live on the device until one documented
host materialisation at the end of :meth:`DynamicsEngine.run`.  The only
per-iteration host contact is a scalar ``any(active)`` early-exit check, so
``repro.backend.track_transfers`` observes zero mid-kernel crossings.
With ``compile=True`` the per-rule step is additionally wrapped in
``torch.compile`` on the torch backend (see :mod:`repro.batch.compiled`).

The scalar entry points in :mod:`repro.dynamics` are thin ``B = 1`` wrappers
around this engine, so batched and scalar runs share one implementation and
agree elementwise (property-tested in ``tests/test_batch_dynamics.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.backend import (
    Backend,
    ensure_numpy,
    expected_transfer,
    from_numpy,
    resolve_backend,
    scatter_rows,
    take_rows,
    to_numpy,
)
from repro.batch.compiled import compiled_step_for
from repro.batch.padding import PaddedValues
from repro.batch.ifd import bernstein_evaluator
from repro.batch.payoffs import as_k_vector, congestion_table_batch
from repro.batch.solvers import as_padded
from repro.core.policies import CongestionPolicy
from repro.core.strategy import Strategy
from repro.utils.validation import check_positive_integer, check_probability_rows

__all__ = [
    "UpdateRule",
    "PayoffRule",
    "DiscreteReplicatorRule",
    "EulerReplicatorRule",
    "LogitRule",
    "SmoothedBestResponseRule",
    "InvasionRule",
    "DynamicsBatchResult",
    "DynamicsEngine",
    "make_rule",
    "replicator_batch",
    "logit_batch",
    "best_response_batch",
    "invasion_batch",
]


# --------------------------------------------------------------------- rules
class UpdateRule(abc.ABC):
    """One step of a batched dynamic: ``states -> new states`` on active rows.

    A rule is bound to a :class:`DynamicsEngine` before the run; the engine
    exposes the padded value batch, per-row player counts, the validity mask
    and a precomputed congestion table, so rules never re-tabulate anything
    inside the loop.  ``states`` are arrays of the engine's backend; per-row
    constants a rule precomputes in :meth:`bind` should be staged on the host
    and transferred once via ``engine.device``, then sliced to the stepped
    rows in :meth:`restrict`.
    """

    #: Registry/report name of the rule.
    name: str = "rule"

    def bind(self, engine: "DynamicsEngine") -> None:
        """Attach the rule to an engine and precompute per-row constants."""
        self.engine = engine

    def restrict(self, rows: np.ndarray | None) -> None:
        """Slice the per-row constants to the rows stepped from now on.

        ``rows`` is a host index vector, or ``None`` for the full batch.  The
        engine calls this whenever the stepped row set changes, never per
        step; rules without per-row constants keep this no-op.
        """

    @abc.abstractmethod
    def step(self, states: Any, t: int, record: bool = True) -> tuple[Any, Any | None]:
        """Advance the states of the stepped rows one iteration.

        ``states`` are already sliced to the rows of the last
        :meth:`restrict`.  Returns the new states plus, for rules that track
        it and on ``record`` steps, the mean payoff of the *pre-update*
        states (used for strided payoff recording) — ``None`` otherwise.
        """

    def finished(self, states: Any) -> Any | None:
        """Optional extra halting condition (e.g. threshold crossing).

        Evaluated on the *post-update* states of the stepped rows; ``None``
        (the default) means only the engine's tolerance stops a row.
        """
        return None

    def final_payoffs(self, states: Any) -> Any | None:
        """Mean payoff of every row's final state (``None`` if not tracked)."""
        return None


class PayoffRule(UpdateRule):
    """Base for rules driven by the batched payoff kernel.

    ``step`` evaluates ``nu`` exactly once and hands it to :meth:`respond`;
    subclasses derive best responses, mean payoffs and update directions from
    that single evaluation instead of re-entering the kernel.
    """

    #: Whether the engine should keep a mean-payoff history for this rule.
    records_payoffs: bool = False

    def step(self, states: Any, t: int, record: bool = True) -> tuple[Any, Any | None]:
        xp = self.engine.xp
        nu = self.engine.site_values(states)
        payoffs = xp.sum(states * nu, axis=1) if self.records_payoffs and record else None
        return self.respond(states, nu, t), payoffs

    def final_payoffs(self, states: Any) -> Any | None:
        if not self.records_payoffs:
            return None
        xp = self.engine.xp
        nu = self.engine.site_values(states)
        return xp.sum(states * nu, axis=1)

    @abc.abstractmethod
    def respond(self, states: Any, nu: Any, t: int) -> Any:
        """New states given the (single) ``nu`` evaluation of this step."""


class DiscreteReplicatorRule(PayoffRule):
    """Maynard Smith discrete replicator ``p' ~ p * (nu + shift)``.

    The per-row ``shift`` makes fitnesses positive even for aggressive
    (negative-payoff) policies, exactly as the scalar loop did.
    """

    name = "discrete"
    records_payoffs = True

    def bind(self, engine: "DynamicsEngine") -> None:
        super().bind(engine)
        # min over the zero-padded table equals min(table(k_b), 0); the shift
        # formula only reacts to negative congestion, so the padding zeros
        # are harmless.  Staged on the host once, shipped to the backend once.
        worst_congestion = engine.tables.min(axis=1)
        f_max = engine.values.max(axis=1)
        shift = np.maximum(0.0, -worst_congestion * f_max) + 1e-3 * f_max
        self.shift = engine.device(shift)

    def restrict(self, rows: np.ndarray | None) -> None:
        self.stepped_shift = self.engine.rows_of(self.shift, rows)[:, None]

    def respond(self, states: Any, nu: Any, t: int) -> Any:
        xp = self.engine.xp
        weighted = states * (nu + self.stepped_shift)
        return weighted / xp.sum(weighted, axis=1, keepdims=True)


class EulerReplicatorRule(PayoffRule):
    """Euler discretisation of the continuous replicator equation."""

    name = "euler"
    records_payoffs = True

    def __init__(self, step_size: float = 0.2):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = float(step_size)

    def respond(self, states: Any, nu: Any, t: int) -> Any:
        xp = self.engine.xp
        mean = xp.sum(states * nu, axis=1, keepdims=True)
        new = xp.clip(states + self.step_size * states * (nu - mean), 0.0, None)
        totals = xp.sum(new, axis=1, keepdims=True)
        if bool(xp.any(totals <= 0)):
            raise RuntimeError("euler replicator step annihilated the population state")
        return new / totals


class LogitRule(PayoffRule):
    """Damped logit (smooth fictitious play) response with decaying step."""

    name = "logit"

    def __init__(
        self,
        rationality: float = 50.0,
        damping: float = 0.5,
        step_decay: float = 0.01,
    ):
        if rationality <= 0:
            raise ValueError("rationality must be positive")
        if not 0 < damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if step_decay < 0:
            raise ValueError("step_decay must be non-negative")
        self.rationality = float(rationality)
        self.damping = float(damping)
        self.step_decay = float(step_decay)

    def respond(self, states: Any, nu: Any, t: int) -> Any:
        xp = self.engine.xp
        # Padding sites get -inf logits so the softmax never leaks mass onto
        # them (their nu of zero could otherwise beat negative real payoffs).
        logits = xp.where(
            self.engine.stepped_mask, self.rationality * nu, self.engine.neg_inf_dev
        )
        logits = logits - xp.max(logits, axis=1, keepdims=True)
        weights = xp.exp(logits)
        response = weights / xp.sum(weights, axis=1, keepdims=True)
        gamma = self.damping / (1.0 + self.step_decay * t)
        return (1.0 - gamma) * states + gamma * response


class SmoothedBestResponseRule(PayoffRule):
    """Damped best response mixing uniformly over near-maximal sites."""

    name = "best-response"

    def __init__(
        self,
        step_size: float = 0.5,
        step_decay: float = 0.01,
        tie_atol: float = 1e-12,
    ):
        if step_size <= 0 or not (0 <= step_decay):
            raise ValueError("step_size must be positive and step_decay non-negative")
        self.step_size = float(step_size)
        self.step_decay = float(step_decay)
        self.tie_atol = float(tie_atol)

    def respond(self, states: Any, nu: Any, t: int) -> Any:
        xp = self.engine.xp
        fdt = self.engine.backend.float_dtype
        masked_nu = xp.where(self.engine.stepped_mask, nu, self.engine.neg_inf_dev)
        best = masked_nu >= xp.max(masked_nu, axis=1, keepdims=True) - self.tie_atol
        bestf = xp.astype(best, fdt)
        response = bestf / xp.sum(bestf, axis=1, keepdims=True)
        gamma = self.step_size / (1.0 + self.step_decay * t)
        return (1.0 - gamma) * states + gamma * response


class InvasionRule(UpdateRule):
    """Two-type replicator on the mutant share (state width 1 per row).

    The state is the ``(B, 1)`` mutant-share vector; every step builds the
    per-row population mixture, evaluates its ``nu`` **once**, and derives
    both the resident and the mutant payoff from it — the scalar loop used to
    evaluate the kernel twice per step, once inside each ``mixture_payoff``.
    """

    name = "invasion"

    def __init__(
        self,
        resident: np.ndarray,
        mutant: np.ndarray,
        *,
        selection_strength: float = 0.5,
        extinction_threshold: float = 1e-6,
        fixation_threshold: float = 1.0 - 1e-6,
    ):
        if selection_strength <= 0:
            raise ValueError("selection_strength must be positive")
        self._resident_host = np.asarray(ensure_numpy(resident), dtype=float)
        self._mutant_host = np.asarray(ensure_numpy(mutant), dtype=float)
        self.selection_strength = float(selection_strength)
        self.extinction_threshold = float(extinction_threshold)
        self.fixation_threshold = float(fixation_threshold)

    def bind(self, engine: "DynamicsEngine") -> None:
        super().bind(engine)
        shape = engine.values.shape
        if self._resident_host.shape != shape or self._mutant_host.shape != shape:
            raise ValueError(
                "resident and mutant strategy matrices must match the padded "
                f"batch shape {shape}"
            )
        self.resident = engine.device(self._resident_host)
        self.mutant = engine.device(self._mutant_host)
        # Payoff differences are normalised by the largest site value so the
        # share step is dimensionless (values are positive, so max == max|.|).
        self.scale = engine.device(engine.values.max(axis=1))

    def restrict(self, rows: np.ndarray | None) -> None:
        self.stepped_resident, self.stepped_mutant, self.stepped_scale = (
            self.engine.rows_of(a, rows) for a in (self.resident, self.mutant, self.scale)
        )

    def step(self, states: Any, t: int, record: bool = True) -> tuple[Any, Any | None]:
        xp = self.engine.xp
        share = states[:, 0]
        resident, mutant = self.stepped_resident, self.stepped_mutant
        mixed = (1.0 - share)[:, None] * resident + share[:, None] * mutant
        nu = self.engine.site_values(mixed)  # one kernel pass per step
        delta = xp.sum((mutant - resident) * nu, axis=1) / self.stepped_scale
        new = share + self.selection_strength * share * (1.0 - share) * delta
        return xp.clip(new, 0.0, 1.0)[:, None], None

    def finished(self, states: Any) -> Any:
        share = states[:, 0]
        return (share <= self.extinction_threshold) | (share >= self.fixation_threshold)


# -------------------------------------------------------------------- result
@dataclass(frozen=True)
class DynamicsBatchResult:
    """Outcome of one :class:`DynamicsEngine` run over a ``(B, M)`` batch.

    Attributes
    ----------
    states:
        ``(B, M)`` final (raw, un-renormalised) states.
    converged:
        ``(B,)`` booleans — ``True`` where the tolerance (or the rule's own
        halting condition) was met before the iteration cap.
    iterations:
        ``(B,)`` number of update steps each row actually performed (frozen
        rows stop counting; unconverged rows show the cap).
    record_times:
        ``(R,)`` iteration numbers of the snapshots (``0`` first).
    records:
        ``(R, B, M)`` state snapshots (``records[0]`` is the initial batch).
    payoff_records:
        ``(R - 1, B)`` mean payoffs at the recorded iterations (empty when the
        rule does not track payoffs).
    final_payoffs:
        ``(B,)`` mean payoffs of the final states (``None`` when untracked).
    sizes:
        ``(B,)`` true (unpadded) site counts.
    rule_name:
        Name of the update rule that produced the run.

    All array attributes are host NumPy arrays regardless of the backend the
    engine stepped on (snapshots are materialised on the host as they are
    recorded).
    """

    states: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    record_times: np.ndarray
    records: np.ndarray
    payoff_records: np.ndarray
    final_payoffs: np.ndarray | None
    sizes: np.ndarray
    rule_name: str

    @property
    def batch_size(self) -> int:
        """Number of rows ``B``."""
        return int(self.states.shape[0])

    def strategy(self, row: int) -> Strategy:
        """Final state of ``row`` as a normalised :class:`Strategy` (padding trimmed)."""
        size = int(self.sizes[row])
        p = self.states[row, :size]
        return Strategy(np.clip(p, 0.0, None) / p.sum())

    def trajectory(self, row: int) -> np.ndarray:
        """Per-row recorded trajectory, exactly as the scalar loops built it.

        The rows are the initial state, every stride snapshot taken while the
        row was still active, and the final state when it differs from the
        last snapshot.
        """
        size = int(self.sizes[row])
        limit = int(self.iterations[row])
        states = [
            self.records[index, row, :size]
            for index, t in enumerate(self.record_times)
            if t <= limit
        ]
        final = self.states[row, :size]
        if not np.array_equal(states[-1], final):
            states.append(final)
        return np.asarray(states)

    def payoff_history(self, row: int) -> np.ndarray:
        """Recorded mean payoffs of ``row`` plus the final-state payoff."""
        if self.final_payoffs is None:
            raise ValueError(f"rule {self.rule_name!r} does not track payoffs")
        limit = int(self.iterations[row])
        history = [
            self.payoff_records[index, row]
            for index, t in enumerate(self.record_times[1:])
            if t <= limit
        ]
        history.append(self.final_payoffs[row])
        return np.asarray(history)


# -------------------------------------------------------------------- engine
class DynamicsEngine:
    """Evolve a whole batch of game states under one pluggable update rule.

    Parameters
    ----------
    values:
        Instance batch: a :class:`~repro.batch.padding.PaddedValues`, a 2-D
        matrix of equal-width profiles, or any iterable of profiles (ragged
        ``M`` allowed).
    k:
        Player count — a scalar for the whole batch or a per-row ``(B,)``
        vector.
    policy:
        Congestion policy shared by every row (validated at the largest
        ``k``).
    rule:
        The :class:`UpdateRule` to iterate.
    max_iter, tol:
        Iteration cap and per-row L1 convergence tolerance.  ``tol=None``
        disables tolerance-based stopping (rules with their own
        :meth:`UpdateRule.finished` condition, e.g. invasion, run until they
        halt or hit the cap).
    record_every:
        Snapshot stride of the trajectory recording.
    backend:
        Array backend the stepping runs on — a name, a resolved
        :class:`~repro.backend.Backend`, or ``None`` for the active one.
    compile:
        Opt-in compiled stepping: on the torch backend the per-rule step is
        wrapped in ``torch.compile`` (graphs cached per rule and
        power-of-two width bucket, see :mod:`repro.batch.compiled`); on any
        other backend — or when compilation is unavailable — the flag
        silently falls back to eager stepping.
    """

    def __init__(
        self,
        values: PaddedValues | Sequence | np.ndarray,
        k: Sequence[int] | np.ndarray | int,
        policy: CongestionPolicy,
        rule: UpdateRule,
        *,
        max_iter: int = 20_000,
        tol: float | None = 1e-12,
        record_every: int = 100,
        backend: Backend | str | None = None,
        compile: bool = False,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.xp = self.backend.xp
        self.padded = as_padded(values)
        #: Host-side views (rules stage their per-row constants from these).
        self.values = self.padded.values
        self.mask = self.padded.mask
        self.sizes = self.padded.sizes
        self.ks = as_k_vector(k, self.padded.batch_size)
        self.policy = policy
        policy.validate(int(self.ks.max()))  # covers every smaller k
        self.max_iter = check_positive_integer(max_iter, "max_iter")
        self.tol = None if tol is None else float(tol)
        self.record_every = check_positive_integer(record_every, "record_every")
        #: (B, n_max + 1) host congestion tables, computed once per run.
        self.tables = congestion_table_batch(policy, self.ks - 1)
        # Everything the loop touches is staged on the backend exactly once,
        # under one expected-transfer boundary: per-step work never crosses
        # the host/device seam again.
        with expected_transfer():
            #: Backend-resident copies used by every step.
            self.values_dev = self.padded.values_for(self.backend)
            self.mask_dev = self.padded.mask_for(self.backend)
            self.fmask_dev = self.padded.fmask_for(self.backend)
            self._weights = self.values_dev * self.fmask_dev  # nu = g(q) * weights
            self.sizes_dev = from_numpy(
                self.backend, self.sizes, dtype=self.backend.int_dtype
            )
            #: Device scalars shared by rules (a per-step ``asarray`` would
            #: land on the default device, not the engine's).
            self.neg_inf_dev = self.device(np.asarray(-np.inf))
            self.zero_dev = self.device(np.asarray(0.0))
            self.one_dev = self.device(np.asarray(1.0))
            #: ``g_b(q)`` of every row, by the IFD solver's evaluator.
            self._congestion = bernstein_evaluator(self.tables, self.ks - 1, self.backend)
            self.rule = rule
            rule.bind(self)
        self.compile = bool(compile)
        self._compiled_step = compiled_step_for(self) if self.compile else None

    @property
    def batch_size(self) -> int:
        """Number of rows ``B``."""
        return self.padded.batch_size

    # --------------------------------------------------------- backend plumbing
    def device(self, array: np.ndarray) -> Any:
        """Ship a host float array to the engine's backend (no-op on NumPy)."""
        return from_numpy(self.backend, np.asarray(array, dtype=float),
                          dtype=self.backend.float_dtype)

    def rows_of(self, array: Any, rows: np.ndarray | None) -> Any:
        """Slice backend-resident per-row constants to ``rows`` (``None``: all)."""
        return take_rows(self.backend, array, rows)

    def restrict(self, rows: np.ndarray | None) -> None:
        """Stage the per-row constants of ``rows`` (``None``: all) for the next steps.

        Slices the values, masks and congestion evaluator here and the rule's
        own constants through :meth:`UpdateRule.restrict`, so a step touches
        no per-row constant outside its rows.  The NumPy loop calls this only
        when its active row set shrinks.
        """
        self._stepped_weights = self.rows_of(self._weights, rows)
        self.stepped_mask = self.rows_of(self.mask_dev, rows)
        self._stepped_congestion = self._congestion.restrict(rows)
        self.rule.restrict(rows)

    # ------------------------------------------------------------ payoff kernel
    def site_values(self, states: Any) -> Any:
        """Batched ``nu`` of the stepped rows, reusing the precomputed tables.

        ``states`` is an array of the engine's backend holding the rows of
        the last :meth:`restrict`; the result stays on the backend (rules
        consume it in place).
        """
        factor, _ = self._stepped_congestion(
            self.xp.minimum(self.xp.maximum(states, self.zero_dev), self.one_dev), slope=False
        )
        return factor * self._stepped_weights

    def initial_states(self) -> Any:
        """Per-row uniform distributions (zero on padding columns), backend-resident."""
        xp = self.xp
        fdt = self.backend.float_dtype
        uniform = 1.0 / xp.astype(self.sizes_dev, fdt)[:, None]
        return xp.where(self.mask_dev, uniform, self.zero_dev)

    # -------------------------------------------------------------------- loop
    def run(self, initial: np.ndarray | None = None) -> DynamicsBatchResult:
        """Iterate the rule until every row converges, halts, or hits the cap."""
        self.restrict(None)
        if initial is None:
            states = self.initial_states()
        else:
            host = np.array(ensure_numpy(initial), dtype=float, copy=True)
            if host.ndim == 1:
                host = host[None, :]
            if host.shape[0] != self.batch_size:
                raise ValueError(
                    f"initial states have {host.shape[0]} rows for a batch "
                    f"of {self.batch_size}"
                )
            if isinstance(self.rule, PayoffRule):
                # Payoff rules evolve strategies: zero on padding, mass one.
                host, _ = check_probability_rows(
                    host, "initial", sizes=self.sizes, shape=self.values.shape
                )
            with expected_transfer():
                states = self.device(host)
        if self.backend.is_numpy:
            return self._run_host(states)
        return self._run_device(states)

    def _run_host(self, states: Any) -> DynamicsBatchResult:
        """NumPy path: step a compact working array of the active rows.

        ``work`` holds the active rows' states; it is written back to
        ``states`` when a row finishes, on record steps and at loop exit.
        Control flow (masks, counters) is host NumPy like the data, so there
        is nothing to transfer.  A row's arithmetic does not depend on the
        subset it steps in (see :func:`~repro.batch.ifd.bernstein_evaluator`).
        """
        xp = self.xp
        be = self.backend
        batch = self.batch_size
        converged = np.zeros(batch, dtype=bool)
        iterations = np.full(batch, self.max_iter, dtype=np.int64)
        active = np.arange(batch)
        record_times = [0]
        records = [np.array(to_numpy(states), copy=True)]
        payoff_records: list[np.ndarray] = []
        current_payoffs = np.zeros(batch)
        work = states

        for t in range(1, self.max_iter + 1):
            recording = t % self.record_every == 0
            new, payoffs = self.rule.step(work, t, recording)
            change = xp.abs(new - work).sum(axis=1)  # NumPy: the method skips a dispatch
            work = new
            halted = self.rule.finished(work)
            done = np.zeros(active.size, dtype=bool) if self.tol is None else change <= self.tol
            if halted is not None:
                done |= to_numpy(halted)
            if payoffs is not None:
                current_payoffs[active] = to_numpy(payoffs)
            finishing = bool(done.any())
            if recording or finishing:
                scatter_rows(be, states, active, work)
            if finishing:
                converged[active[done]] = True
                iterations[active[done]] = t
                active = active[~done]
                if active.size:
                    work = take_rows(be, work, np.flatnonzero(~done))
                    self.restrict(active)

            if recording:
                record_times.append(t)
                records.append(np.array(to_numpy(states), copy=True))
                payoff_records.append(current_payoffs.copy())
            if active.size == 0:
                break
        if active.size:
            scatter_rows(be, states, active, work)

        self.restrict(None)
        final = self.rule.final_payoffs(states)
        return DynamicsBatchResult(
            states=np.array(to_numpy(states), copy=True),
            converged=converged,
            iterations=iterations,
            record_times=np.asarray(record_times, dtype=np.int64),
            records=np.asarray(records),
            payoff_records=np.asarray(payoff_records).reshape(len(payoff_records), batch),
            final_payoffs=None if final is None else to_numpy(final),
            sizes=self.sizes,
            rule_name=self.rule.name,
        )

    def _run_device(self, states: Any) -> DynamicsBatchResult:
        """Device path (every non-NumPy backend): the whole loop stays native.

        The full batch is stepped every iteration and finished rows are
        frozen with ``where`` (bit-exact pass-through, no scatter); the
        convergence mask, iteration counters, payoff carries and trajectory
        snapshots are all device tensors.  The only per-iteration host
        contact is one scalar ``any(active)`` synchronisation deciding the
        early exit — no array ever crosses the seam until the single
        expected-transfer materialisation at the end.
        """
        xp = self.xp
        be = self.backend
        batch = self.batch_size
        with expected_transfer():  # loop-state staging, once per run
            active = from_numpy(be, np.ones(batch, dtype=bool), dtype=be.bool_dtype)
            converged = from_numpy(be, np.zeros(batch, dtype=bool), dtype=be.bool_dtype)
            iterations = from_numpy(
                be, np.full(batch, self.max_iter, dtype=np.int64), dtype=be.int_dtype
            )
            current_payoffs = from_numpy(be, np.zeros(batch), dtype=be.float_dtype)
            step_one = from_numpy(be, np.asarray(1, dtype=np.int64), dtype=be.int_dtype)
            step_index = from_numpy(
                be, np.asarray(0, dtype=np.int64), dtype=be.int_dtype
            )

        step_fn = self._compiled_step
        record_times = [0]
        records = [states]
        payoff_records: list[Any] = []

        for t in range(1, self.max_iter + 1):
            step_index = step_index + step_one  # device-side iteration counter
            if step_fn is None:
                new_full, payoffs = self.rule.step(states, t)
            else:
                new_full, payoffs = step_fn(self.rule, states, t)
            change = xp.sum(xp.abs(new_full - states), axis=1)
            states = xp.where(active[:, None], new_full, states)
            halted = self.rule.finished(states)

            recording = t % self.record_every == 0
            if recording and payoffs is not None:
                current_payoffs = xp.where(active, payoffs, current_payoffs)

            done = None
            if self.tol is not None:
                done = active & (change <= self.tol)
            if halted is not None:
                extra = active & halted
                done = extra if done is None else (done | extra)
            if done is not None:
                converged = converged | done
                iterations = xp.where(done, step_index, iterations)
                active = active & ~done

            if recording:
                record_times.append(t)
                records.append(states)
                payoff_records.append(current_payoffs)
            # Deliberate scalar synchronisation: one bool per iteration
            # decides the early exit; no array payload crosses the seam.
            if not bool(xp.any(active)):
                break

        final = self.rule.final_payoffs(states)
        with expected_transfer():  # the single documented host materialisation
            states_host = np.array(to_numpy(states), dtype=np.float64, copy=True)
            converged_host = np.asarray(to_numpy(converged), dtype=bool)
            iterations_host = np.asarray(to_numpy(iterations), dtype=np.int64)
            records_host = np.asarray(to_numpy(xp.stack(records)), dtype=np.float64)
            payoffs_host = (
                np.asarray(to_numpy(xp.stack(payoff_records)), dtype=np.float64)
                if payoff_records
                else np.zeros((0, batch))
            )
            final_host = (
                None if final is None else np.asarray(to_numpy(final), dtype=np.float64)
            )
        return DynamicsBatchResult(
            states=states_host,
            converged=converged_host,
            iterations=iterations_host,
            record_times=np.asarray(record_times, dtype=np.int64),
            records=records_host,
            payoff_records=payoffs_host,
            final_payoffs=final_host,
            sizes=self.sizes,
            rule_name=self.rule.name,
        )


# ------------------------------------------------------------- entry points
_REPLICATOR_METHODS = ("discrete", "euler")


def make_rule(rule: str | UpdateRule, **options) -> UpdateRule:
    """Resolve a rule name (``discrete`` / ``euler`` / ``logit`` /
    ``best-response``) into an :class:`UpdateRule` instance."""
    if isinstance(rule, UpdateRule):
        return rule
    factories = {
        "discrete": DiscreteReplicatorRule,
        "euler": EulerReplicatorRule,
        "logit": LogitRule,
        "best-response": SmoothedBestResponseRule,
    }
    if rule not in factories:
        raise ValueError(
            f"unknown dynamics rule {rule!r}; available: {', '.join(sorted(factories))}"
        )
    return factories[rule](**options)


def replicator_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    initial: np.ndarray | None = None,
    method: str = "discrete",
    step_size: float = 0.2,
    max_iter: int = 20_000,
    tol: float = 1e-12,
    record_every: int = 100,
    backend: Backend | str | None = None,
    compile: bool = False,
) -> DynamicsBatchResult:
    """Replicator dynamics for a whole batch (see :func:`repro.dynamics.replicator_dynamics`)."""
    if method not in _REPLICATOR_METHODS:
        raise ValueError("method must be 'discrete' or 'euler'")
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    rule: UpdateRule = (
        DiscreteReplicatorRule() if method == "discrete" else EulerReplicatorRule(step_size)
    )
    engine = DynamicsEngine(
        values, k, policy, rule, max_iter=max_iter, tol=tol,
        record_every=record_every, backend=backend, compile=compile,
    )
    return engine.run(initial)


def logit_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    rationality: float = 50.0,
    damping: float = 0.5,
    step_decay: float = 0.01,
    initial: np.ndarray | None = None,
    max_iter: int = 50_000,
    tol: float = 1e-13,
    record_every: int = 500,
    backend: Backend | str | None = None,
    compile: bool = False,
) -> DynamicsBatchResult:
    """Logit dynamics for a whole batch (see :func:`repro.dynamics.logit_dynamics`)."""
    rule = LogitRule(rationality=rationality, damping=damping, step_decay=step_decay)
    engine = DynamicsEngine(
        values, k, policy, rule, max_iter=max_iter, tol=tol,
        record_every=record_every, backend=backend, compile=compile,
    )
    return engine.run(initial)


def best_response_batch(
    values: PaddedValues | Sequence | np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    initial: np.ndarray | None = None,
    step_size: float = 0.5,
    step_decay: float = 0.01,
    max_iter: int = 10_000,
    tol: float = 1e-10,
    record_every: int = 100,
    tie_atol: float = 1e-12,
    backend: Backend | str | None = None,
    compile: bool = False,
) -> DynamicsBatchResult:
    """Damped best-response dynamics for a whole batch
    (see :func:`repro.dynamics.best_response_dynamics`)."""
    rule = SmoothedBestResponseRule(
        step_size=step_size, step_decay=step_decay, tie_atol=tie_atol
    )
    engine = DynamicsEngine(
        values, k, policy, rule, max_iter=max_iter, tol=tol,
        record_every=record_every, backend=backend, compile=compile,
    )
    return engine.run(initial)


def invasion_batch(
    values: PaddedValues | Sequence | np.ndarray,
    residents: np.ndarray,
    mutants: np.ndarray,
    k: Sequence[int] | np.ndarray | int,
    policy: CongestionPolicy,
    *,
    initial_shares: np.ndarray | float = 0.05,
    selection_strength: float = 0.5,
    max_iter: int = 5_000,
    extinction_threshold: float = 1e-6,
    fixation_threshold: float = 1.0 - 1e-6,
    backend: Backend | str | None = None,
    compile: bool = False,
) -> DynamicsBatchResult:
    """Mutant-share dynamics for a whole batch of resident/mutant pairs.

    ``residents`` and ``mutants`` are ``(B, M_max)`` strategy matrices aligned
    with the padded value batch; the returned result's states are the
    ``(B, 1)`` final shares (``trajectory(row)`` recovers each row's full
    share history, recorded every step like the scalar loop).
    """
    padded = as_padded(values)
    rule = InvasionRule(
        residents,
        mutants,
        selection_strength=selection_strength,
        extinction_threshold=extinction_threshold,
        fixation_threshold=fixation_threshold,
    )
    engine = DynamicsEngine(
        padded, k, policy, rule, max_iter=max_iter, tol=None,
        record_every=1, backend=backend, compile=compile,
    )
    shares = np.broadcast_to(
        np.asarray(initial_shares, dtype=float), (padded.batch_size,)
    )
    if not ((shares >= 0.0) & (shares <= 1.0)).all():
        raise ValueError(f"initial_share must lie in [0, 1], got {shares}")
    return engine.run(shares[:, None])
