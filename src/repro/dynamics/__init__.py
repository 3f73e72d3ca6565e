"""Evolutionary and learning dynamics over symmetric strategies.

The paper's solution concepts (IFD, ESS) are static; this subpackage provides
the dynamic counterparts that justify them as the outcomes of decentralised
adaptation:

* :mod:`repro.dynamics.replicator` — discrete-time replicator dynamics over
  the site-choice distribution of an infinite population;
* :mod:`repro.dynamics.logit` — logit (quantal-response) dynamics and
  equilibria, a smoothed best response robust to negative payoffs;
* :mod:`repro.dynamics.best_response` — damped best-response / fictitious-play
  style iterations;
* :mod:`repro.dynamics.invasion` — resident-vs-mutant share dynamics used to
  visualise the ESS property of ``sigma_star``.

All four are thin ``B = 1`` wrappers around the unified batched stepping
engine of :mod:`repro.batch.dynamics`; grids of trajectories should go
through :class:`~repro.batch.dynamics.DynamicsEngine` (or the
``replicator_batch`` / ``logit_batch`` / ``best_response_batch`` /
``invasion_batch`` entry points) instead of looping these wrappers.
"""

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "ReplicatorResult": ".replicator",
    "replicator_dynamics": ".replicator",
    "LogitResult": ".logit",
    "logit_dynamics": ".logit",
    "quantal_response_equilibrium": ".logit",
    "BestResponseResult": ".best_response",
    "best_response_dynamics": ".best_response",
    "InvasionResult": ".invasion",
    "invasion_dynamics": ".invasion",
})
