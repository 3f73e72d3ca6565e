"""Theorem 3 experiments: ``sigma_star`` is an ESS under the exclusive policy.

For a sweep of instances the experiment audits ``sigma_star`` against a
battery of mutants (pure strategies, uniform, value-proportional, local
perturbations, Dirichlet-random) using the ESS characterisation, and records
the worst strict-advantage margin together with an invasion-dynamics check
that small mutant populations die out.

Structured as a thin client of :mod:`repro.experiments`: the registered
``ess`` experiment has one task per ``(M, family)`` pair; each task solves
``sigma_star`` for its whole ``k`` grid in one :mod:`repro.batch` pass, runs
every invasion-dynamics check of the grid in one
:func:`~repro.batch.dynamics.invasion_batch` call, and then performs the
(inherently per-``k``) static mutant audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.batch import PaddedValues, invasion_batch, sigma_star_batch
from repro.core.ess import ess_report, invasion_barrier
from repro.core.policies import ExclusivePolicy
from repro.core.strategy import Strategy
from repro.analysis.observation1 import default_value_families, make_family
from repro.experiments.registry import register_experiment
from repro.experiments.spec import ExperimentSpec

__all__ = ["ESSRow", "ess_audit_task", "build_ess_spec"]


@dataclass(frozen=True)
class ESSRow:
    """Outcome of the ESS audit on one instance.

    ``mutant_suppressed`` records the invasion-dynamics check: starting from a
    small mutant share, the share must shrink (it may not reach numerical
    extinction within the iteration budget because selection against a mutant
    supported inside the resident's support is only second order in the share).
    """

    family: str
    m: int
    k: int
    is_ess: bool
    n_mutants: int
    worst_margin: float
    sample_invasion_barrier: float
    mutant_suppressed: bool
    mutant_final_share: float


def ess_audit_task(params: Mapping[str, Any], rng: np.random.Generator) -> list[ESSRow]:
    """Audit one ``(family, M)`` instance across its whole ``k`` grid."""
    family = str(params["family"])
    m = int(params["m"])
    k_values = tuple(int(k) for k in params["k_values"])
    n_random_mutants = int(params["n_random_mutants"])
    values = make_family(family, m, rng)
    policy = ExclusivePolicy()

    ks = np.asarray(k_values, dtype=np.int64)
    residents = sigma_star_batch([values], ks)

    # Sample mutants for the dynamic checks: value-proportional play, falling
    # back to a pure strategy when that coincides with the resident (e.g. on
    # uniform value profiles).  The whole ``k`` grid's invasion runs are one
    # batched engine call: row ``i`` pits ``sigma_star(k_i)`` against its
    # mutant.
    resident_matrix = residents.probabilities[0]  # (K, M)
    proportional = Strategy.proportional(values.as_array())
    mutants: list[Strategy] = []
    for k_index in range(ks.size):
        mutant = proportional
        if mutant.total_variation(Strategy(resident_matrix[k_index])) <= 1e-9:
            mutant = Strategy.point_mass(values.m, 0)
        mutants.append(mutant)
    mutant_matrix = np.stack([mutant.as_array() for mutant in mutants])
    initial_share = 0.02
    padded = PaddedValues.from_instances([values] * ks.size)
    dynamics = invasion_batch(
        padded,
        resident_matrix,
        mutant_matrix,
        ks,
        policy,
        initial_shares=initial_share,
    )

    rows: list[ESSRow] = []
    for k_index, k in enumerate(k_values):
        resident = residents.result(0, k_index).strategy
        report = ess_report(
            values,
            resident,
            k,
            policy,
            n_random_mutants=n_random_mutants,
            rng=rng,
        )
        barrier = invasion_barrier(values, resident, mutants[k_index], k, policy)
        final_share = float(dynamics.states[k_index, 0])
        fixated = final_share >= 1.0 - 1e-6
        suppressed = (not fixated) and (final_share < initial_share)
        rows.append(
            ESSRow(
                family=family,
                m=values.m,
                k=k,
                is_ess=report.is_ess,
                n_mutants=report.n_mutants,
                worst_margin=report.worst_margin,
                sample_invasion_barrier=barrier,
                mutant_suppressed=suppressed,
                mutant_final_share=final_share,
            )
        )
    return rows


@register_experiment("ess", "ESS audit of sigma_star (Theorem 3)")
def build_ess_spec(
    *,
    m_values: Sequence[int] = (3, 6),
    k_values: Sequence[int] = (2, 3, 5),
    n_random_mutants: int = 25,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``ess`` experiment (one task per family/M)."""
    k_tuple = tuple(int(k) for k in k_values)
    grid: list[dict[str, Any]] = []
    for m in m_values:
        for family in default_value_families(int(m)):
            grid.append(
                {
                    "family": family,
                    "m": int(m),
                    "k_values": k_tuple,
                    "n_random_mutants": int(n_random_mutants),
                }
            )
    return ExperimentSpec(
        name="ess",
        description="Theorem 3: sigma_star is an ESS under the exclusive policy",
        task=ess_audit_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "m_values": tuple(int(m) for m in m_values),
            "k_values": k_tuple,
            "n_random_mutants": int(n_random_mutants),
        },
    )

