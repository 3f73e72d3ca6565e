"""Symmetric price of anarchy experiments (Corollary 5, Theorem 6, sharing bound).

Three claims are checked numerically:

* **Corollary 5** — the exclusive policy's per-instance SPoA equals 1 on every
  instance in the sweep (its equilibrium *is* the coverage optimum);
* **Theorem 6** — every other congestion policy admits an instance with SPoA
  strictly above 1; the certificate instance is the slowly-decreasing value
  profile from the paper's proof;
* **Kleinberg-Oren / Vetta bound** — the sharing policy's SPoA never exceeds 2
  on any instance encountered.

The registered ``spoa`` experiment covers all three as task kinds
(``worst-case`` / ``certificate`` / ``sharing-bound``) dispatched by
:func:`spoa_task`; each task evaluates its whole instance grid with one or
two :func:`repro.batch.spoa_batch` calls instead of per-instance loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.batch import spoa_batch
from repro.core.policies import (
    AggressivePolicy,
    CongestionPolicy,
    ConstantPolicy,
    ExclusivePolicy,
    ExponentialPolicy,
    PowerLawPolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.spoa import adversarial_values
from repro.core.values import SiteValues
from repro.analysis.observation1 import default_value_families
from repro.experiments.registry import register_experiment
from repro.experiments.spec import ExperimentSpec

__all__ = [
    "SPoARow",
    "CertificateRow",
    "SharingBoundRow",
    "default_policy_roster",
    "spoa_task",
    "build_spoa_spec",
]


@dataclass(frozen=True)
class SPoARow:
    """Worst per-instance SPoA found for one policy."""

    policy_name: str
    worst_ratio: float
    worst_m: int
    worst_k: int
    n_instances: int


@dataclass(frozen=True)
class CertificateRow:
    """Theorem 6 certificate: SPoA of one policy on the adversarial profile."""

    policy_name: str
    ratio: float
    m: int
    k: int


@dataclass(frozen=True)
class SharingBoundRow:
    """Largest sharing-policy SPoA found by a randomized instance search."""

    max_ratio: float
    n_instances: int


def default_policy_roster() -> list[CongestionPolicy]:
    """The congestion policies compared throughout the experiments."""
    return [
        ExclusivePolicy(),
        SharingPolicy(),
        ConstantPolicy(),
        TwoLevelPolicy(0.25),
        TwoLevelPolicy(-0.25),
        AggressivePolicy(0.5),
        PowerLawPolicy(0.5),
        PowerLawPolicy(2.0),
        ExponentialPolicy(1.0),
    ]


def _structured_and_random_instances(
    m_values: Sequence[int], n_random: int, rng: np.random.Generator
) -> list[SiteValues]:
    """The per-``M`` instance roster shared by the SPoA tasks."""
    instances: list[SiteValues] = []
    for m in m_values:
        m = int(m)
        instances.extend(make() for make in default_value_families(m).values())
        instances.extend(SiteValues.random(m, rng) for _ in range(int(n_random)))
    return instances


def _worst_case_task(params: Mapping[str, Any], rng: np.random.Generator) -> SPoARow:
    policy: CongestionPolicy = params["policy"]
    m_values = tuple(int(m) for m in params["m_values"])
    k_values = tuple(int(k) for k in params["k_values"])
    n_random = int(params["n_random"])

    instances = _structured_and_random_instances(m_values, n_random, rng)
    batch = spoa_batch(instances, k_values, policy)
    b, j = batch.argmax()
    worst_ratio = float(batch.ratios[b, j])
    worst_m = int(batch.padded.sizes[b])
    worst_k = int(batch.k_grid[j])
    count = batch.ratios.size

    # The Theorem 6 adversarial profile, per (M, k) pair, evaluated at its
    # own k only: one batched call per k over that k's ragged roster.
    for k in k_values:
        adversarial = [SiteValues.slowly_decreasing(max(int(m), 4 * k), k) for m in m_values]
        adv_batch = spoa_batch(adversarial, [k], policy)
        count += adv_batch.ratios.size
        index = int(np.argmax(adv_batch.ratios[:, 0]))
        ratio = float(adv_batch.ratios[index, 0])
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_m = int(adv_batch.padded.sizes[index])
            worst_k = k
    return SPoARow(
        policy_name=policy.name,
        worst_ratio=worst_ratio,
        worst_m=worst_m,
        worst_k=worst_k,
        n_instances=count,
    )


def _certificate_task(params: Mapping[str, Any], rng: np.random.Generator) -> CertificateRow:
    policy: CongestionPolicy = params["policy"]
    k = int(params["k"])
    values = adversarial_values(policy, k, m=params.get("m"))
    batch = spoa_batch([values], [k], policy)
    return CertificateRow(
        policy_name=policy.name, ratio=float(batch.ratios[0, 0]), m=values.m, k=k
    )


def _sharing_bound_task(params: Mapping[str, Any], rng: np.random.Generator) -> SharingBoundRow:
    m_values = tuple(int(m) for m in params["m_values"])
    k_values = tuple(int(k) for k in params["k_values"])
    n_random = int(params["n_random"])
    policy = SharingPolicy()

    instances: list[SiteValues] = []
    for m in m_values:
        instances.extend(
            [
                SiteValues.uniform(m),
                SiteValues.linear(m),
                SiteValues.geometric(m, ratio=0.8),
                SiteValues.zipf(m, exponent=1.0),
            ]
        )
        instances.extend(SiteValues.slowly_decreasing(m, int(k)) for k in k_values)
        instances.extend(SiteValues.random(m, rng) for _ in range(n_random))
    batch = spoa_batch(instances, k_values, policy)
    return SharingBoundRow(
        max_ratio=float(batch.ratios.max()), n_instances=batch.ratios.size
    )


_TASK_KINDS = {
    "worst-case": _worst_case_task,
    "certificate": _certificate_task,
    "sharing-bound": _sharing_bound_task,
}


def spoa_task(params: Mapping[str, Any], rng: np.random.Generator):
    """Dispatching task of the ``spoa`` experiment (see module docstring)."""
    return _TASK_KINDS[str(params["kind"])](params, rng)


_GRIDS = {  # the full grid and the quick preset, in the order of ``options`` below
    False: ((2, 5, 10), (2, 3, 5), 10, (2, 3, 5, 8), (2, 5, 10, 25), 25),
    True: ((2, 5), (2, 3), 3, (2, 3), (2, 5), 5),
}


@register_experiment("spoa", "SPoA experiments: Corollary 5, Theorem 6, sharing bound")
def build_spoa_spec(
    *,
    policies: Sequence[CongestionPolicy] | None = None,
    m_values: Sequence[int] | None = None,
    k_values: Sequence[int] | None = None,
    n_random: int | None = None,
    certificate_k: int = 3,
    sharing_k_values: Sequence[int] | None = None,
    sharing_m_values: Sequence[int] | None = None,
    sharing_n_random: int | None = None,
    include_certificates: bool = True,
    include_sharing_bound: bool = True,
    quick: bool = False,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``spoa`` experiment.

    One ``worst-case`` task per policy, one ``certificate`` task per policy
    (Theorem 6) and one ``sharing-bound`` task.  A grid option left at
    ``None`` takes the full grid of :data:`_GRIDS`, or with ``quick=True``
    the CLI's fast preset; an option passed explicitly wins over either.
    """
    if policies is None:
        policies = default_policy_roster()
    options = (m_values, k_values, n_random, sharing_k_values, sharing_m_values, sharing_n_random)
    m_values, k_values, n_random, sharing_k_values, sharing_m_values, sharing_n_random = (
        preset if given is None else given
        for preset, given in zip(_GRIDS[bool(quick)], options)
    )
    grid: list[dict[str, Any]] = [
        {
            "kind": "worst-case",
            "policy": policy,
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "n_random": int(n_random),
        }
        for policy in policies
    ]
    if include_certificates:
        grid.extend(
            {"kind": "certificate", "policy": policy, "k": int(certificate_k)}
            for policy in policies
        )
    if include_sharing_bound:
        grid.append(
            {
                "kind": "sharing-bound",
                "m_values": tuple(int(m) for m in sharing_m_values),
                "k_values": tuple(int(k) for k in sharing_k_values),
                "n_random": int(sharing_n_random),
            }
        )
    return ExperimentSpec(
        name="spoa",
        description="Symmetric Price of Anarchy",
        task=spoa_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "policies": tuple(policy.name for policy in policies),
            "m_values": tuple(int(m) for m in m_values),
            "k_values": tuple(int(k) for k in k_values),
            "n_random": int(n_random),
        },
    )

