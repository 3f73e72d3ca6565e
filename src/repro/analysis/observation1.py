"""Numerical verification of Observation 1.

Observation 1 states that the optimal symmetric coverage is within a factor
``(1 - 1/e)`` of the full-coordination optimum (the sum of the ``k`` most
valuable sites)::

    Cover(p_star) > (1 - 1/e) * sum_{x <= k} f(x)

The experiment sweeps value-function families and player counts, recording the
achieved ratio ``Cover(p_star) / sum_{x <= k} f(x)`` — always above
``1 - 1/e ~ 0.632`` — and the intermediate uniform-over-top-k bound used in the
paper's one-line proof.

The module is a thin client of :mod:`repro.experiments`: each ``(family, M)``
pair is one task of the registered ``observation1`` experiment, and a task
evaluates its whole ``k`` grid in one :mod:`repro.batch` pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.batch import coverage_batch, sigma_star_batch
from repro.core.coverage import full_coordination_coverage
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.experiments.registry import register_experiment
from repro.experiments.spec import ExperimentSpec
from repro.utils.validation import check_positive_integer

__all__ = [
    "Observation1Row",
    "observation1_task",
    "build_observation1_spec",
    "default_value_families",
    "make_family",
]


@dataclass(frozen=True)
class Observation1Row:
    """One instance of the Observation 1 experiment."""

    family: str
    m: int
    k: int
    optimal_coverage: float
    top_k_coverage: float
    uniform_top_k_coverage: float
    ratio: float
    bound: float
    holds: bool


def default_value_families(m: int) -> Mapping[str, Callable[[], SiteValues]]:
    """The standard value-function families used across the experiment harness."""
    return {
        "uniform": lambda: SiteValues.uniform(m),
        "linear": lambda: SiteValues.linear(m),
        "geometric": lambda: SiteValues.geometric(m, ratio=0.85),
        "zipf": lambda: SiteValues.zipf(m, exponent=1.0),
        "exponential": lambda: SiteValues.exponential(m, rate=0.2),
    }


def make_family(family: str, m: int, rng: np.random.Generator) -> SiteValues:
    """Materialise a named family (``random-i`` draws from the task generator)."""
    if family.startswith("random"):
        return SiteValues.random(m, rng)
    return default_value_families(m)[family]()


def observation1_task(
    params: Mapping[str, Any], rng: np.random.Generator
) -> list[Observation1Row]:
    """One runner task: a single ``(family, M)`` instance over the whole k grid.

    All coverages are computed in one batched pass: ``sigma_star`` and the
    uniform-over-top-``k`` proof strategy are evaluated for every ``k`` at
    once via :func:`repro.batch.sigma_star_batch` / ``coverage_batch``.
    """
    family = str(params["family"])
    m = check_positive_integer(int(params["m"]), "m")
    k_values = tuple(int(k) for k in params["k_values"])
    values = make_family(family, m, rng)

    ks = np.asarray(k_values, dtype=np.int64)
    star = sigma_star_batch([values], ks)
    best = coverage_batch([values], star.probabilities, ks)[0]

    uniform_strategies = np.stack(
        [Strategy.uniform_over_top(values.m, int(k)).as_array() for k in ks]
    )[None, :, :]
    uniform_cover = coverage_batch([values], uniform_strategies, ks)[0]

    top_k = np.array([full_coordination_coverage(values, int(k)) for k in ks])

    bound = 1.0 - 1.0 / np.e
    rows: list[Observation1Row] = []
    for index, k in enumerate(ks):
        ratio = best[index] / top_k[index] if top_k[index] > 0 else np.inf
        rows.append(
            Observation1Row(
                family=family,
                m=m,
                k=int(k),
                optimal_coverage=float(best[index]),
                top_k_coverage=float(top_k[index]),
                uniform_top_k_coverage=float(uniform_cover[index]),
                ratio=float(ratio),
                bound=float(bound),
                holds=bool(best[index] > bound * top_k[index]),
            )
        )
    return rows


@register_experiment("observation1", "Check the (1 - 1/e) coverage bound of Observation 1")
def build_observation1_spec(
    *,
    m_values: Sequence[int] = (5, 20, 100),
    k_values: Sequence[int] = (2, 3, 5, 10),
    n_random: int = 5,
    seed: int = 0,
) -> ExperimentSpec:
    """Spec builder of the ``observation1`` experiment (one task per family/M)."""
    k_tuple = tuple(int(k) for k in k_values)
    grid: list[dict[str, Any]] = []
    for m in m_values:
        m = check_positive_integer(int(m), "m")
        families = list(default_value_families(m)) + [
            f"random-{index}" for index in range(int(n_random))
        ]
        for family in families:
            grid.append({"family": family, "m": m, "k_values": k_tuple})
    return ExperimentSpec(
        name="observation1",
        description="Observation 1: Cover(p*) > (1 - 1/e) * top-k value",
        task=observation1_task,
        grid=tuple(grid),
        seed=int(seed),
        metadata={
            "m_values": tuple(int(m) for m in m_values),
            "k_values": k_tuple,
            "n_random": int(n_random),
        },
    )

