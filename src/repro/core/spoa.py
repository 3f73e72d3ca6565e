"""Symmetric Price of Anarchy (SPoA) of congestion policies.

For a congestion function ``C`` and a value function ``f`` the paper defines::

    SPoA(C, f) = sup over symmetric Nash equilibria p of Cover(p_star) / Cover(p)
    SPoA(C)    = sup over f (and M) of SPoA(C, f)

Because the IFD is the *unique* symmetric Nash equilibrium whenever the
policy is non-increasing (Observation 2), the per-instance SPoA reduces to
``Cover(p_star) / Cover(IFD)``.  :func:`spoa_instance` is a one-cell view of
:func:`repro.batch.spoa.spoa_batch`.

Headline facts reproduced here:

* ``SPoA(C_exc) = 1`` (Corollary 5) — per-instance ratios are always 1;
* ``SPoA(C) > 1`` for every congestion function ``C != C_exc`` (Theorem 6) —
  :func:`adversarial_values` constructs the slowly-decreasing value profile
  from the Section 4 proof that witnesses a ratio strictly above 1;
* ``SPoA(C_share) <= 2`` (via Kleinberg-Oren / Vetta) — randomized searches
  over instances never exceed 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.policies import CongestionPolicy
from repro.core.values import SiteValues
from repro.utils.validation import check_positive_integer

__all__ = [
    "SPoAInstance",
    "spoa_instance",
    "spoa_search",
    "adversarial_values",
    "spoa_lower_bound_certificate",
]


@dataclass(frozen=True)
class SPoAInstance:
    """SPoA evaluated on one ``(f, k)`` instance."""

    ratio: float
    optimal_coverage: float
    equilibrium_coverage: float
    k: int
    m: int


def spoa_instance(
    values: SiteValues | np.ndarray,
    k: int,
    policy: CongestionPolicy,
) -> SPoAInstance:
    """``Cover(p_star) / Cover(IFD)`` for one instance (the per-instance SPoA)."""
    from repro.batch.spoa import spoa_batch

    k = check_positive_integer(k, "k")
    f = values if isinstance(values, SiteValues) else SiteValues.from_values(values)
    return spoa_batch([f], [k], policy).instance(0, 0)


def spoa_search(
    policy: CongestionPolicy,
    *,
    k_values: Sequence[int] = (2, 3, 5, 8),
    m_values: Sequence[int] = (2, 5, 10, 25),
    n_random: int = 20,
    rng: np.random.Generator | int | None = 0,
    include_structured: bool = True,
) -> tuple[float, SPoAInstance]:
    """Randomised + structured search for the largest per-instance SPoA of ``policy``.

    Returns the maximum ratio found and the instance realising it (the first
    one met, in grid order, on ties).  This is a lower bound on ``SPoA(C)``
    (the supremum over all value functions).
    """
    from repro.batch.spoa import spoa_batch

    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    best_ratio = -np.inf
    best_instance: SPoAInstance | None = None
    for k in k_values:
        for m in m_values:
            candidates: list[SiteValues] = []
            if include_structured:
                candidates.extend(
                    [
                        SiteValues.uniform(m),
                        SiteValues.linear(m),
                        SiteValues.geometric(m, ratio=0.8),
                        SiteValues.zipf(m, exponent=1.0),
                        SiteValues.slowly_decreasing(m, k),
                    ]
                )
            candidates.extend(SiteValues.random(m, generator) for _ in range(n_random))
            batch = spoa_batch(candidates, [k], policy)
            index = int(np.argmax(batch.ratios[:, 0]))
            if batch.ratios[index, 0] > best_ratio:
                best_ratio = batch.ratios[index, 0]
                best_instance = batch.instance(index, 0)
    assert best_instance is not None
    return float(best_ratio), best_instance


def adversarial_values(policy: CongestionPolicy, k: int, *, m: int | None = None) -> SiteValues:
    """The slowly-decreasing value profile used in the Theorem 6 proof.

    A strictly decreasing ``f`` with ``f(M)/f(1) > (1 - 1/(2k))**(k-1)`` forces
    the exclusive-policy support ``W`` to exceed ``2k`` sites.  On such a
    profile the IFD of any non-exclusive congestion function differs from
    ``sigma_star`` and therefore (by the uniqueness part of Theorem 4) covers
    strictly less.
    """
    k = check_positive_integer(k, "k")
    if m is None:
        m = max(4 * k, 8)
    return SiteValues.slowly_decreasing(m, k)


def spoa_lower_bound_certificate(
    policy: CongestionPolicy,
    k: int,
    *,
    m: int | None = None,
) -> SPoAInstance:
    """Evaluate the per-instance SPoA on the Theorem 6 adversarial profile.

    For any congestion function other than the exclusive one, the returned
    ratio is a certificate that ``SPoA(C) > 1``.
    """
    values = adversarial_values(policy, k, m=m)
    return spoa_instance(values, k, policy)
