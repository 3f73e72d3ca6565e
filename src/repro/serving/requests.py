"""Typed request models of the online equilibrium service.

Three request families mirror the service endpoints (and the three batched
kernel families the scheduler dispatches to):

* :class:`SolveRequest` — one equilibrium: instance + player count + one
  congestion policy (:func:`~repro.batch.ifd.ifd_batch`, which
  short-circuits to the closed form for the exclusive policy);
* :class:`SweepRequest` — the closed-form ``sigma_star`` and its coverage
  over a whole player-count grid
  (:func:`~repro.batch.solvers.sigma_star_batch`);
* :class:`MechanismRequest` — a congestion-policy roster comparison on one
  ``(instance, k)`` cell (:func:`~repro.batch.mechanism.compare_policies_batch`).

Requests canonicalise their payload at construction (values sorted
non-increasing, grids as sorted unique tuples — see
:mod:`repro.utils.canonical`), so two requests are equal exactly when they
denote the same mathematical question; ``cache_key`` is the matching
content-addressed hash.  ``group_key`` identifies requests the scheduler may
pack into one kernel call: same family, policy roster and player-count
signature, same padded-width bucket (:attr:`ServingRequest.pad_width`) — a
group is homogeneous in everything but the instance, so coalescing only ever
changes the batch-row count, which the kernels are elementwise in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.batch.coverage_times import DEFAULT_MAX_EXACT_SITES
from repro.core.policies import POLICY_FACTORIES, CongestionPolicy, policy_from_name
from repro.core.values import SiteValues
from repro.utils.canonical import (
    canonical_distribution,
    canonical_k_grid,
    canonical_times,
    canonical_values,
    content_key,
)
from repro.utils.validation import check_integer

__all__ = [
    "ServingRequest",
    "SolveRequest",
    "SweepRequest",
    "MechanismRequest",
    "CoverageTimeRequest",
    "parse_request",
]


def _integer(value: Any, name: str, minimum: int) -> int:
    """``value`` as an int: integral floats pass; bools, strings and fractions do not."""
    try:
        return check_integer(value, name, minimum)
    except TypeError as error:
        raise ValueError(str(error)) from None


@dataclass(frozen=True)
class ServingRequest:
    """Base of the three request families.

    The validated :class:`~repro.core.values.SiteValues` is built once, at
    construction, and reused by the cache key and the kernel packing.

    Attributes
    ----------
    values:
        Canonical (non-increasing, strictly positive) site-value tuple.
    """

    values: tuple[float, ...]

    #: Family tag; also the endpoint path segment (``/solve`` etc.).
    kind = "abstract"

    def __post_init__(self) -> None:
        if self.values is None:
            raise ValueError("request is missing the site-value profile 'values'")
        site_values = canonical_values(self.values)
        object.__setattr__(self, "_site_values", site_values)
        object.__setattr__(self, "values", tuple(site_values.as_array().tolist()))

    @property
    def site_values(self) -> SiteValues:
        """The instance as a :class:`~repro.core.values.SiteValues` (already sorted)."""
        return self.__dict__["_site_values"]

    @property
    def m(self) -> int:
        """Number of sites of the instance."""
        return len(self.values)

    @property
    def cache_key(self) -> str:
        """Content-addressed key: equal for all spellings of the same request."""
        key = self.__dict__.get("_cache_key")
        if key is None:
            # Coverage-time requests hold a distribution, not site values.
            instance = self.__dict__.get("_site_values", self.values)
            key = content_key(self.kind, instance, **self._params())
            object.__setattr__(self, "_cache_key", key)
        return key

    @property
    def pad_width(self) -> int:
        """The power-of-two padded width this request's group is packed to.

        Reduction trees over the site axis (pairwise summation, device
        reductions) depend on the padded length, so the scheduler only packs
        requests of the same width bucket together and pads the batch to
        exactly that bucket — the direct (batch-of-one) path then reduces
        over identically shaped arrays and answers stay bit-identical no
        matter what the request was coalesced with.
        """
        return max(8, 1 << (self.m - 1).bit_length())

    @property
    def group_key(self) -> tuple:
        """Requests sharing a ``group_key`` coalesce into one kernel call."""
        return (self.kind, self.pad_width)

    def _params(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class SolveRequest(ServingRequest):
    """Equilibrium of one instance for ``k`` players under one congestion policy."""

    k: int = 2
    policy: str = "exclusive"

    kind = "solve"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "k", _integer(self.k, "k", 1))
        object.__setattr__(self, "policy", str(self.policy))
        if self.policy not in POLICY_FACTORIES:
            available = ", ".join(sorted(POLICY_FACTORIES))
            raise ValueError(f"unknown policy {self.policy!r}; available: {available}")

    def _params(self) -> dict[str, Any]:
        return {"k": self.k, "policy": self.policy}

    @property
    def group_key(self) -> tuple:
        return (self.kind, self.policy, self.k, self.pad_width)

    def policy_object(self) -> CongestionPolicy:
        """A fresh policy instance resolved from the stable name."""
        return policy_from_name(self.policy)


@dataclass(frozen=True)
class SweepRequest(ServingRequest):
    """``sigma_star`` support/value/coverage over a player-count grid."""

    k_grid: tuple[int, ...] = (2, 3, 5, 8)

    kind = "sweep"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "k_grid", canonical_k_grid(self.k_grid))

    def _params(self) -> dict[str, Any]:
        return {"k_grid": self.k_grid}

    @property
    def group_key(self) -> tuple:
        return (self.kind, self.k_grid, self.pad_width)


@dataclass(frozen=True)
class MechanismRequest(ServingRequest):
    """Congestion-policy roster comparison on one ``(instance, k)`` cell."""

    k: int = 2
    policies: tuple[str, ...] = ("exclusive", "sharing")

    kind = "mechanism"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "k", _integer(self.k, "k", 1))
        roster = tuple(str(name) for name in self.policies)
        if not roster:
            raise ValueError("policies roster must not be empty")
        for name in roster:
            if name not in POLICY_FACTORIES:
                available = ", ".join(sorted(POLICY_FACTORIES))
                raise ValueError(f"unknown policy {name!r}; available: {available}")
        # Roster order only affects response presentation, not the answers:
        # canonicalise to sorted-unique so equivalent requests share a key.
        object.__setattr__(self, "policies", tuple(sorted(set(roster))))

    def _params(self) -> dict[str, Any]:
        return {"k": self.k, "policies": self.policies}

    @property
    def group_key(self) -> tuple:
        return (self.kind, self.policies, self.k, self.pad_width)


@dataclass(frozen=True)
class CoverageTimeRequest(ServingRequest):
    """Exact Von Schelling coverage-time laws of one visit distribution.

    ``values`` is a site-visit *distribution* (non-negative, normalised by
    the service — zeros are legal and mark sites that are never visited),
    not a site-value profile.  The response always carries the expected
    full-coverage time ``E[T]`` (``null`` when a zero-probability site makes
    coverage impossible); a non-empty ``times`` grid adds the CDF
    ``P(T <= t)`` at those round counts, and a coverage target ``j`` adds
    the partial expectation ``E[T_j]``.

    The exact kernels enumerate ``2**M`` subsets for non-uniform rows, so a
    non-uniform distribution wider than
    :data:`~repro.batch.coverage_times.DEFAULT_MAX_EXACT_SITES` is refused
    at construction (the HTTP front answers ``400``); exactly-uniform
    distributions take an ``O(M)`` closed-form merge and are accepted at any
    width.
    """

    k: int = 1
    times: tuple[int, ...] = ()
    j: int = 0

    kind = "coverage-times"

    def __post_init__(self) -> None:
        # Deliberately NOT the base coercion: distributions admit zeros,
        # which SiteValues (strictly positive site values) rejects.
        object.__setattr__(self, "values", canonical_distribution(self.values))
        object.__setattr__(self, "k", _integer(self.k, "k", 1))
        object.__setattr__(self, "j", _integer(self.j, "j", 0))
        times = canonical_times(self.times) if np.size(self.times) else ()  # () = no CDF
        object.__setattr__(self, "times", times)
        if self.j > self.m:
            raise ValueError(f"coverage target j must satisfy 0 <= j <= {self.m} (0 = off)")
        uniform = self.values[0] == self.values[-1]
        if not uniform and self.m > DEFAULT_MAX_EXACT_SITES:
            raise ValueError(
                f"a non-uniform distribution over {self.m} sites exceeds the exact "
                f"enumeration cap ({DEFAULT_MAX_EXACT_SITES}); the subset sum is "
                f"O(2**M) — reduce the site count or make the distribution uniform"
            )

    def _params(self) -> dict[str, Any]:
        return {"k": self.k, "times": self.times, "j": self.j}

    @property
    def group_key(self) -> tuple:
        return (self.kind, self.k, self.times, self.j, self.pad_width)


_KINDS: dict[str, type[ServingRequest]] = {
    "solve": SolveRequest,
    "sweep": SweepRequest,
    "mechanism": MechanismRequest,
    "coverage-times": CoverageTimeRequest,
}


#: Bound on ``sum(values)``: half the largest finite double.
_MAX_TOTAL = math.ldexp(1.0, 1023)


def parse_request(kind: str, payload: Mapping[str, Any]) -> ServingRequest:
    """Build a request of family ``kind`` from a JSON-ish payload dict.

    Unknown fields are rejected (a typo'd parameter silently falling back to
    a default would be served — and cached — as the wrong question), and so
    is an instance whose total value exceeds 2^1023, half the largest
    finite double.
    """
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown request kind {kind!r}; expected one of {sorted(_KINDS)}")
    if not isinstance(payload, Mapping):
        raise ValueError("request payload must be a JSON object")
    allowed = cls.__dataclass_fields__
    unknown = [name for name in payload if name not in allowed]
    if unknown:
        raise ValueError(
            f"unknown field(s) {sorted(unknown)} for {kind!r}; allowed: {sorted(allowed)}"
        )
    try:
        request = cls(**payload)
    except TypeError as error:
        raise ValueError(f"invalid {kind!r} payload: {error}") from None
    # Coverage never exceeds the total value, and no payoff exceeds the
    # largest value (every served congestion table lies in [-1/2, 1]; the
    # solver scales each row by a power of two and back, exactly).  A total
    # of at most half the largest double cannot overflow in any summation
    # order (a kernel's may differ from this one), so every answer stays
    # finite and the JSON response valid.
    total = sum(request.values)
    if not total <= _MAX_TOTAL:
        raise ValueError(
            f"the total site value sum(values) = {total} exceeds 2^1023 "
            f"({_MAX_TOTAL:.6g}), half the largest finite double; rescale the values"
        )
    return request
