"""Batched evaluation of serving requests — the scheduler's kernel dispatch.

One dispatch of the scheduler hands a mixed list of requests to
:func:`evaluate_requests`: requests are grouped by ``group_key`` (same
family, policy roster and player-count signature, same padded-width
bucket), each group is packed into one
:class:`~repro.batch.padding.PaddedValues`, one batched kernel call solves
the whole group, and each request's answer is sliced out of its
``(row, k)`` cell.

Bit-identical coalescing
------------------------
The service promises that a coalesced answer equals the answer the same
request gets from a direct (batch-of-one) call of the public kernels, bit
for bit.  Three properties make that hold:

* a group is homogeneous in everything but the instance — the family, the
  policy roster, the ``k`` signature and the padded-width bucket are all
  part of ``group_key`` — so coalescing only ever grows the batch-row count
  ``B``, and every kernel involved
  (:func:`~repro.batch.solvers.sigma_star_batch`,
  :func:`~repro.batch.solvers.coverage_batch`,
  :func:`~repro.batch.ifd.ifd_batch`,
  :func:`~repro.batch.mechanism.compare_policies_batch`) is elementwise in
  the row: co-batched instances cannot perturb each other's cells.  (Pinning
  the ``k`` signature matters beyond row-independence: a wider ``k`` axis
  changes the broadcast strides of the coverage exponent, which can select
  a different ufunc inner loop for ``**`` whose results differ in the last
  ulp.  It also means a group never computes ``(row, k)`` cells nobody
  asked for);
* no kernel involved has data-dependent control flow that spans rows: the
  IFD solver (:func:`~repro.batch.ifd.water_filling_batch`) runs a fixed
  number of steps with no early exit, so a served answer is also the answer
  the library returns for the same instance;
* reductions over the site axis such as coverage sums use a summation
  tree that depends on the *padded* width (the IFD solver sums in index
  order and is exempt), which would otherwise float with whatever the request was batched
  with.  Groups therefore only mix requests of one power-of-two width
  bucket (:attr:`~repro.serving.requests.ServingRequest.pad_width`, part of
  ``group_key``) and :func:`_pack` pads to exactly that bucket, so direct
  and coalesced runs reduce over identically shaped rows.  Padding cells
  hold the row's own smallest value and contribute exact zeros to every
  masked reduction, so widening a row never changes its answer — only
  *where* in the tree its real terms sit, which bucketing pins.

Responses are plain JSON-native dicts (floats/ints/lists), so they can be
cached, serialised and compared for exact equality.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.backend import Backend, resolve_backend
from repro.batch.coverage_times import (
    coverage_time_cdf_batch,
    expected_coverage_time_batch,
    partial_coverage_time_batch,
)
from repro.batch.ifd import ifd_batch
from repro.batch.mechanism import compare_policies_batch
from repro.batch.padding import PaddedValues
from repro.batch.solvers import coverage_batch, sigma_star_batch
from repro.core.policies import policy_from_name
from repro.serving.requests import (
    CoverageTimeRequest,
    MechanismRequest,
    ServingRequest,
    SolveRequest,
    SweepRequest,
)

__all__ = ["group_requests", "evaluate_group", "evaluate_requests", "evaluate_one"]


def group_requests(requests: Sequence[ServingRequest]) -> dict[tuple, list[int]]:
    """Indices of ``requests`` grouped by coalescible ``(kind, group_key)``."""
    groups: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request.group_key, []).append(index)
    return groups


def _pack(batch: Sequence[ServingRequest]) -> PaddedValues:
    """One padded batch, at the group's fixed width bucket (see module docs)."""
    return PaddedValues.from_instances(
        [request.site_values for request in batch], width=batch[0].pad_width
    )


def _finite_or_none(value: float) -> float | None:
    """Map non-finite ratios (SPoA of a zero-coverage cell) to JSON ``null``."""
    value = float(value)
    return value if math.isfinite(value) else None


def _evaluate_solve(batch: Sequence[SolveRequest], backend) -> list[dict]:
    padded = _pack(batch)
    ks = np.array([batch[0].k])  # the group shares k and policy (group_key)
    equilibrium = ifd_batch(padded, ks, batch[0].policy_object(), backend=backend)
    coverages = coverage_batch(padded, equilibrium.probabilities, ks, backend=backend)
    columns = (equilibrium.values, equilibrium.support_sizes, equilibrium.converged, coverages)
    values, support_sizes, converged, coverages = (a[:, 0].tolist() for a in columns)
    return [
        {
            "kind": "solve",
            "m": request.m,
            "k": request.k,
            "policy": request.policy,
            "probabilities": equilibrium.probabilities[row, 0, : request.m].tolist(),
            "equilibrium_value": values[row],
            "support_size": support_sizes[row],
            "coverage": coverages[row],
            "converged": converged[row],
        }
        for row, request in enumerate(batch)
    ]


def _evaluate_sweep(batch: Sequence[SweepRequest], backend) -> list[dict]:
    padded = _pack(batch)
    ks = np.array(batch[0].k_grid)  # the group shares its grid (group_key)
    star = sigma_star_batch(padded, ks, backend=backend)
    coverages = coverage_batch(padded, star.probabilities, ks, backend=backend).tolist()
    support_sizes, values = star.support_sizes.tolist(), star.equilibrium_values.tolist()
    return [
        {
            "kind": "sweep",
            "m": request.m,
            "k_grid": list(request.k_grid),
            "support_sizes": support_sizes[row],
            "equilibrium_values": values[row],
            "coverages": coverages[row],
        }
        for row, request in enumerate(batch)
    ]


def _evaluate_mechanism(batch: Sequence[MechanismRequest], backend) -> list[dict]:
    padded = _pack(batch)
    roster_names = batch[0].policies  # the group shares k and roster (group_key)
    roster = [policy_from_name(name) for name in roster_names]
    comparison = compare_policies_batch(padded, [batch[0].k], roster, backend=backend)
    return [
        {
            "kind": "mechanism",
            "m": request.m,
            "k": request.k,
            "policies": list(roster_names),
            "equilibrium_coverages": comparison.equilibrium_coverages[:, row, 0].tolist(),
            "optimal_coverage": comparison.optimal_coverages[row, 0].item(),
            "spoa": [_finite_or_none(r) for r in comparison.spoa[:, row, 0].tolist()],
            "equilibrium_payoffs": comparison.equilibrium_payoffs[:, row, 0].tolist(),
            "support_sizes": comparison.support_sizes[:, row, 0].tolist(),
        }
        for row, request in enumerate(batch)
    ]


def _evaluate_coverage(batch: Sequence[CoverageTimeRequest], backend) -> list[dict]:
    # Coverage-time requests carry visit *distributions* (zeros allowed), so
    # they do not ride on PaddedValues: the batch is a zero-padded matrix at
    # the group's width bucket plus a per-row real-size roster.  The exact
    # kernels partition rows by (site count, uniformity) and only ever read
    # each row's first ``m`` entries, so co-batching and the shared padding
    # width cannot perturb a row's answer — the same bit-identity argument
    # as the equilibrium families, one layer down.
    width = batch[0].pad_width
    matrix = np.zeros((len(batch), width))
    sizes = np.empty(len(batch), dtype=np.int64)
    for row, request in enumerate(batch):
        matrix[row, : request.m] = request.values
        sizes[row] = request.m
    k = batch[0].k  # pinned by group_key
    times = batch[0].times
    j = batch[0].j
    expected = expected_coverage_time_batch(matrix, k, sizes=sizes, backend=backend)
    cdf = (
        coverage_time_cdf_batch(matrix, k, list(times), sizes=sizes, backend=backend)
        if times
        else None
    )
    partial = (
        partial_coverage_time_batch(matrix, k, j, sizes=sizes, backend=backend)
        if j
        else None
    )
    payloads = []
    for row, request in enumerate(batch):
        payload = {
            "kind": "coverage-times",
            "m": request.m,
            "k": request.k,
            "distribution": list(request.values),
            "coverable": bool(math.isfinite(expected[row])),
            "expected_rounds": _finite_or_none(expected[row]),
        }
        if cdf is not None:
            payload["times"] = list(times)
            payload["cdf"] = cdf[row, :].tolist()
        if partial is not None:
            payload["j"] = request.j
            payload["partial_expected_rounds"] = _finite_or_none(partial[row])
        payloads.append(payload)
    return payloads


_EVALUATORS = {
    "solve": _evaluate_solve,
    "sweep": _evaluate_sweep,
    "mechanism": _evaluate_mechanism,
    "coverage-times": _evaluate_coverage,
}


def evaluate_group(
    batch: Sequence[ServingRequest], *, backend: Backend | str | None = None
) -> list[dict]:
    """Solve one coalescible group (same ``group_key``) in one kernel call."""
    if not batch:
        return []
    kinds = {request.group_key for request in batch}
    if len(kinds) != 1:
        raise ValueError(f"cannot evaluate a mixed group: {sorted(kinds)}")
    # Resolved once here: every kernel call of the group then skips the lookup.
    return _EVALUATORS[batch[0].kind](batch, resolve_backend(backend))


def evaluate_requests(
    requests: Sequence[ServingRequest], *, backend: Backend | str | None = None
) -> list[dict]:
    """Solve a mixed request list, grouped and batched; results in input order."""
    results: list[dict | None] = [None] * len(requests)
    for indices in group_requests(requests).values():
        payloads = evaluate_group([requests[i] for i in indices], backend=backend)
        for index, payload in zip(indices, payloads):
            results[index] = payload
    return results  # type: ignore[return-value]


def evaluate_one(request: ServingRequest, *, backend: Backend | str | None = None) -> dict:
    """The direct (batch-of-one) path — the reference the scheduler must match."""
    return evaluate_requests([request], backend=backend)[0]
