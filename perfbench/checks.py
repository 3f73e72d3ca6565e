"""Correctness checks on what the program answers; any problem fails the run.

Serving answers are checked three ways: every 200 body parses as strict JSON
(no NaN or Infinity), every answer meets its family's invariants, and a
seeded sample is compared bit for bit with the direct batch-of-one path
``repro.serving.engine.evaluate_one``.  Sweep results are checked against
paper-level invariants rather than a stored digest.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

from mixes import Request

TOL = 1e-9
#: |z| bound on the exact-vs-Monte-Carlo coverage-time rows.  The experiment
#: validates each row at 4 sigma; 5 sigma keeps a run of ~70 rows, repeated
#: over many seeded runs, from failing on chance alone.
Z_BOUND = 5.0


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(data: bytes) -> Any:
    """Parse a response body, refusing ``NaN``/``Infinity``."""
    return json.loads(data, parse_constant=_reject_constant)


def _finite(*values: Any) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_solve(request: Request, answer: dict) -> list[str]:
    p = answer["probabilities"]
    problems = []
    if [answer["m"], answer["k"], answer["policy"]] != [request.m, request.k,
                                                         request.payload["policy"]]:
        problems.append("solve echo mismatch")
    if len(p) != request.m or not _finite(*p) or min(p) < -TOL or max(p) > 1 + TOL:
        problems.append("probabilities out of range")
    elif abs(sum(p) - 1.0) > TOL:
        problems.append(f"probabilities sum to {sum(p)!r}")
    if answer["converged"] is not True:
        problems.append("not converged")
    if not 1 <= answer["support_size"] <= request.m:
        problems.append("support size out of range")
    total = sum(request.payload["values"])
    if not _finite(answer["coverage"], answer["equilibrium_value"]) or not (
        0 < answer["coverage"] <= total * (1 + TOL)
    ):
        problems.append("coverage out of range")
    return problems


def _check_sweep(request: Request, answer: dict) -> list[str]:
    problems = []
    grid = sorted(set(request.payload["k_grid"]))
    coverages = answer["coverages"]
    if answer["m"] != request.m or answer["k_grid"] != grid:
        problems.append("sweep echo mismatch")
    if len(coverages) != len(grid) or not _finite(*coverages, *answer["equilibrium_values"]):
        problems.append("sweep columns malformed")
    elif any(b < a * (1 - TOL) for a, b in zip(coverages, coverages[1:])):
        problems.append("sigma_star coverage decreases with k")
    elif coverages[-1] > sum(request.payload["values"]) * (1 + TOL):
        problems.append("coverage above the total value")
    if not all(1 <= w <= request.m for w in answer["support_sizes"]):
        problems.append("support size out of range")
    return problems


_FAMILY_CHECKS = {
    "/solve": _check_solve,
    "/sweep": _check_sweep,
}


def check_answer(request: Request, body: bytes) -> tuple[Any, list[str]]:
    """Parse one 200 body and check it against its family's invariants."""
    try:
        answer = strict_json(body)
        return answer, _FAMILY_CHECKS[request.path](request, answer)
    except (ValueError, KeyError, TypeError, IndexError) as error:
        return None, [f"malformed answer: {type(error).__name__}: {error}"]


def check_repeats(pairs: Iterable[tuple[Request, bytes]]) -> list[str]:
    """Every spelling of one question must get byte-identical answers."""
    first: dict[tuple, bytes] = {}
    problems = []
    for request, body in pairs:
        seen = first.setdefault(request.key, body)
        if seen != body:
            problems.append(f"two spellings of one {request.path} request answered differently")
    return problems


def check_reference(pairs: Sequence[tuple[Request, Any]]) -> list[str]:
    """Compare served answers with the direct batch-of-one path, bit for bit."""
    from repro.serving.engine import evaluate_one
    from repro.serving.requests import parse_request

    problems = []
    for request, answer in pairs:
        direct = evaluate_one(parse_request(request.path.lstrip("/"), request.payload))
        if json.loads(json.dumps(direct)) != answer:
            problems.append(f"{request.path} answer differs from evaluate_one")
    return problems


# -- sweep ---------------------------------------------------------------------


def check_figure1(rows: Sequence[Any]) -> list[str]:
    """ESS coverage peaks at c = 0 and meets the coverage optimum there."""
    from repro.analysis.figure1 import assemble_figure1_panels

    problems = []
    for name, panel in assemble_figure1_panels(rows).items():
        if panel.argmax_c != 0.0:
            problems.append(f"figure1 {name}: ESS coverage peaks at c={panel.argmax_c}")
        if abs(panel.peak_gap) > 1e-6:
            problems.append(f"figure1 {name}: peak misses the optimum by {panel.peak_gap}")
    return problems


def check_mechanism_rows(rows: Sequence[Any]) -> list[str]:
    problems = []
    for row in rows:
        if hasattr(row, "spoa"):
            if not _finite(row.equilibrium_coverage, row.optimal_coverage, row.spoa):
                problems.append("mechanism row not finite")
            elif row.policy_name == "exclusive" and abs(row.spoa - 1.0) > TOL:
                problems.append(f"mechanism: exclusive SPoA {row.spoa} != 1")
            elif row.equilibrium_coverage > row.optimal_coverage * (1 + TOL):
                problems.append("mechanism: equilibrium coverage above the optimum")
        elif not _finite(row.induced_coverage, row.max_deviation):
            problems.append("mechanism grant row not finite")
    return problems


def check_dynamics_rows(rows: Sequence[Any]) -> list[str]:
    return [f"dynamics row {row.family}/{row.m}/{row.k}/{row.init} did not converge"
            for row in rows if not row.converged]


def check_coverage_rows(rows: Sequence[Any]) -> list[str]:
    problems = []
    for row in rows:
        if math.isfinite(row.expected_rounds) and row.censored_trials == 0 \
                and not row.z_score <= Z_BOUND:
            problems.append(f"coverage-times {row.strategy}/{row.family}/{row.m}/{row.k}: "
                            f"|z| = {row.z_score:.2f} > {Z_BOUND}")
    return problems


SWEEP_CHECKS = {
    "figure1": check_figure1,
    "mechanism": check_mechanism_rows,
    "dynamics": check_dynamics_rows,
    "coverage-times": check_coverage_rows,
}
