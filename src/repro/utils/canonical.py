"""Canonical, backend-independent hashing of game instances and requests.

The serving layer's content-addressed cache (:mod:`repro.serving.cache`)
needs one stable key per *mathematical* request: two callers asking for the
equilibrium of the same instance must hit the same cache slot no matter how
they spelled the instance (list / tuple / NumPy array / backend-native
array / :class:`~repro.core.values.SiteValues`), in which order they listed
the site values, or which array backend is active.  The helpers here define
that canonical form:

* site values are routed through :class:`~repro.core.values.SiteValues`, so
  they inherit its validation and non-increasing sort (the paper's
  ``f(x) >= f(x + 1)`` convention), and one ``SiteValues`` is the result;
* player-count grids become sorted tuples of unique ints;
* the request key is a SHA-256 digest of an unambiguous byte encoding: the
  kind and parameters type-tagged and length-prefixed, the canonical values
  as their little-endian float64 bytes after a length prefix — exact, so
  values differing in the last bit get different keys and equal values
  always get the same one.

Nothing here touches the array backend: canonicalisation is host-side
staging work, exactly like :class:`~repro.batch.padding.PaddedValues`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

# ``repro.core.values`` imports ``repro.utils`` (validation helpers), so this
# module is first loaded while that one is still initialising: bind the
# module object now and look ``SiteValues`` up on it at call time.
import repro.core.values as _values
from repro.backend import ensure_numpy
from repro.utils.validation import check_counts, check_probability_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.values import SiteValues

__all__ = [
    "canonical_values",
    "canonical_distribution",
    "canonical_k_grid",
    "canonical_times",
    "content_key",
    "canonical_task_params",
    "cell_key",
]


def _numbers(values: Any, what: str) -> np.ndarray:
    """``values`` as a host int or float array; strings, bools and other objects are refused."""
    if isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError(f"{what} must be numbers")
    if not isinstance(values, np.ndarray) and hasattr(values, "__array_namespace__"):
        values = ensure_numpy(values)
    array = np.asarray(values)
    if array.dtype.kind not in "fiu":
        raise ValueError(f"{what} must be numbers")
    return array


def canonical_values(values: "SiteValues | Sequence[float] | np.ndarray") -> "SiteValues":
    """The validated, non-increasing :class:`~repro.core.values.SiteValues` of an instance.

    Accepts anything :meth:`PaddedValues.from_instances
    <repro.batch.padding.PaddedValues.from_instances>` accepts for one row,
    plus backend-native arrays (brought to the host first).
    """
    if isinstance(values, _values.SiteValues):
        return values
    return _values.SiteValues.from_values(_numbers(values, "site values"))


def canonical_distribution(
    weights: Sequence[float] | np.ndarray,
) -> tuple[float, ...]:
    """Canonical site-visit distribution: normalised, sorted non-increasing.

    The coverage-time endpoint's instances are *probability* vectors, which
    — unlike site values — may legitimately contain zeros (a zero-probability
    site makes full coverage impossible; the exact kernels report ``inf``),
    so they cannot ride through :func:`canonical_values`.  Entries must be
    finite, non-negative, with a positive total; the vector is normalised by
    its sum (IEEE division is correctly rounded, so proportional integer
    spellings like ``[2, 2]`` and ``[1, 1]`` land on identical doubles) and
    sorted non-increasing — coverage times are permutation-invariant in the
    sites, so all orderings of one distribution share a cache key.
    """
    if weights is None:
        raise ValueError("request is missing the visit distribution 'values'")
    array = _numbers(weights, "visit-distribution entries")
    if array.ndim != 1:
        raise ValueError("a visit distribution must be a non-empty 1-D vector")
    (row,), _ = check_probability_rows(array[None, :], "visit distributions", normalize=True)
    # ``+ 0.0`` turns -0.0 into 0.0: one canonical zero for the key and the echo.
    return tuple((np.sort(row)[::-1] + 0.0).tolist())


def canonical_times(times: Sequence[int] | np.ndarray | int) -> tuple[int, ...]:
    """Round-count grids as sorted tuples of unique non-negative ints.

    Like :func:`canonical_k_grid` but admitting ``0`` (the coverage-time CDF
    is well defined at zero rounds), for the ``times`` grid of the
    ``/coverage-times`` endpoint.
    """
    return tuple(sorted(set(check_counts(times, "times", minimum=0).tolist())))


def canonical_k_grid(k_grid: Sequence[int] | np.ndarray | int) -> tuple[int, ...]:
    """Player-count grids as sorted tuples of unique positive ints.

    Entries follow :func:`~repro.utils.validation.check_counts`: bools are
    refused and integral floats are accepted exactly.

    The serving sweep endpoint treats the grid as a *set* of player counts
    (responses are reported per ``k``), so ``[3, 2, 3]`` and ``(2, 3)`` are
    the same request and must share a cache key.
    """
    return tuple(sorted(set(check_counts(k_grid, "k_grid").tolist())))


def _encode(value: Any, out: list[str]) -> None:
    """Render a value unambiguously (type-tagged, length-prefixed).

    Scalars, strings and (nested) sequences — lists, tuples and NumPy arrays
    alike, with NumPy scalars as their Python counterparts — so a request
    parameter and its canonical tuple spelling encode the same.
    """
    if isinstance(value, (tuple, list)):
        out.append(f"t{len(value)}(")
        for item in value:
            _encode(item, out)
        out.append(")")
    elif isinstance(value, str):
        out.append(f"s{len(value)}:{value}")
    elif isinstance(value, bool):
        out.append(f"b{int(value)}")
    elif isinstance(value, int):
        out.append(f"i{value}")
    elif isinstance(value, float):
        # float.hex round-trips exactly; no repr-precision ambiguity.
        out.append(f"f{value.hex()}")
    elif isinstance(value, (np.ndarray, np.generic)):
        _encode(value.tolist(), out)
    else:
        raise TypeError(f"cannot encode request parameter of type {type(value).__name__}")


def content_key(
    kind: str, values: SiteValues | Sequence[float] | np.ndarray, **params: Any
) -> str:
    """SHA-256 hex key of a request's canonical form.

    The kind and the parameters (sorted by name; ints, floats, bools,
    strings or nested sequences of those) are encoded type-tagged and
    length-prefixed; the values, sorted non-increasing, are digested as their
    little-endian float64 bytes behind a length prefix, in one update.
    Validating the values is the request model's job: this only hashes them.

    >>> content_key("solve", [0.3, 1.0], k=3) == content_key(
    ...     "solve", np.array([1.0, 0.3]), k=3
    ... )
    True
    """
    if isinstance(values, _values.SiteValues):
        array = values.as_array()
    else:
        array = np.sort(_numbers(values, "request values"))[::-1]
    kind = str(kind)
    digest = hashlib.sha256(f"s{len(kind)}:{kind}v{array.size}:".encode("utf-8"))
    digest.update(np.ascontiguousarray(array, dtype="<f8"))
    out: list[str] = []
    _encode(tuple(sorted(params.items())), out)
    digest.update("".join(out).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Experiment-cell content addresses (the incremental sweep store)
# ---------------------------------------------------------------------------


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _pickle_digest(value: Any) -> str:
    """Last-resort canonical form: SHA-256 of the pickle byte stream.

    Used only for values the structural canonicaliser cannot decompose (e.g.
    closures wrapped in ``CallablePolicy``).  Pickle bytes are deterministic
    for equal objects built the same way, which is exactly the store's
    use case — the same spec builder producing the same grid twice.
    """
    try:
        return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()
    except Exception as error:  # pragma: no cover - exercised via TypeError path
        raise TypeError(
            f"cannot canonicalise task parameter of type {type(value).__name__}: {error}"
        ) from error


def _canonical_cell_value(value: Any) -> Any:
    """Canonical nested-tuple form of one task-grid parameter value.

    Handles everything the built-in spec builders put in their grids —
    scalars, strings, (nested) tuples of those, mappings, NumPy arrays,
    dataclasses, :class:`~repro.core.values.SiteValues`-likes and plain
    parameter objects such as congestion policies (type identity + instance
    state) — and falls back to a pickle digest for anything else.
    """
    if value is None:
        return ("none",)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        # Same canonical form as a sequence: an array-valued parameter and
        # its list/tuple spelling describe the same grid cell.
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_cell_value(item) for item in value)
    if isinstance(value, Mapping):
        return (
            "map",
            tuple(
                (str(key), _canonical_cell_value(value[key]))
                for key in sorted(value, key=str)
            ),
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            "dataclass",
            _qualname(type(value)),
            tuple(
                (field.name, _canonical_cell_value(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if hasattr(value, "as_array"):  # SiteValues / Strategy
        return (
            "values",
            _qualname(type(value)),
            tuple(float(x) for x in value.as_array()),
        )
    state = getattr(value, "__dict__", None)
    if state is not None:
        try:
            fields = tuple(
                (str(key), _canonical_cell_value(state[key])) for key in sorted(state)
            )
        except TypeError:
            return ("pickle", _qualname(type(value)), _pickle_digest(value))
        # Class-level attributes (e.g. a policy's ``name``) are part of the
        # type identity already captured by the qualified name.
        return ("object", _qualname(type(value)), fields)
    return ("pickle", _qualname(type(value)), _pickle_digest(value))


def canonical_task_params(params: Mapping[str, Any]) -> tuple:
    """The canonical nested-tuple form of one experiment task's parameters.

    Sorted by parameter name, with every value routed through the structural
    canonicaliser, so two spec builds producing mathematically identical grid
    cells share a canonical form (and therefore a :func:`cell_key`) no matter
    how the values were spelled.
    """
    return (
        "params",
        tuple((str(name), _canonical_cell_value(params[name])) for name in sorted(params)),
    )


def cell_key(
    family: str, params: Mapping[str, Any], seed: int, index: int, *, task: str = ""
) -> str:
    """Content address of one experiment grid cell.

    The key digests everything the cell's output depends on under the
    library's seed policy: the experiment *family* (spec name), the task
    function's qualified name, the canonicalised task ``params``, the spec's
    base ``seed`` and the cell's grid ``index`` (per-task generators are
    spawned by grid index).  Backend and device are deliberately excluded —
    the batch layer's elementwise contract makes results backend-independent.

    >>> cell_key("sweep", {"k": 3}, 0, 1) == cell_key("sweep", {"k": 3}, 0, 1)
    True
    >>> cell_key("sweep", {"k": 3}, 0, 1) != cell_key("sweep", {"k": 3}, 0, 2)
    True
    """
    out: list[str] = []
    _encode(
        (
            "cell",
            str(family),
            str(task),
            int(seed),
            int(index),
            canonical_task_params(params),
        ),
        out,
    )
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
