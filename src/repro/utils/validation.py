"""Argument validation helpers.

Every public entry point of the library validates its inputs through these
functions so that error messages are consistent and informative.

The batch layer's input rules live here and nowhere else, as three
primitives: :func:`check_counts` (player counts, round counts, coverage
targets, row sizes), :func:`check_probability_rows` (strategies, priors,
visit distributions, targets) and :func:`check_site_parameters` (costs,
requirements, depletion).  The payoff kernels' focal and opponent
strategies, which may live on any backend, go through
:func:`check_unit_interval`.  One integer rule holds everywhere, including the
scalar :func:`check_integer`: bools are refused, and a float passes only when
it is exactly an int64 — nothing is rounded.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backend import ensure_numpy

__all__ = [
    "check_integer",
    "check_positive_integer",
    "check_counts",
    "check_probability_rows",
    "check_site_parameters",
    "check_probability",
    "check_unit_interval",
    "check_probability_vector",
    "check_value_vector",
    "check_in_range",
]

#: Tolerance used when checking that probability vectors sum to one.
PROB_SUM_ATOL = 1e-8

#: Tolerance of :func:`check_probability_rows` on row sums and on padding mass.
_ROW_SUM_ATOL = 1e-6
_PADDING_ATOL = 1e-12

_BOOL_TYPES = frozenset((bool, np.bool_))


def _exact_int64(array: np.ndarray) -> np.ndarray | None:
    """``array`` as ``int64`` when every entry is exactly an int64, else ``None``.

    Integer dtypes pass; a float passes only when the cast round-trips
    (``2.0`` does; ``2.000001``, ``nan`` and ``1e19`` do not); bools,
    strings and objects never do.
    """
    kind = array.dtype.kind
    if kind in "iu":
        return array.astype(np.int64, copy=False)
    if kind != "f":
        return None
    with np.errstate(invalid="ignore"):
        integral = array.astype(np.int64)
    return integral if (integral == array).all() else None


def _integers(values: Any, name: str, minimum: int) -> np.ndarray:
    """The count rule on an input of any shape: ``int64`` entries ``>= minimum``."""
    if isinstance(values, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, values)):
        raise ValueError(f"{name} entries must be integers, not bools")
    if not isinstance(values, np.ndarray) and hasattr(values, "__array_namespace__"):
        values = ensure_numpy(values)  # a non-NumPy backend's array
    array = np.asarray(values)
    integral = _exact_int64(array)
    if integral is None:
        raise ValueError(f"{name} entries must be integers")
    if integral.size and integral.min() < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} entries must be {bound}, got {int(integral.min())}")
    return integral


def check_integer(value: Any, name: str, minimum: int | None = None) -> int:
    """Coerce a scalar ``value`` to ``int`` and optionally enforce a minimum.

    Bools are refused and a float is accepted only when it is exactly an
    int64 (``3.0`` passes, ``3.5`` and ``nan`` do not), the same integrality
    test as :func:`check_counts`.  Raises ``TypeError`` for a non-integer,
    ``ValueError`` below ``minimum``.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, (np.integer, int)):
        out = int(value)
    elif isinstance(value, float) and _exact_int64(np.asarray(value)) is not None:
        out = int(value)
    else:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and out < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {out}")
    return out


def check_positive_integer(value: Any, name: str) -> int:
    """Coerce ``value`` to a strictly positive ``int`` (bools refused, integral floats exact)."""
    return check_integer(value, name, minimum=1)


def check_counts(
    values: Any, name: str, *, minimum: int = 1, size: int | None = None
) -> np.ndarray:
    """Validate counts into a host ``int64`` vector (the batch layer's one count rule).

    Bools are refused (``True`` is not the count 1) and integral floats are
    accepted exactly: a float passes only when it is exactly an int64, so
    ``2.0`` passes while ``2.000001``, ``nan`` and ``1e19`` are refused, not
    rounded.  Every entry must be ``>= minimum``.

    With ``size=None`` the input is a grid: a scalar or a non-empty 1-D
    sequence, returned as given.  With ``size=B`` it is a roster: a scalar
    (or a single entry) broadcast to ``(B,)``, or exactly ``B`` entries.
    Backend-native arrays are brought to the host: counts steer control flow
    (chunking, table widths), so they are host-side whatever the backend.
    Every failure raises ``ValueError``.
    """
    counts = _integers(values, name, minimum)
    if counts.ndim == 0:
        counts = counts.reshape(1)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError(f"{name} must be an integer or a non-empty 1-D sequence of them")
    if size is not None and counts.size != size:
        if counts.size != 1:
            raise ValueError(
                f"{name} must be an integer or a ({size},) roster, got {counts.size} entries"
            )
        counts = np.full(size, counts[0], dtype=np.int64)
    return counts


def check_probability_rows(
    rows: Any,
    name: str,
    *,
    sizes: Any = None,
    shape: tuple[int, int] | None = None,
    normalize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Pack a batch of probability rows into a host ``(B, M)`` matrix plus per-row sizes.

    Parameters
    ----------
    rows:
        A ``(B, M)`` matrix (NumPy or backend-native), or a length-``B``
        sequence of 1-D rows: vectors, objects with ``as_array()``
        (strategies) or with a ``prior`` (search problems).  Ragged rows are
        zero-padded to the widest row, or to the width of ``shape``.
    name:
        The rows' name in error messages (``"strategies"``, ``"priors"``).
    sizes:
        Per-row real-site counts, checked by :func:`check_counts` (so
        ``2.9`` is refused, not truncated) and at most the width.  Columns
        at or beyond a row's size are padding.  By default a matrix row is
        all real and a sequence row is as long as given; with ``sizes``, a
        sequence row must have its size or the full width.
    shape:
        The ``(B, M)`` the batch must have, when the caller knows it.
    normalize:
        ``True``: every row must have positive mass and is divided by its
        sum.  ``False``: every row must already sum to one (within 1e-6).

    Entries must be finite and non-negative.  Padding must carry zero mass
    (within 1e-12) and comes back exactly zero.  Every failure raises
    ``ValueError``.
    """
    lengths = None
    if isinstance(rows, np.ndarray) or hasattr(rows, "__array_namespace__"):
        matrix = np.array(ensure_numpy(rows), dtype=float)
    else:
        # ensure_numpy unwraps ``as_array()`` objects and backend arrays.
        vectors = [np.asarray(ensure_numpy(getattr(row, "prior", row))).ravel() for row in rows]
        if not vectors:
            raise ValueError(f"cannot pack an empty batch of {name}")
        lengths = [vector.size for vector in vectors]
        width = max(lengths) if shape is None else shape[1]
        matrix = np.zeros((len(vectors), width))
        for index, vector in enumerate(vectors):
            if vector.size > width:
                raise ValueError(f"{name} row {index} has {vector.size} entries; width is {width}")
            matrix[index, : vector.size] = vector
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError(f"{name} must form a non-empty (B, M) matrix")
    if shape is not None and matrix.shape != shape:
        raise ValueError(f"{name} must form a {shape} matrix over the sites (boxes), got {matrix.shape}")
    b, m = matrix.shape
    if sizes is None:
        counts = np.asarray(lengths if lengths is not None else [m] * b, dtype=np.int64)
    else:
        counts = check_counts(sizes, "sizes", size=b)
        if (counts > m).any():
            raise ValueError(f"sizes must lie in [1, {m}]")
        if lengths is not None and any(n not in (s, m) for n, s in zip(lengths, counts.tolist())):
            raise ValueError(f"each row of {name} must have its instance's size or the width {m}")
    if not np.isfinite(matrix).all() or (matrix < 0).any():
        raise ValueError(f"{name} must be finite and non-negative")
    padding = np.arange(m) >= counts[:, None]
    if (matrix[padding] > _PADDING_ATOL).any():
        raise ValueError(f"{name} must carry zero mass on padding columns (at or beyond a row's size)")
    matrix[padding] = 0.0
    sums = matrix.sum(axis=1)
    if normalize:
        if (sums <= 0).any():
            raise ValueError(f"every row of {name} must have positive mass")
        matrix /= sums[:, None]
    elif not np.allclose(sums, 1.0, atol=_ROW_SUM_ATOL):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"every row of {name} must sum to one; row {bad} sums to {sums[bad]!r}")
    return matrix, counts


def check_site_parameters(
    values: Any,
    name: str,
    shape: tuple[int, ...],
    *,
    minimum: float = 0.0,
    below: float = np.inf,
    integer: bool = False,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Broadcast a per-site parameter to ``shape`` and check its range.

    ``values`` is a scalar (every site of every row), an ``(M,)`` vector
    (shared by every row) or a full ``(B, M)`` matrix; anything else that
    NumPy broadcasts to ``shape`` (e.g. a ``(B, 1)`` column) is accepted
    too.  With ``integer=True`` the entries follow the count rule of
    :func:`check_counts` (bools refused, integral floats accepted exactly,
    each ``>= minimum``) and come back ``int64``; otherwise they are floats
    in ``[minimum, below)`` (``nan`` and ``inf`` fail).  With ``mask``,
    entries where it is ``False`` (padding) are set to zero before the
    check.  Returns a new writable host array; failures raise ``ValueError``.
    """
    if integer:
        array = _integers(values, name, int(minimum))
    else:
        array = np.asarray(ensure_numpy(values), dtype=float)
    try:
        array = np.broadcast_to(array, shape)
    except ValueError:
        raise ValueError(
            f"{name} must be a scalar, one entry per site or a full {shape} array; "
            f"got shape {array.shape}"
        ) from None
    array = array.copy() if mask is None else np.where(mask, array, 0.0)
    if not integer and not ((array >= minimum) & (array < below)).all():
        raise ValueError(f"{name} must lie in [{minimum:g}, {below:g}), got {array}")
    return array


def check_probability(value: Any, name: str) -> float:
    """Validate a scalar probability in ``[0, 1]``."""
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    if out < 0.0 or out > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {out}")
    return out


def check_unit_interval(array: Any, name: str, *, xp: Any = np) -> Any:
    """Return ``array`` after refusing any entry outside ``[0, 1]`` by more than ``1e-12``.

    NaN is refused too.  ``xp`` is the array's namespace, so a
    backend-native array is checked where it lives.
    """
    if not bool(xp.all((array >= -1e-12) & (array <= 1 + 1e-12))):
        raise ValueError(f"{name} must lie in [0, 1]")
    return array


def check_in_range(
    value: Any, name: str, lo: float = -np.inf, hi: float = np.inf
) -> float:
    """Validate a finite scalar constrained to ``[lo, hi]``."""
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    if out < lo or out > hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {out}")
    return out


def check_probability_vector(
    values: Sequence[float] | np.ndarray,
    name: str = "probabilities",
    *,
    atol: float = PROB_SUM_ATOL,
    normalize: bool = False,
) -> np.ndarray:
    """Validate (and optionally renormalise) a probability vector.

    Parameters
    ----------
    values:
        Candidate distribution.
    name:
        Name used in error messages.
    atol:
        Allowed deviation of the sum from 1.
    normalize:
        When ``True`` the vector is rescaled to sum exactly to one after the
        non-negativity check (useful for numerically-obtained distributions).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite entries")
    if np.any(arr < -atol):
        raise ValueError(f"{name} must be non-negative")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if normalize:
        if total <= 0:
            raise ValueError(f"{name} must have positive mass")
        return arr / total
    if not np.isclose(total, 1.0, atol=atol, rtol=0.0):
        raise ValueError(f"{name} must sum to 1 (sum={total!r})")
    return arr


def check_value_vector(
    values: Sequence[float] | np.ndarray,
    name: str = "values",
    *,
    require_positive: bool = True,
    require_sorted: bool = False,
) -> np.ndarray:
    """Validate a vector of site values ``f``.

    Parameters
    ----------
    values:
        Candidate site values.
    require_positive:
        When ``True`` all values must be strictly positive (the paper assumes
        ``f : [M] -> R+``).
    require_sorted:
        When ``True`` the vector must already be non-increasing.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite entries")
    if require_positive and (arr <= 0).any():
        raise ValueError(f"{name} must be strictly positive")
    if not require_positive and (arr < 0).any():
        raise ValueError(f"{name} must be non-negative")
    if require_sorted and np.any(np.diff(arr) > 1e-12):
        raise ValueError(
            f"{name} must be sorted in non-increasing order; "
            "wrap them in SiteValues to sort automatically"
        )
    return arr.copy()
