"""Argument validation helpers.

Every public entry point of the library validates its inputs through these
functions so that error messages are consistent and informative.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_integer",
    "check_positive_integer",
    "check_probability",
    "check_probability_vector",
    "check_value_vector",
    "check_in_range",
]

#: Tolerance used when checking that probability vectors sum to one.
PROB_SUM_ATOL = 1e-8


def check_integer(value: Any, name: str, minimum: int | None = None) -> int:
    """Coerce ``value`` to ``int`` and optionally enforce a minimum."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, (np.integer, int)):
        out = int(value)
    elif isinstance(value, float) and float(value).is_integer():
        out = int(value)
    else:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and out < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {out}")
    return out


def check_positive_integer(value: Any, name: str) -> int:
    """Coerce ``value`` to a strictly positive ``int``."""
    return check_integer(value, name, minimum=1)


def check_probability(value: Any, name: str) -> float:
    """Validate a scalar probability in ``[0, 1]``."""
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    if out < 0.0 or out > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {out}")
    return out


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
        raise ValueError(f"{name} must be non-increasing")
    return arr.copy()
