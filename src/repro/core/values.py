"""Site importance values ``f`` and generators for common value-function families.

The dispersal game of Collet & Korman (SPAA 2018) is parameterised by a
vector ``f(1) >= f(2) >= ... >= f(M) > 0`` of site values.  :class:`SiteValues`
wraps that vector, enforces the ordering convention of the paper (sites are
indexed in non-increasing value order) and provides the standard families used
throughout the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.validation import check_in_range, check_positive_integer, check_value_vector

__all__ = ["SiteValues"]


@dataclass(frozen=True)
class SiteValues:
    """Immutable vector of site values sorted in non-increasing order.

    Parameters
    ----------
    values:
        Strictly positive site values.  Unless ``assume_sorted=True`` is passed
        to :meth:`from_values`, the constructor sorts them in non-increasing
        order, matching the paper's convention ``f(x) >= f(x + 1)``.

    Notes
    -----
    The class is hashable and frozen so instances can be reused as cache keys
    by the experiment harness.
    """

    values: np.ndarray

    # ----------------------------------------------------------------- basics
    def __post_init__(self) -> None:
        arr = check_value_vector(self.values, "values", require_positive=True)
        arr.sort()  # equal positive values are equal bits: no stable order is needed
        object.__setattr__(self, "values", np.ascontiguousarray(arr[::-1]))
        self.values.setflags(write=False)

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray) -> "SiteValues":
        """Build a :class:`SiteValues` from any positive sequence (sorted internally)."""
        return cls(np.asarray(values, dtype=float))

    @property
    def m(self) -> int:
        """Number of sites ``M``."""
        return int(self.values.size)

    @property
    def total(self) -> float:
        """Sum of all site values (the full-information coverage ceiling)."""
        return float(self.values.sum())

    def top(self, k: int) -> float:
        """Sum of the ``k`` most valuable sites (full-coordination optimum for ``k`` players)."""
        k = check_positive_integer(k, "k")
        return float(self.values[: min(k, self.m)].sum())

    def as_array(self) -> np.ndarray:
        """Return the underlying (read-only) NumPy array."""
        return self.values

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, index):
        return self.values[index]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SiteValues):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.allclose(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        head = ", ".join(f"{v:.4g}" for v in self.values[:6])
        suffix = ", ..." if self.m > 6 else ""
        return f"SiteValues(M={self.m}, values=[{head}{suffix}])"

    # ------------------------------------------------------------- operations
    def normalized(self) -> "SiteValues":
        """Rescale so the most valuable site has value 1."""
        return SiteValues(self.values / self.values[0])

    def truncated(self, m: int) -> "SiteValues":
        """Keep only the ``m`` most valuable sites."""
        m = check_positive_integer(m, "m")
        if m > self.m:
            raise ValueError(f"cannot truncate to {m} sites, only {self.m} available")
        return SiteValues(self.values[:m])

    def scaled(self, factor: float) -> "SiteValues":
        """Multiply every value by ``factor > 0``."""
        factor = check_in_range(factor, "factor", lo=np.finfo(float).tiny)
        return SiteValues(self.values * factor)

    def with_values(self, mapping: Iterable[tuple[int, float]]) -> "SiteValues":
        """Return a copy where selected (0-based) indices take new positive values."""
        arr = self.values.copy()
        for index, value in mapping:
            if index < 0 or index >= self.m:
                raise IndexError(f"site index {index} out of range for M={self.m}")
            if value <= 0:
                raise ValueError("site values must be strictly positive")
            arr[index] = value
        return SiteValues(arr)

    def value_ratio(self) -> float:
        """Return ``f(M) / f(1)`` — how flat the value profile is (1 means uniform)."""
        return float(self.values[-1] / self.values[0])

    # ------------------------------------------------------------- generators
    @staticmethod
    def uniform(m: int, value: float = 1.0) -> "SiteValues":
        """``m`` sites of identical value."""
        m = check_positive_integer(m, "m")
        value = check_in_range(value, "value", lo=np.finfo(float).tiny)
        return SiteValues(np.full(m, value, dtype=float))

    @staticmethod
    def linear(m: int, high: float = 1.0, low: float = 0.1) -> "SiteValues":
        """Linearly decreasing values from ``high`` down to ``low``."""
        m = check_positive_integer(m, "m")
        high = check_in_range(high, "high", lo=np.finfo(float).tiny)
        low = check_in_range(low, "low", lo=np.finfo(float).tiny, hi=high)
        return SiteValues(np.linspace(high, low, m))

    @staticmethod
    def geometric(m: int, ratio: float = 0.9, first: float = 1.0) -> "SiteValues":
        """Geometrically decaying values ``first * ratio**(x-1)``."""
        m = check_positive_integer(m, "m")
        ratio = check_in_range(ratio, "ratio", lo=np.finfo(float).tiny, hi=1.0)
        first = check_in_range(first, "first", lo=np.finfo(float).tiny)
        return SiteValues(first * ratio ** np.arange(m, dtype=float))

    @staticmethod
    def zipf(m: int, exponent: float = 1.0, first: float = 1.0) -> "SiteValues":
        """Power-law (Zipf) values ``first / x**exponent``."""
        m = check_positive_integer(m, "m")
        exponent = check_in_range(exponent, "exponent", lo=0.0)
        first = check_in_range(first, "first", lo=np.finfo(float).tiny)
        return SiteValues(first / np.arange(1, m + 1, dtype=float) ** exponent)

    @staticmethod
    def exponential(m: int, rate: float = 0.1, first: float = 1.0) -> "SiteValues":
        """Exponentially decaying values ``first * exp(-rate * (x - 1))``."""
        m = check_positive_integer(m, "m")
        rate = check_in_range(rate, "rate", lo=0.0)
        first = check_in_range(first, "first", lo=np.finfo(float).tiny)
        return SiteValues(first * np.exp(-rate * np.arange(m, dtype=float)))

    @staticmethod
    def slowly_decreasing(m: int, k: int, first: float = 1.0) -> "SiteValues":
        """The adversarial family used in the proof of Theorem 6.

        A strictly decreasing profile whose ratio ``f(M)/f(1)`` stays above
        ``(1 - 1/(2k))^(k-1)``, which forces the exclusive-policy support to
        exceed ``2k`` sites (as in Section 4 of the paper).
        """
        m = check_positive_integer(m, "m")
        k = check_positive_integer(k, "k")
        first = check_in_range(first, "first", lo=np.finfo(float).tiny)
        if k == 1:
            floor_ratio = 0.9
        else:
            floor_ratio = (1.0 - 1.0 / (2.0 * k)) ** (k - 1)
        # Strictly decreasing, with f(M)/f(1) slightly above the floor.
        target = 0.5 * (1.0 + floor_ratio)
        ratios = np.linspace(1.0, target, m)
        return SiteValues(first * ratios)

    @staticmethod
    def random(
        m: int,
        rng: np.random.Generator | int | None = None,
        *,
        low: float = 0.05,
        high: float = 1.0,
    ) -> "SiteValues":
        """Random i.i.d. uniform values in ``[low, high]`` (sorted internally)."""
        m = check_positive_integer(m, "m")
        if high <= low or low <= 0:
            raise ValueError("need 0 < low < high")
        generator = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        return SiteValues(generator.uniform(low, high, size=m))

    @staticmethod
    def two_sites(second: float, first: float = 1.0) -> "SiteValues":
        """The two-site instances used by Figure 1 of the paper (``f = (1, second)``)."""
        first = check_in_range(first, "first", lo=np.finfo(float).tiny)
        second = check_in_range(second, "second", lo=np.finfo(float).tiny, hi=first)
        return SiteValues(np.array([first, second], dtype=float))
