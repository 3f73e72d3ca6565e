"""Congestion functions and reward policies.

A *reward policy* ``I(x, l)`` gives the payoff received by a player that
selected site ``x`` together with ``l - 1`` other players.  The paper's focus
is on *congestion* policies of the form ``I(x, l) = f(x) * C(l)`` with
``C(1) = 1`` and ``C`` non-increasing (Section 1.1).  This module implements
the congestion families discussed in the paper:

* :class:`ExclusivePolicy` — the "Judgment of Solomon" rule ``C_exc`` (full
  reward when alone, nothing on any collision); the paper's main object.
* :class:`SharingPolicy` — ``C_share(l) = 1/l`` (scramble competition).
* :class:`ConstantPolicy` — ``C ≡ 1`` (no congestion cost; SPoA ~ k).
* :class:`TwoLevelPolicy` — the one-parameter family ``C_c`` of Figure 1
  (``C_c(1) = 1``, ``C_c(l >= 2) = c``); ``c = 0`` is exclusive, ``c = 0.5``
  is sharing for two players, ``c < 0`` models aggression.
* :class:`PowerLawPolicy`, :class:`ExponentialPolicy` — smooth interpolations
  between no-congestion and hard competition, including cooperative regimes
  (``C(l) > 1/l``).
* :class:`AggressivePolicy` — negative payoff on every collision.
* :class:`TabulatedPolicy` — arbitrary user-supplied congestion table.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.utils.numerics import is_non_increasing
from repro.utils.validation import check_positive_integer

__all__ = [
    "CongestionPolicy",
    "ExclusivePolicy",
    "SharingPolicy",
    "ConstantPolicy",
    "TwoLevelPolicy",
    "PowerLawPolicy",
    "ExponentialPolicy",
    "AggressivePolicy",
    "CooperativeSharingPolicy",
    "TabulatedPolicy",
    "CallablePolicy",
    "POLICY_FACTORIES",
    "policy_from_name",
]


class CongestionPolicy(abc.ABC):
    """Abstract congestion function ``C(l)`` with ``C(1) = 1`` and ``C`` non-increasing.

    Subclasses implement :meth:`congestion`; the base class provides the
    vectorised table, the reward map ``I(x, l) = f(x) * C(l)``, and validation
    helpers.  A policy does **not** depend on the total number of players
    ``k`` — only on how many players ended up on the same site — exactly as in
    the paper.
    """

    #: Human readable identifier used in reports and benchmark tables.
    name: str = "congestion"

    # ------------------------------------------------------------------ C(l)
    @abc.abstractmethod
    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        """Return ``C(l)`` for one or many occupancy counts ``l >= 1``."""

    def __call__(self, ell: np.ndarray | int) -> np.ndarray | float:
        return self.congestion(ell)

    def table(self, k: int) -> np.ndarray:
        """Return the vector ``[C(1), C(2), ..., C(k)]``."""
        k = check_positive_integer(k, "k")
        return np.asarray(self.congestion(np.arange(1, k + 1)), dtype=float)

    # --------------------------------------------------------------- rewards
    def reward(self, value: np.ndarray | float, ell: np.ndarray | int) -> np.ndarray | float:
        """Reward ``I(x, l) = f(x) * C(l)`` (broadcasts over both arguments)."""
        return np.asarray(value, dtype=float) * np.asarray(self.congestion(ell), dtype=float)

    # ------------------------------------------------------------ validation
    def validate(self, k: int, *, atol: float = 1e-9) -> None:
        """Check the congestion-policy axioms up to ``k`` players.

        Raises ``ValueError`` when ``C(1) != 1`` or ``C`` is not
        non-increasing on ``{1, ..., k}``.
        """
        tab = self.table(k)
        if not np.isclose(tab[0], 1.0, atol=atol):
            raise ValueError(f"{self.name}: C(1) must equal 1, got {tab[0]}")
        if not is_non_increasing(tab, atol=atol):
            raise ValueError(f"{self.name}: C must be non-increasing, got {tab}")

    def is_valid(self, k: int, *, atol: float = 1e-9) -> bool:
        """Boolean variant of :meth:`validate`."""
        try:
            self.validate(k, atol=atol)
        except ValueError:
            return False
        return True

    def is_exclusive(self, k: int, *, atol: float = 1e-12) -> bool:
        """``True`` when this policy coincides with ``C_exc`` on ``{1, ..., k}``."""
        tab = self.table(k)
        # np.allclose(tab, [1, 0, ..., 0], atol=atol) (its default rtol is
        # 1e-5), written out: the library's overhead dominates at this size.
        return bool(abs(tab[0] - 1.0) <= atol + 1e-5 and (np.abs(tab[1:]) <= atol).all())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class ExclusivePolicy(CongestionPolicy):
    """The exclusive ("Judgment of Solomon") congestion function ``C_exc``.

    ``C(1) = 1`` and ``C(l) = 0`` for every ``l >= 2``: a site's reward is paid
    only to a player that explores it alone.  Under this policy the unique
    symmetric Nash equilibrium is the closed-form ``sigma_star`` and the
    symmetric price of anarchy is exactly 1 (Theorems 3-6 of the paper).
    """

    name = "exclusive"

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell)
        self._check_ell(arr)
        return np.where(arr == 1, 1.0, 0.0) if arr.ndim else float(arr == 1)

    def is_exclusive(self, k: int, *, atol: float = 1e-12) -> bool:
        """Always ``True``, without tabulating ``C`` up to a possibly huge ``k``."""
        check_positive_integer(k, "k")
        return True

    @staticmethod
    def _check_ell(arr: np.ndarray) -> None:
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")


class SharingPolicy(CongestionPolicy):
    """The sharing congestion function ``C_share(l) = 1 / l`` (scramble competition)."""

    name = "sharing"

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell, dtype=float)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        return 1.0 / arr if arr.ndim else float(1.0 / arr)


class ConstantPolicy(CongestionPolicy):
    """No congestion cost: ``C(l) = 1`` for every ``l`` (each visitor gets the full value)."""

    name = "constant"

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell, dtype=float)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        return np.ones_like(arr) if arr.ndim else 1.0


class TwoLevelPolicy(CongestionPolicy):
    """The one-parameter family ``C_c`` used in Figure 1 of the paper.

    ``C_c(1) = 1`` and ``C_c(l) = c`` for every ``l >= 2``, with
    ``c <= 1``.  ``c = 0`` recovers the exclusive policy; for two players
    ``c = 0.5`` recovers the sharing policy; ``c < 0`` models aggressive
    collisions in which both parties are harmed.
    """

    name = "two-level"

    def __init__(self, collision_value: float):
        collision_value = float(collision_value)
        if collision_value > 1.0 + 1e-12:
            raise ValueError("collision_value must be <= 1 for C to be non-increasing")
        self.collision_value = collision_value

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        result = np.where(arr == 1, 1.0, self.collision_value)
        return result if arr.ndim else float(result)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TwoLevelPolicy(collision_value={self.collision_value!r})"


class PowerLawPolicy(CongestionPolicy):
    """Power-law congestion ``C(l) = l ** (-gamma)`` with ``gamma >= 0``.

    ``gamma = 0`` is the constant policy, ``gamma = 1`` the sharing policy,
    ``gamma < 1`` a cooperative regime (``C(l) > 1/l``), and ``gamma -> inf``
    approaches the exclusive policy.
    """

    name = "power-law"

    def __init__(self, gamma: float):
        gamma = float(gamma)
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = gamma

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell, dtype=float)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        result = arr ** (-self.gamma)
        return result if arr.ndim else float(result)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PowerLawPolicy(gamma={self.gamma!r})"


class ExponentialPolicy(CongestionPolicy):
    """Exponential congestion ``C(l) = exp(-beta * (l - 1))`` with ``beta >= 0``."""

    name = "exponential"

    def __init__(self, beta: float):
        beta = float(beta)
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.beta = beta

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell, dtype=float)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        result = np.exp(-self.beta * (arr - 1.0))
        return result if arr.ndim else float(result)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExponentialPolicy(beta={self.beta!r})"


class AggressivePolicy(CongestionPolicy):
    """Aggressive congestion: colliding players pay a penalty proportional to ``f(x)``.

    ``C(1) = 1`` and ``C(l) = -penalty`` for ``l >= 2`` with ``penalty >= 0``.
    This is the regime the paper highlights as *more* competitive than the
    exclusive policy, yet yielding strictly worse coverage (Theorem 6).
    """

    name = "aggressive"

    def __init__(self, penalty: float):
        penalty = float(penalty)
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self.penalty = penalty

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        result = np.where(arr == 1, 1.0, -self.penalty)
        return result if arr.ndim else float(result)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AggressivePolicy(penalty={self.penalty!r})"


class CooperativeSharingPolicy(CongestionPolicy):
    """Cooperative sharing: ``C(l) = min(1, synergy / l)`` with ``synergy >= 1``.

    Each of ``l`` co-visitors receives more than its equal share (``C(l) >
    1/l``) whenever ``l > synergy`` does not yet bind, modelling benefits of
    joint exploitation (Section 1.1's cooperation discussion).
    """

    name = "cooperative-sharing"

    def __init__(self, synergy: float = 1.5):
        synergy = float(synergy)
        if synergy < 1.0:
            raise ValueError("synergy must be >= 1")
        self.synergy = synergy

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell, dtype=float)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        result = np.minimum(1.0, self.synergy / arr)
        return result if arr.ndim else float(result)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CooperativeSharingPolicy(synergy={self.synergy!r})"


class TabulatedPolicy(CongestionPolicy):
    """Congestion function defined by an explicit table ``[C(1), ..., C(L)]``.

    Occupancies beyond the table length reuse the last entry, so a table is a
    complete policy specification for any number of players.
    """

    name = "tabulated"

    def __init__(self, table: Sequence[float] | np.ndarray, *, validate: bool = True):
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("table must be a non-empty 1-D sequence")
        if validate:
            if not np.isclose(arr[0], 1.0):
                raise ValueError("table[0] = C(1) must equal 1")
            if not is_non_increasing(arr):
                raise ValueError("table must be non-increasing")
        self._table = arr.copy()
        self._table.setflags(write=False)

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        idx = np.minimum(arr - 1, self._table.size - 1)
        result = self._table[idx]
        return result if arr.ndim else float(result)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TabulatedPolicy({self._table.tolist()!r})"


class CallablePolicy(CongestionPolicy):
    """Adapter turning any scalar function ``C(l)`` into a :class:`CongestionPolicy`."""

    name = "callable"

    def __init__(self, func: Callable[[np.ndarray], np.ndarray], name: str = "callable"):
        self._func = func
        self.name = name

    def congestion(self, ell: np.ndarray | int) -> np.ndarray | float:
        arr = np.asarray(ell)
        if np.any(arr < 1):
            raise ValueError("occupancy count l must be >= 1")
        result = np.asarray(self._func(np.asarray(arr, dtype=float)), dtype=float)
        return result if np.asarray(ell).ndim else float(result)


#: Named congestion-policy factories shared by the experiments, the CLI and
#: the service (names are stable identifiers used in specs and reports).
POLICY_FACTORIES = {
    "exclusive": ExclusivePolicy,
    "sharing": SharingPolicy,
    "constant": ConstantPolicy,
    "aggressive": lambda: AggressivePolicy(0.5),
    "power-law": lambda: PowerLawPolicy(2.0),
}


def policy_from_name(name: str) -> CongestionPolicy:
    """Resolve a stable policy name into a fresh policy object."""
    try:
        return POLICY_FACTORIES[str(name)]()
    except KeyError:
        available = ", ".join(sorted(POLICY_FACTORIES))
        raise ValueError(f"unknown policy {name!r}; available: {available}") from None
