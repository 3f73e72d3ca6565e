"""Backend registry: resolving Array-API namespaces for the batched kernels.

The batch layer (:mod:`repro.batch`) expresses every kernel body against an
Array-API-compatible namespace ``xp`` instead of importing NumPy at module
scope.  This module owns the mapping from a backend *name* to a resolved
:class:`Backend` handle:

* ``numpy`` — always available; NumPy >= 2.1 (the package's floor)
  implements the standard names (``cumulative_sum``, ``concat``,
  ``permute_dims``, ...) in its main namespace, so no wrapper is needed.
  An older NumPy is reported with the names it lacks;
* ``array_api_strict`` — auto-detected when importable;
* ``torch`` — auto-detected when importable *and* ``array_api_compat``
  resolves a standard-conforming namespace for it (torch's raw namespace
  predates the standard);
* anything else — registrable via :func:`register_backend`.

Detection never crashes: loaders map every import/conformance failure to
:class:`BackendNotAvailableError` with the reason, surfaced through
:func:`backend_failures`.

Selection order for the *active* backend:

1. the innermost :func:`use_backend` context, if any;
2. the process-wide override installed by :func:`set_default_backend`;
3. the ``REPRO_BACKEND`` environment variable;
4. ``numpy``.

The active backend is tracked with a :class:`contextvars.ContextVar`, so
``use_backend`` nests correctly and is safe under threads and asyncio.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "Backend",
    "BackendNotAvailableError",
    "DEVICE_ENV_VAR",
    "ENV_VAR",
    "available_backends",
    "backend_failures",
    "get_backend",
    "load_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
    "with_device",
]

#: Environment variable consulted when no explicit backend is active.
ENV_VAR = "REPRO_BACKEND"

#: Environment variable pinning the default device (``cpu`` / ``cuda`` / ``mps``).
DEVICE_ENV_VAR = "REPRO_DEVICE"

#: Standard functions a candidate namespace must expose before the registry
#: accepts it (the subset the batched kernels actually call).
_REQUIRED_FUNCTIONS = (
    "asarray",
    "astype",
    "arange",
    "broadcast_to",
    "clip",
    "concat",
    "cumulative_sum",
    "exp",
    "flip",
    "log",
    "maximum",
    "minimum",
    "permute_dims",
    "pow",
    "searchsorted",
    "stack",
    "sum",
    "take",
    "where",
    "zeros",
)


class BackendNotAvailableError(RuntimeError):
    """Raised when a requested backend cannot be imported or is incomplete."""


@dataclass(frozen=True)
class Backend:
    """A resolved array backend: namespace plus defaults and capability flags.

    Attributes
    ----------
    name:
        Registry name (``"numpy"``, ``"array_api_strict"``, ...).
    xp:
        The Array-API-compatible namespace itself; kernel bodies call
        ``xp.sum``, ``xp.cumulative_sum`` etc. on it and nothing else.
    float_dtype, int_dtype, bool_dtype:
        Default dtypes used when kernels materialise new arrays.
    device:
        Default device new arrays are placed on (``None`` = the namespace's
        own default, which is correct for every CPU backend).
    is_numpy:
        ``True`` only for the NumPy backend; adapters use it to keep the
        NumPy fast paths (``einsum``, fancy assignment) byte-identical to the
        pre-backend code.
    supports_einsum:
        Namespace has ``einsum`` (not part of the Array-API standard); the
        kernels that use it fall back to a broadcast-multiply-reduce when it
        is missing.
    supports_fancy_assignment:
        Namespace supports NumPy-style integer-array ``__setitem__``
        (scatter).  The :class:`repro.batch.dynamics.DynamicsEngine` only
        uses its active-row subset stepping when this holds and otherwise
        steps the full batch with ``where``-masked freezing.
    """

    name: str
    xp: Any
    float_dtype: Any
    int_dtype: Any
    bool_dtype: Any
    device: Any = None
    is_numpy: bool = False
    supports_einsum: bool = False
    supports_fancy_assignment: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Backend({self.name!r})"


def _check_namespace(name: str, xp: Any) -> None:
    missing = [fn for fn in _REQUIRED_FUNCTIONS if not hasattr(xp, fn)]
    if missing:
        raise BackendNotAvailableError(
            f"backend {name!r} is importable but its namespace lacks the "
            f"standard functions the kernels need: {', '.join(sorted(missing))}"
        )


def _load_numpy() -> Backend:
    import numpy as np

    _check_namespace("numpy", np)
    return Backend(
        name="numpy",
        xp=np,
        float_dtype=np.float64,
        int_dtype=np.int64,
        bool_dtype=np.bool_,
        is_numpy=True,
        supports_einsum=True,
        supports_fancy_assignment=True,
    )


def _load_array_api_strict() -> Backend:
    try:
        import array_api_strict as xp
    except Exception as error:  # pragma: no cover - environment dependent
        # Broken installs can raise more than ImportError; any failure just
        # means the backend is unavailable, never that the registry crashes.
        raise BackendNotAvailableError(
            f"array_api_strict is not importable ({error})"
        ) from error
    _check_namespace("array_api_strict", xp)
    return Backend(
        name="array_api_strict",
        xp=xp,
        float_dtype=xp.float64,
        int_dtype=xp.int64,
        bool_dtype=xp.bool,
    )


def _compat_namespace(module_name: str):
    """Resolve a namespace through ``array_api_compat`` when it is installed.

    The raw ``torch`` namespace predates the standard (``cumsum`` instead of
    ``cumulative_sum``, no ``astype`` function, ...), so the
    standard-conforming wrapper of ``array_api_compat`` is required for that
    backend; without the compat package it is reported unavailable with an
    actionable reason.
    """
    try:
        import importlib

        return importlib.import_module(f"array_api_compat.{module_name}")
    except Exception:
        return None


def _load_torch() -> Backend:  # pragma: no cover - exercised only with torch
    try:
        import torch
    except Exception as error:
        raise BackendNotAvailableError(f"torch is not importable ({error})") from error
    xp = _compat_namespace("torch")
    if xp is None:
        raise BackendNotAvailableError(
            "torch is installed but its raw namespace is not Array-API "
            "conforming; install array-api-compat to use the torch backend"
        )
    _check_namespace("torch", xp)
    return Backend(
        name="torch",
        xp=xp,
        float_dtype=torch.float64,
        int_dtype=torch.int64,
        bool_dtype=torch.bool,
        supports_einsum=True,
        supports_fancy_assignment=True,
    )


#: Built-in loaders in registry (and therefore fallback/auto-detect) order.
_LOADERS: dict[str, Callable[[], Backend]] = {
    "numpy": _load_numpy,
    "array_api_strict": _load_array_api_strict,
    "torch": _load_torch,
}

_CACHE: dict[str, Backend] = {}
_FAILURES: dict[str, str] = {}

#: Innermost-first stack of ``use_backend`` activations (per context).
_ACTIVE: ContextVar[tuple[Backend, ...]] = ContextVar("repro_backend_stack", default=())

#: Process-wide default installed by :func:`set_default_backend` (overrides
#: the environment variable but not an enclosing ``use_backend``).
_DEFAULT_OVERRIDE: list[Backend | None] = [None]


def register_backend(
    name: str, loader: Callable[[], Backend], *, overwrite: bool = False
) -> None:
    """Register (or replace) a backend loader under ``name``.

    ``loader`` is called lazily on first resolution and must return a
    :class:`Backend` or raise :class:`BackendNotAvailableError`.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _LOADERS and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _LOADERS[name] = loader
    _CACHE.pop(name, None)
    _FAILURES.pop(name, None)


def load_backend(name: str) -> Backend:
    """Resolve ``name`` into a cached :class:`Backend` (raising if unavailable)."""
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    loader = _LOADERS.get(name)
    if loader is None:
        raise BackendNotAvailableError(
            f"unknown backend {name!r}; registered: {', '.join(_LOADERS)}"
        )
    try:
        backend = loader()
    except BackendNotAvailableError as error:
        _FAILURES[name] = str(error)
        raise
    _CACHE[name] = backend
    _FAILURES.pop(name, None)
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend that resolves on this machine.

    The numpy backend is always first; the rest follow registration order,
    which is the fallback order the docs promise.
    """
    names = []
    for name in _LOADERS:
        try:
            load_backend(name)
        except BackendNotAvailableError:
            continue
        names.append(name)
    return tuple(names)


def backend_failures() -> dict[str, str]:
    """Why each unavailable backend failed to load (for diagnostics)."""
    for name in _LOADERS:
        if name not in _CACHE and name not in _FAILURES:
            try:
                load_backend(name)
            except BackendNotAvailableError:
                pass
    return dict(_FAILURES)


def with_device(backend: Backend, device: "str | None") -> Backend:
    """Pin a :class:`Backend` handle to a device (``cpu`` / ``cuda`` / ``mps``).

    ``None`` (and ``"default"``) leave the handle untouched.  Host
    namespaces (NumPy, ``array_api_strict``) accept only ``cpu``; the
    torch backend resolves any of the three, raising
    :class:`BackendNotAvailableError` with the reason when the requested
    accelerator is absent — callers (tests, CLI validation) skip-guard on
    that error.  On ``mps`` the default float dtype drops to ``float32``
    (Apple silicon has no native ``float64``).
    """
    if device is None:
        return backend
    name = str(device).strip().lower()
    if name in ("", "default"):
        return backend
    if backend.name == "torch":
        import torch

        if name == "cpu":
            return dataclasses.replace(backend, device=torch.device("cpu"))
        if name == "cuda":
            if not torch.cuda.is_available():
                raise BackendNotAvailableError(
                    "device 'cuda' requested but torch.cuda.is_available() is False"
                )
            return dataclasses.replace(backend, device=torch.device("cuda"))
        if name == "mps":
            mps = getattr(torch.backends, "mps", None)
            if mps is None or not mps.is_available():
                raise BackendNotAvailableError(
                    "device 'mps' requested but the MPS backend is unavailable"
                )
            return dataclasses.replace(
                backend, device=torch.device("mps"), float_dtype=torch.float32
            )
        raise BackendNotAvailableError(
            f"unknown device {device!r} for the torch backend (cpu/cuda/mps)"
        )
    if name == "cpu":
        return backend
    raise BackendNotAvailableError(
        f"backend {backend.name!r} runs on the host; device {device!r} is not supported"
    )


def _default_backend() -> Backend:
    override = _DEFAULT_OVERRIDE[0]
    if override is not None:
        return override
    name = os.environ.get(ENV_VAR, "").strip()
    backend = load_backend(name) if name else load_backend("numpy")
    device = os.environ.get(DEVICE_ENV_VAR, "").strip()
    return with_device(backend, device) if device else backend


def get_backend() -> Backend:
    """The currently active backend (context > process default > env > numpy)."""
    stack = _ACTIVE.get()
    if stack:
        return stack[-1]
    return _default_backend()


def resolve_backend(
    spec: "Backend | str | None" = None, *, device: "str | None" = None
) -> Backend:
    """Resolve a user-facing backend argument.

    ``None`` means "whatever is active" (:func:`get_backend`), a string is a
    registry lookup, and a :class:`Backend` passes through unchanged.  Every
    batched kernel funnels its ``backend=`` keyword through here.  ``device``
    optionally pins the handle via :func:`with_device`.
    """
    if spec is None:
        backend = get_backend()
    elif isinstance(spec, Backend):
        backend = spec
    else:
        backend = load_backend(spec)
    return with_device(backend, device)


def set_default_backend(
    spec: "Backend | str | None", *, device: "str | None" = None
) -> None:
    """Install (or with ``None`` clear) the process-wide default backend.

    Unlike :func:`use_backend` this is not scoped; it overrides the
    ``REPRO_BACKEND`` environment variable for the rest of the process but is
    still shadowed by any enclosing ``use_backend`` context.
    """
    _DEFAULT_OVERRIDE[0] = None if spec is None else resolve_backend(spec, device=device)


@contextlib.contextmanager
def use_backend(spec: "Backend | str", *, device: "str | None" = None) -> Iterator[Backend]:
    """Activate a backend for the duration of a ``with`` block.

    Nests: the innermost activation wins, and the previous active backend is
    restored on exit even when the body raises.

    >>> from repro.backend import use_backend, get_backend
    >>> with use_backend("numpy") as backend:
    ...     assert get_backend() is backend
    """
    backend = resolve_backend(spec, device=device)
    stack = _ACTIVE.get()
    token = _ACTIVE.set(stack + (backend,))
    try:
        yield backend
    finally:
        _ACTIVE.reset(token)
