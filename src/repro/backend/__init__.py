"""Pluggable Array-API backend layer for the batched kernels.

Every batched kernel in :mod:`repro.batch` (and the shared helpers in
:mod:`repro.utils`) expresses its body against an Array-API-compatible
namespace ``xp`` resolved through this package instead of importing NumPy at
module scope.  Swapping the backend swaps the array library the hot paths run
on — NumPy today, ``array_api_strict`` for conformance testing, ``torch`` /
``cupy`` for accelerators — without touching a single kernel.

Public API
----------
:func:`get_backend` / :func:`resolve_backend`
    The currently active :class:`Backend` handle, and the resolver every
    kernel funnels its ``backend=`` keyword through.
:func:`use_backend`
    Context manager activating a backend for a ``with`` block; nests and
    restores on exit.
:func:`set_default_backend`
    Process-wide default (overrides the ``REPRO_BACKEND`` environment
    variable; shadowed by any enclosing :func:`use_backend`).
:func:`available_backends` / :func:`register_backend`
    Detection and extension points of the registry.
:func:`to_numpy` / :func:`from_numpy`
    Host transfers at the public result boundary.

Conventions
-----------
* Results of the public batch APIs are returned **on the host** as NumPy
  arrays (grids, reports and JSON artifacts are host objects); intermediate
  arrays flowing between kernels stay backend-native.
* Randomness always comes from host ``numpy.random`` generators (seeds are
  part of the experiment contract) and is transferred per batch.
* Genuinely NumPy-only operations (``bincount``, error-state)
  are isolated in :mod:`repro.backend.adapters`.

Selection order: ``use_backend`` context > :func:`set_default_backend` >
``REPRO_BACKEND`` environment variable > ``numpy``.  The CLI exposes the same
choice as ``repro-dispersal <command> --backend NAME``.
"""

from repro.backend.adapters import (
    TransferStats,
    asarray_float,
    batched_bincount,
    bincount,
    ensure_numpy,
    errstate_ignore,
    expected_transfer,
    from_numpy,
    is_native,
    random_uniform,
    resolve_namespace,
    scatter_rows,
    take_along_axis,
    take_rows,
    to_numpy,
    track_transfers,
)
from repro.backend.registry import (
    DEVICE_ENV_VAR,
    ENV_VAR,
    Backend,
    BackendNotAvailableError,
    available_backends,
    backend_failures,
    get_backend,
    load_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
    with_device,
)

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
    "TransferStats",
    "asarray_float",
    "batched_bincount",
    "bincount",
    "ensure_numpy",
    "errstate_ignore",
    "expected_transfer",
    "from_numpy",
    "is_native",
    "random_uniform",
    "resolve_namespace",
    "scatter_rows",
    "take_along_axis",
    "take_rows",
    "to_numpy",
    "track_transfers",
]
