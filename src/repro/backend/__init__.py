"""Pluggable Array-API backend layer for the batched kernels.

Every batched kernel in :mod:`repro.batch` (and the shared helpers in
:mod:`repro.utils`) expresses its body against an Array-API-compatible
namespace ``xp`` resolved through this package instead of importing NumPy at
module scope.  Swapping the backend swaps the array library the hot paths run
on — NumPy today, ``array_api_strict`` for conformance testing, ``torch``
for accelerators — without touching a single kernel.

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

from repro.utils.lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "Backend": ".registry",
    "BackendNotAvailableError": ".registry",
    "DEVICE_ENV_VAR": ".registry",
    "ENV_VAR": ".registry",
    "available_backends": ".registry",
    "backend_failures": ".registry",
    "get_backend": ".registry",
    "load_backend": ".registry",
    "register_backend": ".registry",
    "resolve_backend": ".registry",
    "set_default_backend": ".registry",
    "use_backend": ".registry",
    "with_device": ".registry",
    "TransferStats": ".adapters",
    "asarray_float": ".adapters",
    "batched_bincount": ".adapters",
    "bincount": ".adapters",
    "ensure_numpy": ".adapters",
    "errstate_ignore": ".adapters",
    "expected_transfer": ".adapters",
    "from_numpy": ".adapters",
    "is_native": ".adapters",
    "random_uniform": ".adapters",
    "resolve_namespace": ".adapters",
    "scatter_rows": ".adapters",
    "take_along_axis": ".adapters",
    "take_rows": ".adapters",
    "to_numpy": ".adapters",
    "track_transfers": ".adapters",
})
