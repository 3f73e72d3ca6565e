"""Backend adapter functions: the seams between Array-API kernels and NumPy.

The batched kernel bodies are pure Array-API code, but a few operations are
genuinely outside the standard — ``einsum`` contractions, ``bincount``
histograms, RNG draws, error-state management and host I/O.  Each of those
lives here as a small adapter that takes the :class:`~repro.backend.registry.Backend`
handle explicitly, keeps the NumPy fast path bit-identical to the
pre-backend code, and provides a portable fallback for every other
namespace.  Nothing outside this module (and the host-side packing in
:mod:`repro.batch.padding`) is allowed to assume NumPy.

Transfer accounting
-------------------
Every host crossing funnels through :func:`to_numpy` / :func:`from_numpy`,
so "the pipeline never bounces through the host mid-kernel" is an
*assertable* property rather than a code-review promise: wrap a kernel call
in :func:`track_transfers` and check :attr:`TransferStats.mid_kernel`.
Kernels mark their documented boundary crossings — input staging, the
once-per-chunk draw placement, the final host materialisation — with
:func:`expected_transfer`; every crossing outside such a block counts as a
mid-kernel transfer.  Scalar synchronisations (``bool(xp.any(...))``,
``float(x)``) do not move arrays across the seam and are not counted.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.backend.registry import Backend, resolve_backend

__all__ = [
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


# ------------------------------------------------------------------ counting
@dataclass
class TransferStats:
    """Counts of host crossings observed inside a :func:`track_transfers` block.

    Attributes
    ----------
    to_host, to_device:
        **Mid-kernel** crossings — transfers that happened outside any
        :func:`expected_transfer` block.  The device-residency gate asserts
        both are zero for the simulation/search/dynamics pipelines.
    boundary_to_host, boundary_to_device:
        Crossings inside :func:`expected_transfer` blocks: documented
        staging, per-chunk draw placement and final result materialisation.
    """

    to_host: int = 0
    to_device: int = 0
    boundary_to_host: int = 0
    boundary_to_device: int = 0

    @property
    def mid_kernel(self) -> int:
        """Total mid-kernel crossings (the quantity gated to zero)."""
        return self.to_host + self.to_device

    @property
    def total(self) -> int:
        """All crossings, boundary and mid-kernel alike."""
        return self.mid_kernel + self.boundary_to_host + self.boundary_to_device

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for JSON artifacts (``BENCH_device.json``)."""
        return {
            "to_host": self.to_host,
            "to_device": self.to_device,
            "boundary_to_host": self.boundary_to_host,
            "boundary_to_device": self.boundary_to_device,
            "mid_kernel": self.mid_kernel,
            "total": self.total,
        }


#: Innermost-last stack of active collectors (per context, like use_backend).
_TRACKERS: ContextVar[tuple[TransferStats, ...]] = ContextVar(
    "repro_transfer_trackers", default=()
)
#: Nesting depth of expected_transfer blocks (> 0 = crossings are boundaries).
_BOUNDARY_DEPTH: ContextVar[int] = ContextVar("repro_transfer_boundary", default=0)


@contextlib.contextmanager
def track_transfers() -> Iterator[TransferStats]:
    """Collect host-crossing counts for the duration of a ``with`` block.

    Nests: every active collector sees every crossing, so an outer tracker
    around a whole benchmark and an inner one around a single kernel call
    both stay correct.  Contextvar-scoped, so threads and asyncio tasks do
    not observe each other's kernels.
    """
    stats = TransferStats()
    token = _TRACKERS.set(_TRACKERS.get() + (stats,))
    try:
        yield stats
    finally:
        _TRACKERS.reset(token)


@contextlib.contextmanager
def expected_transfer() -> Iterator[None]:
    """Mark enclosed crossings as documented kernel boundaries.

    Kernels wrap their input staging, once-per-chunk draw placement and
    final host materialisation in this context; anything crossing outside it
    is counted as a mid-kernel transfer by :func:`track_transfers`.
    """
    token = _BOUNDARY_DEPTH.set(_BOUNDARY_DEPTH.get() + 1)
    try:
        yield
    finally:
        _BOUNDARY_DEPTH.reset(token)


def _record_crossing(to_host: bool) -> None:
    trackers = _TRACKERS.get()
    if not trackers:
        return
    boundary = _BOUNDARY_DEPTH.get() > 0
    for stats in trackers:
        if to_host:
            if boundary:
                stats.boundary_to_host += 1
            else:
                stats.to_host += 1
        else:
            if boundary:
                stats.boundary_to_device += 1
            else:
                stats.to_device += 1


def is_native(backend: Backend, obj: Any) -> bool:
    """``True`` when ``obj`` is an array belonging to ``backend``'s namespace.

    Used by the public kernels to decide where their result should live:
    backend-native inputs get backend-native outputs, host inputs (lists,
    NumPy arrays under a non-NumPy backend, wrapper objects) get host NumPy
    outputs.
    """
    namespace = getattr(obj, "__array_namespace__", None)
    if namespace is not None:
        try:
            if namespace() is backend.xp:
                return True
        except TypeError:  # pragma: no cover - exotic __array_namespace__ signature
            pass
    if isinstance(obj, np.ndarray):
        return backend.is_numpy
    if isinstance(obj, np.generic) or not hasattr(obj, "ndim"):
        return False
    # torch tensors predate __array_namespace__; match on the array type's
    # root module (the registry names backends after it).
    root = type(obj).__module__.split(".")[0]
    return root == backend.name


def to_numpy(obj: Any) -> np.ndarray:
    """Materialise any backend's array on the host as a plain ``numpy.ndarray``.

    The NumPy path is a no-op; other namespaces are converted through
    ``__array__`` / the buffer protocol, DLPack, or a ``.cpu()`` transfer for
    device-resident tensors — in that order.  Non-NumPy inputs count as one
    device→host crossing for any active :func:`track_transfers` collector.
    """
    if isinstance(obj, np.ndarray):
        return obj
    if not isinstance(obj, np.generic):
        _record_crossing(to_host=True)
    try:
        return np.asarray(obj)
    except (TypeError, ValueError, RuntimeError):
        pass
    try:
        return np.from_dlpack(obj)
    except (TypeError, ValueError, RuntimeError, AttributeError):
        pass
    cpu = getattr(obj, "cpu", None)
    if callable(cpu):  # pragma: no cover - device backends only
        return np.asarray(cpu())
    raise TypeError(f"cannot convert {type(obj).__name__} to a numpy array")


def from_numpy(backend: Backend, array: Any, *, dtype: Any = None) -> Any:
    """Place a host array into ``backend``'s namespace (no-op for NumPy).

    Arrays land on ``backend.device`` when the handle pins one (the
    ``--device`` option); non-NumPy placements count as one host→device
    crossing for any active :func:`track_transfers` collector.
    """
    xp = backend.xp
    if backend.is_numpy:
        return xp.asarray(array) if dtype is None else xp.asarray(array, dtype=dtype)
    _record_crossing(to_host=False)
    kwargs: dict[str, Any] = {}
    if dtype is not None:
        kwargs["dtype"] = dtype
    if backend.device is not None:
        kwargs["device"] = backend.device
    return xp.asarray(array, **kwargs)


def asarray_float(backend: Backend, obj: Any) -> Any:
    """Coerce ``obj`` (wrapper, sequence or array) to a float array of ``backend``.

    Objects exposing ``as_array()`` (the :class:`~repro.core.strategy.Strategy`
    / :class:`~repro.core.values.SiteValues` duck type) are unwrapped first;
    arrays native to another namespace are routed through the host.
    """
    as_array = getattr(obj, "as_array", None)
    if callable(as_array):
        obj = as_array()
    if is_native(backend, obj):
        return backend.xp.astype(obj, backend.float_dtype) if _dtype_of(obj) != backend.float_dtype else obj
    if not isinstance(obj, np.ndarray) and hasattr(obj, "__array_namespace__"):
        obj = to_numpy(obj)
    return backend.xp.asarray(obj, dtype=backend.float_dtype)


def _dtype_of(obj: Any) -> Any:
    return getattr(obj, "dtype", None)


def take_along_axis(backend: Backend, array: Any, indices: Any, *, axis: int) -> Any:
    """``take_along_axis`` staying on-device wherever the namespace allows.

    Resolution order: the namespace's own ``take_along_axis`` (standard since
    2024.12), ``torch.take_along_dim`` for torch, and only then the host
    round-trip fallback for old standard-only namespaces.
    """
    xp = backend.xp
    fn = getattr(xp, "take_along_axis", None)
    if fn is not None:
        return fn(array, indices, axis=axis)
    native = _native_module(backend)
    if native is not None and hasattr(native, "take_along_dim"):
        return native.take_along_dim(array, indices, dim=axis)
    host = np.take_along_axis(to_numpy(array), to_numpy(indices), axis=axis)
    return from_numpy(backend, host)


def take_rows(backend: Backend, array: Any, rows: np.ndarray | None) -> Any:
    """Select a subset of leading-axis rows (``rows`` is a host index vector)."""
    if rows is None:
        return array
    if backend.is_numpy:
        return array[rows]
    return backend.xp.take(array, from_numpy(backend, rows), axis=0)


def scatter_rows(backend: Backend, dest: Any, rows: np.ndarray, src: Any) -> Any:
    """Write ``src`` into ``dest`` at the given leading-axis rows, returning the result.

    NumPy-style integer-array assignment where supported (in-place, returning
    ``dest`` itself).  Standard-only namespaces get a pure gather instead of
    the old full-array host round-trip: ``dest`` and ``src`` are concatenated
    along the leading axis and re-selected with a host-built index vector, so
    the array data never leaves the device — only the small ``(B,)`` index
    upload crosses, once.
    """
    if backend.supports_fancy_assignment:
        dest[rows] = src
        return dest
    xp = backend.xp
    n = int(dest.shape[0])
    index = np.arange(n, dtype=np.int64)
    index[np.asarray(rows, dtype=np.int64)] = n + np.arange(len(rows), dtype=np.int64)
    stacked = xp.concat([dest, src], axis=0)
    return xp.take(stacked, from_numpy(backend, index, dtype=backend.int_dtype), axis=0)


def _native_module(backend: Backend) -> Any | None:
    """The raw ``torch`` module behind its compat namespace, if any."""
    if backend.name != "torch":
        return None
    try:
        import importlib

        return importlib.import_module(backend.name)
    except Exception:  # pragma: no cover - backend resolved but module gone
        return None


def bincount(
    values: Any, *, minlength: int = 0, backend: Backend | None = None
) -> Any:
    """``bincount`` with an on-device path (no Array-API equivalent exists).

    Without ``backend`` (or on NumPy) this is the original host path: any
    backend's integer array is transferred, counted with ``numpy.bincount``
    and returned as a host ``int64`` vector.  With a non-NumPy ``backend``
    and a native ``values`` array, the histogram is computed **on the
    device** — ``torch.bincount`` where available, a
    one-hot reduction for standard-only namespaces — and returned
    device-resident (identical counts; callers materialise once at their
    result boundary).
    """
    if backend is not None and not backend.is_numpy and is_native(backend, values):
        xp = backend.xp
        flat = xp.reshape(values, (-1,))
        native = _native_module(backend)
        if native is not None:
            return native.bincount(flat, minlength=minlength)
        return _one_hot_counts(backend, flat[None, :], max(minlength, 1))[0, :]
    return np.bincount(to_numpy(values).ravel(), minlength=minlength)


def _one_hot_counts(backend: Backend, values: Any, n_bins: int) -> Any:
    """Row-wise counts via a one-hot comparison sum (standard-only namespaces).

    ``values`` is an ``(R, N)`` integer array on ``backend``; the result is
    the ``(R, n_bins)`` count matrix.  Memory is ``R * N * n_bins`` booleans,
    so this is the small-batch fallback — torch takes its native
    scatter-sum path instead.
    """
    xp = backend.xp
    bins = xp.arange(n_bins, dtype=backend.int_dtype)
    if backend.device is not None:  # pragma: no cover - device backends only
        bins = xp.asarray(bins, device=backend.device)
    hits = values[:, :, None] == bins[None, None, :]
    return xp.astype(xp.sum(xp.astype(hits, backend.int_dtype), axis=1), backend.int_dtype)


def batched_bincount(values: Any, n_bins: int, *, backend: Backend | None = None) -> Any:
    """Row-wise histogram of an integer matrix: one segment-sum ``bincount``.

    The batched Monte-Carlo kernels need one histogram **per row** of an
    ``(R, N)`` index matrix (per-trial occupancy counts, per-row occupancy
    histograms) — the operation the scalar engine used to run as a Python
    loop of ``np.bincount`` calls.  Offsetting row ``r`` by ``r * n_bins``
    turns the whole matrix into a single segment-sum, so every row is counted
    in one flat ``bincount`` pass.

    Parameters
    ----------
    values:
        Integer array of shape ``(R, N)``, every entry in ``[0, n_bins)``.
        Host arrays (or ``backend=None``) take the original host path;
        arrays native to a non-NumPy ``backend`` are counted **on the
        device** without any host round-trip.
    n_bins:
        Number of bins per row.
    backend:
        Optional backend handle enabling the device-native path:
        ``torch.Tensor.scatter_add_`` for torch, a one-hot reduction for
        other namespaces.  The host
        fallback is retained bit-identically for NumPy and host inputs.

    Returns
    -------
    ``(R, n_bins)`` ``int64`` count matrix — host NumPy on the host path,
    device-resident on the native path; ``out[r, v]`` is the number of
    entries of row ``r`` equal to ``v``.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if values.ndim != 2:
        raise ValueError("values must be a 2-D (R, N) integer matrix")
    if backend is not None and not backend.is_numpy and is_native(backend, values):
        native = _native_module(backend)
        if native is not None:
            rows = int(values.shape[0])
            out = native.zeros(
                (rows, n_bins), dtype=native.int64, device=values.device
            )
            return out.scatter_add_(1, values, native.ones_like(values))
        return _one_hot_counts(backend, values, n_bins)
    host = to_numpy(values)
    rows = host.shape[0]
    flat = host + n_bins * np.arange(rows, dtype=host.dtype)[:, None]
    counts = np.bincount(flat.ravel(), minlength=rows * n_bins)
    return counts.reshape(rows, n_bins)


def random_uniform(
    backend: Backend,
    rng: np.random.Generator,
    shape: int | Sequence[int],
) -> Any:
    """Uniform ``[0, 1)`` draws via the host NumPy generator, placed on ``backend``.

    RNG is deliberately *not* delegated to the backend: experiment
    reproducibility is keyed to ``numpy.random.SeedSequence`` streams, so
    every backend sees the same draws, transferred once per batch.
    """
    draws = rng.random(shape)
    if backend.is_numpy:
        return draws
    return from_numpy(backend, draws, dtype=backend.float_dtype)


def errstate_ignore(backend: Backend):
    """``numpy.errstate(divide/invalid ignore)`` on NumPy, a no-op elsewhere."""
    if backend.is_numpy:
        return np.errstate(divide="ignore", invalid="ignore")
    return contextlib.nullcontext()


def ensure_numpy(obj: Any) -> np.ndarray:
    """Host float array from a wrapper, sequence or any backend's array."""
    as_array = getattr(obj, "as_array", None)
    if callable(as_array):
        obj = as_array()
    if isinstance(obj, np.ndarray):
        return obj
    if hasattr(obj, "__array_namespace__"):
        return to_numpy(obj)
    return np.asarray(obj, dtype=float)


def resolve_namespace(spec: "Backend | str | None" = None) -> Any:
    """Shorthand: the raw ``xp`` namespace of :func:`resolve_backend`."""
    return resolve_backend(spec).xp
