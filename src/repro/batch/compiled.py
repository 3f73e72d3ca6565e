"""Opt-in compiled dynamics stepping (``torch.compile`` graph cache).

:class:`~repro.batch.dynamics.DynamicsEngine` steps are small elementwise
pipelines repeated thousands of times per trajectory; on the torch backend
that makes them ideal ``torch.compile`` targets — kernel fusion removes the
per-op dispatch overhead that dominates narrow batches.  This module keeps
the compilation machinery out of the engine:

* :func:`compiled_step_for` returns a compiled step callable for an engine,
  or ``None`` whenever compilation is unavailable (non-torch backend, torch
  without ``torch.compile``, or a compiler probe failure).  The engine
  treats ``None`` as "eager", so ``compile=True`` is always safe to pass —
  the fallback is silent and the results are the eager results.
* Graphs are cached per **rule class** and **power-of-two width bucket**
  (:func:`width_bucket`): two engines stepping ``logit`` batches of width
  12 and 16 share one graph, while a width-40 batch compiles its own.
  Compilation runs with ``dynamic=True`` so batch size and exact width stay
  symbolic within a bucket; rule hyper-parameters are plain Python floats
  and are baked in by Dynamo's own guards.
* The compiled callable has the signature ``(rule, states, t) -> (new,
  payoffs)`` and simply dispatches to ``rule.step(states, t)`` — the
  full-batch step used by the engine's device-resident loop, which performs
  no host transfers and therefore traces without graph breaks (its
  congestion factor comes from the evaluator staged at engine construction,
  :func:`repro.batch.ifd.bernstein_evaluator`).

Agreement with eager stepping is elementwise-tolerance tested in
``tests/test_device.py`` over the full rule grid on ragged widths.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["compiled_step_for", "width_bucket", "clear_graph_cache"]

#: Compiled step callables keyed by (rule module, rule qualname, width bucket).
_GRAPH_CACHE: dict[tuple[str, str, int], Callable[..., Any]] = {}


def width_bucket(width: int) -> int:
    """Round a padded batch width up to the next power of two.

    Bucketing keeps the graph cache small: recompilation is triggered per
    doubling of the state width, not per distinct width.
    """
    w = int(width)
    if w < 1:
        return 1
    return 1 << (w - 1).bit_length()


def clear_graph_cache() -> None:
    """Drop every cached compiled step (mainly for tests)."""
    _GRAPH_CACHE.clear()


def _rule_step_dispatch(rule: Any, states: Any, t: int) -> Any:
    """The traced entry point: one full-batch step of ``rule``."""
    return rule.step(states, t)


def compiled_step_for(engine: Any) -> Callable[..., Any] | None:
    """Compiled ``(rule, states, t) -> (new, payoffs)`` step for ``engine``.

    Returns ``None`` — meaning "step eagerly" — unless the engine runs on
    the torch backend and ``torch.compile`` is importable and functional.
    """
    if engine.backend.name != "torch":
        return None
    try:
        import torch
    except Exception:  # pragma: no cover - torch vanished after resolution
        return None
    if not hasattr(torch, "compile"):
        return None
    rule_type = type(engine.rule)
    key = (
        rule_type.__module__,
        rule_type.__qualname__,
        width_bucket(engine.padded.width),
    )
    fn = _GRAPH_CACHE.get(key)
    if fn is None:
        try:
            fn = torch.compile(_rule_step_dispatch, dynamic=True)
        except Exception:  # pragma: no cover - compiler unavailable/broken
            return None
        _GRAPH_CACHE[key] = fn
    return fn
