"""One home for random-number plumbing: generators, spawning, seed policy.

Every stochastic entry point of the library, the experiment runner's
per-task ``SeedSequence`` spawning included, funnels its randomness through
this module, so the seed-derivation policy is written down exactly once:

**Seed-derivation policy.**

1. A *root seed* (one integer, the ``--seed`` flag / ``ExperimentSpec.seed``)
   identifies a whole experiment.  ``numpy.random.SeedSequence(root)`` is its
   entropy source.
2. One child ``SeedSequence`` is spawned **per task / instance** with
   :func:`spawn_seed_sequences`.  NumPy keys each child by its spawn index
   alone, so child ``i`` is the same stream whether 3 or 300 children are
   spawned — task randomness depends only on ``(root seed, grid index)``,
   never on scheduling, worker count or how the grid was chunked.
3. Within a task, draws are consumed **sequentially** from the task's
   generator.  Batched Monte-Carlo kernels that split a big draw into memory
   chunks (``max_chunk_draws``) lay the draw out trial-major — uniform blocks
   of shape ``(n_chunk_trials, B, k)`` — so concatenating chunk draws along
   the trial axis reproduces the unchunked stream bit for bit; the sampled
   outcomes do not depend on the chunk size (accumulated floating-point
   statistics agree to summation rounding).

Nothing here imports the rest of the library, so ``core``, ``simulation``,
``batch`` and ``experiments`` all route through one implementation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "spawn_generators", "spawn_seed_sequences"]


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce a seed / generator / ``None`` into a ``numpy.random.Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_seed_sequences(
    seed: int | np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """Derive ``n`` independent child ``SeedSequence`` objects from a root seed.

    Child ``i`` depends only on ``(seed, i)`` — NumPy's spawning mechanism
    keys children by their spawn index — so the children are stable under
    re-chunking: asking for 4 children and later for 40 yields the same first
    four streams.  A ``SeedSequence`` root is re-rooted on its
    ``(entropy, spawn_key)`` identity rather than spawned in place, so the
    guarantee holds across repeated calls too (NumPy's own ``spawn`` would
    continue from the object's mutable spawn counter).  The experiment
    runner derives its per-task generators this way, and re-running a subset
    of a grid reproduces exactly the rows the full run produced.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    if isinstance(seed, np.random.SeedSequence):
        root = np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    else:
        root = np.random.SeedSequence(int(seed))
    return root.spawn(n)


def spawn_generators(
    n: int, rng: np.random.Generator | int | None = None
) -> list[np.random.Generator]:
    """Create ``n`` independent generators derived from one seed.

    Parameters
    ----------
    n:
        Number of child generators (``>= 1``).
    rng:
        Base seed or generator.  When a generator is supplied its bit
        generator's seed sequence is spawned, so children are independent of
        each other *and* of the parent stream.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(rng, np.random.Generator):
        seed_seq = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
        children = seed_seq.spawn(n)
    elif rng is None:
        # Fresh OS entropy, matching ``default_rng(None)``.
        children = np.random.SeedSequence().spawn(n)
    else:
        children = spawn_seed_sequences(int(rng), n)
    return [np.random.default_rng(child) for child in children]
