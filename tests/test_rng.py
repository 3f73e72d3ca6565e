"""Tests for the unified RNG plumbing of ``repro.utils.rng``.

The seed-derivation policy is documented once in the module: root seed ->
per-task child ``SeedSequence`` streams keyed by spawn index (stable under
re-chunking) -> sequential, trial-major draws within a task.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators, spawn_seed_sequences


class TestAsGenerator:
    def test_passes_generators_through(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_coerces_seeds_deterministically(self):
        assert as_generator(5).random() == np.random.default_rng(5).random()

    def test_none_gives_fresh_entropy(self):
        assert as_generator(None).random() != as_generator(None).random()


class TestSpawnSeedSequences:
    def test_children_depend_only_on_root_and_index(self):
        # The documented re-chunking stability: asking for more children
        # never changes the streams of the earlier ones.
        few = spawn_seed_sequences(123, 3)
        many = spawn_seed_sequences(123, 10)
        for index in range(3):
            a = np.random.default_rng(few[index]).random(4)
            b = np.random.default_rng(many[index]).random(4)
            np.testing.assert_array_equal(a, b)

    def test_children_are_distinct_streams(self):
        children = spawn_seed_sequences(7, 4)
        draws = {float(np.random.default_rng(child).random()) for child in children}
        assert len(draws) == 4

    def test_accepts_seed_sequence_roots(self):
        root = np.random.SeedSequence(9)
        children = spawn_seed_sequences(root, 2)
        reference = spawn_seed_sequences(9, 2)
        assert np.random.default_rng(children[0]).random() == np.random.default_rng(
            reference[0]
        ).random()

    def test_seed_sequence_roots_are_not_consumed(self):
        # Repeated calls with the same SeedSequence return the same streams —
        # the root's mutable spawn counter is never advanced.
        root = np.random.SeedSequence(9)
        first = spawn_seed_sequences(root, 2)
        second = spawn_seed_sequences(root, 2)
        for a, b in zip(first, second):
            assert np.random.default_rng(a).random() == np.random.default_rng(b).random()

    def test_zero_children_and_validation(self):
        assert spawn_seed_sequences(0, 0) == []
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)


class TestSpawnGenerators:
    def test_deterministic_from_integer_seed(self):
        first = [g.random() for g in spawn_generators(3, 11)]
        second = [g.random() for g in spawn_generators(3, 11)]
        assert first == second

    def test_children_independent_of_parent_stream(self):
        parent = np.random.default_rng(2)
        children = spawn_generators(2, parent)
        before = parent.random()
        # Re-spawning from a fresh parent yields different children (the
        # parent's spawn counter advanced), but the parent stream itself is
        # untouched by spawning.
        assert before == np.random.default_rng(2).random()
        assert len(children) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            spawn_generators(0, 1)
