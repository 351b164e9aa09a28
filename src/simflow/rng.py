"""Seed handling and derived random streams.

Every pipeline derives one independent stream per task from a single root
seed, keyed by small integer paths. Streams are counter-based (Philox), so
a task's draws depend only on its seed and path, not on which other tasks
ran before it or how many there are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "as_generator"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for `seed` at the given derivation path.

    The same (seed, path) always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def as_generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a root seed or an existing generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return substream(int(seed_or_rng))
