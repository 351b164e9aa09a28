"""Seed handling and derived random streams.

Every pipeline derives one independent stream per task from a single root
seed, keyed by small integer paths. Streams are counter-based (Philox), so
a task's draws depend only on its seed and path, not on which other tasks
ran before it or how many there are.

Every loop over replications or chunks opens its streams through `chunks`:
chunk c of a loop draws from (seed, 0, c). This is the only module that
touches numpy.random.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["substream", "as_generator", "chunks", "cell_seed"]


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


def chunks(seed: int, s: int, size: int) -> Iterator[tuple[int, int, int, np.random.Generator]]:
    """(c, lo, hi, stream) for the chunks [lo, hi) of size rows that cover
    0..s-1 in order; chunk c draws from (seed, 0, c), whatever s is."""
    for c, lo in enumerate(range(0, s, size)):
        yield c, lo, min(lo + size, s), substream(seed, 0, c)


def cell_seed(seed: int, index: int) -> int:
    """The root seed of cell index of a grid or model list run from seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(9, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))
