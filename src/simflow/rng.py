"""Seed handling and derived random streams.

Every pipeline derives one independent stream per task from a single root
seed, keyed by small integer paths. Streams are counter-based (Philox), so
a task's draws depend only on its seed and path, not on which other tasks
ran before it or how many there are.

Every loop over replications or chunks opens its streams here: chunk c of a
loop draws from (seed, 0, c), through `map_chunks`, which runs the chunks
on a thread pool, and row i of a block of replications from (seed, 0, i),
through `row_blocks`, which derives a block's stream keys in one vectorized
pass. This is the only module that touches numpy.random.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["substream", "as_generator", "usable_cpus", "map_chunks", "row_blocks",
           "row_streams", "RowStreams", "cell_seed"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for `seed` at the given derivation path.

    The same (seed, path) always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def as_generator(seed_or_rng):
    """Accept a root seed, an existing generator or a RowStreams block."""
    if isinstance(seed_or_rng, (np.random.Generator, RowStreams)):
        return seed_or_rng
    return substream(int(seed_or_rng))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_chunks(fn: Callable[[int, int, int, np.random.Generator], object], seed: int, s: int,
               size: int) -> list:
    """[fn(c, lo, hi, stream) for every chunk c], the chunks [lo, hi) of size
    rows covering 0..s-1 in order; chunk c draws from (seed, 0, c), whatever
    s is.

    The chunks run on min(#chunks, usable_cpus()) threads, each in a copy of
    the caller's context (so the caller's np.errstate holds in it) and on
    the stream it opens itself, so fn may touch only its own chunk's rows.
    Results are read in chunk order, so the error raised is that of the
    lowest-index chunk that raised: once its result is read, the chunks not
    yet started are cancelled, and the started ones end. Chunks start in
    index order, so every chunk below a failing one has run: the results and
    the error are those of a loop over the chunks, whatever the thread count.
    """
    count = -(-s // size)

    def task(c: int):
        lo = c * size
        return fn(c, lo, min(lo + size, s), substream(seed, 0, c))

    workers = min(count, usable_cpus())
    if workers <= 1:
        return [task(c) for c in range(count)]
    # loaded where a pool runs: it imports logging, which start-up need not
    from concurrent.futures import ThreadPoolExecutor

    # a copy per chunk, as two threads cannot enter one context
    contexts = [contextvars.copy_context() for _ in range(count)]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(contextvars.Context.run, contexts, [task] * count, range(count)))


def row_blocks(seed: int, s: int, size: int) -> Iterator[tuple[int, int, RowStreams]]:
    """(lo, hi, row_streams(seed, lo, hi)) for the blocks [lo, hi) of size
    rows that cover 0..s-1 in order."""
    for lo in range(0, s, size):
        hi = min(lo + size, s)
        yield lo, hi, row_streams(seed, lo, hi)


def row_streams(seed: int, lo: int, hi: int) -> RowStreams:
    """The streams (seed, 0, i) for 0 <= lo <= i < hi <= 2**64, each the
    one substream(seed, 0, i) opens, with their keys derived in one pass."""
    head = _words(int(seed))
    head += [0] * (_POOL - len(head)) + [0]     # SeedSequence pads the seed, then path 0
    return RowStreams([np.random.Generator(np.random.Philox(_Key(key), counter=_COUNTER_ZERO))
                       for key in _index_keys(head, int(lo), int(hi))])


class RowStreams:
    """k generators that draw as one: row i of every draw comes from
    generator i, so k rows drawn stage by stage call each generator in the
    order a row-by-row loop would.

    A draw's size must have k as its first axis. A parameter given as an
    array with k rows hands each generator its own row, as a scalar when
    the row holds one value (numpy draws with an array parameter far more
    slowly, and gives the same values). streams[i] is generator i itself.
    """

    def __init__(self, generators):
        self._gens = list(generators)

    def __len__(self) -> int:
        return len(self._gens)

    def __getitem__(self, i: int) -> np.random.Generator:
        return self._gens[i]

    def _size(self, size) -> tuple:
        k = len(self._gens)
        size = tuple(size) if isinstance(size, (tuple, list)) else (size,)
        if not size or size[0] != k:
            raise ValueError(f"a draw on {k} row streams needs {k} rows, got size {size}")
        return _addressable(size)

    def _fill(self, method: str, size) -> np.ndarray:
        """A draw without parameters, each generator filling its row in
        place: the values of its own draw of size[1:], without stacking."""
        size = self._size(size)
        out = np.empty((size[0], math.prod(size[1:])))
        for gen, row in zip(self._gens, out):
            getattr(gen, method)(out=row)
        return out.reshape(size)

    def _draw(self, method: str, size, *params) -> np.ndarray:
        k = len(self._gens)
        size = self._size(size)
        columns = []
        for p in params:
            if np.ndim(p) == 0:
                columns.append([p] * k)
                continue
            p = np.asarray(p)
            if p.shape[0] != k:
                raise ValueError(f"a parameter of a draw on {k} row streams needs {k} rows, "
                                 f"got shape {p.shape}")
            columns.append(p.reshape(k).tolist() if p.size == k else list(p))
        rest = size[1:]
        return np.stack([getattr(gen, method)(*args, size=rest)
                         for gen, *args in zip(self._gens, *columns)])

    def standard_normal(self, size=None) -> np.ndarray:
        return self._fill("standard_normal", size)

    def standard_gamma(self, shape, size=None) -> np.ndarray:
        return self._draw("standard_gamma", size, shape)

    def beta(self, a, b, size=None) -> np.ndarray:
        return self._draw("beta", size, a, b)

    def binomial(self, n, p, size=None) -> np.ndarray:
        return self._draw("binomial", size, n, p)

    def poisson(self, lam=1.0, size=None) -> np.ndarray:
        return self._draw("poisson", size, lam)

    def random(self, size=None) -> np.ndarray:
        return self._fill("random", size)


# SeedSequence's hash (numpy/random/bit_generator.pyx), run over one column
# of 32-bit entropy words per stream
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# Philox's default counter, given as an array: parsing the int 0 costs more
_COUNTER_ZERO = np.zeros(4, dtype=np.uint64)


def _words(value: int) -> list[int]:
    """value as SeedSequence reads an int: little-endian 32-bit words, 0 as one."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _index_keys(head: list[int], lo: int, hi: int) -> np.ndarray:
    """The Philox keys SeedSequence derives from entropy head + words(i),
    for i in [lo, hi); a (hi - lo, 2) uint64 array."""
    index = np.arange(lo, hi, dtype=np.uint64)
    wide = index > _MASK32                      # an index past 2**32 - 1 takes two words
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    for rows, n_words in ((~wide, 1), (wide, 2)):
        if rows.any():
            tail = [(index[rows] >> np.uint64(32 * j)) & np.uint64(_MASK32)
                    for j in range(n_words)]
            keys[rows] = _seed_sequence_keys(head, [t.astype(np.uint32) for t in tail])
    return keys


def _seed_sequence_keys(head: list[int], tail: list[np.ndarray]) -> np.ndarray:
    """generate_state(2, uint64) of SeedSequence pools mixed from the shared
    words head, then one word per row from each column of tail."""
    k = tail[0].shape[0]
    entropy = [np.full(k, w, dtype=np.uint32) for w in head] + tail
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ (out >> _SHIFT)

    # head has at least _POOL words, so the pool starts from entropy words
    pool = [hashmix(entropy[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word = word * np.uint32(const)
        state.append((word ^ (word >> _SHIFT)).astype(np.uint64))
    return np.stack([state[0] | (state[1] << np.uint64(32)),
                     state[2] | (state[3] << np.uint64(32))], axis=1)


class _Key(ISeedSequence):
    """A seed sequence that only hands Philox its derived key."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("this seed sequence only holds a Philox key")
        return self.key


def _addressable(size: tuple) -> tuple:
    """size, unless a draw of that many 8-byte values needs more bytes than
    an intp holds: numpy refuses such a size with a ValueError, so it is
    refused here first, with a MemoryError (a runtime error, exit 3)."""
    if math.prod(size) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a draw of size {size} needs more memory than numpy can address")
    return size


def cell_seed(seed: int, index: int) -> int:
    """The root seed of cell index of a grid or model list run from seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(9, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))
