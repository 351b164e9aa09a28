"""Stream layout: chunked index streams and the threads that run them, row
streams of replication blocks, and numpy.random used only by rng."""

import ast
import contextvars
import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simflow
from simflow import rng
from simflow.errors import RetryError
from simflow.rng import RowStreams, map_chunks, row_blocks, row_streams, substream


def _chunk_calls(seed, s, size):
    """What map_chunks hands its function, in the order of the results."""
    return map_chunks(lambda c, lo, hi, rng: (c, lo, hi, rng.random(3)), seed, s, size)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), s=st.integers(0, 60), size=st.integers(1, 25),
       extra=st.integers(1, 40), workers=st.integers(1, 4))
def test_map_chunks_tile_in_order_on_index_streams(seed, s, size, extra, workers):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "usable_cpus", lambda: workers)
        got = _chunk_calls(seed, s, size)
        longer = _chunk_calls(seed, s + extra, size)
    assert [c for c, *_ in got] == list(range(len(got)))
    assert [i for _, lo, hi, _ in got for i in range(lo, hi)] == list(range(s))
    assert all(hi - lo == size for _, lo, hi, _ in got[:-1])
    assert all(0 < hi - lo <= size for _, lo, hi, _ in got)
    # a longer loop opens the same chunks, at the same offsets, on the same streams
    for (c, lo, _, draws), (c2, lo2, _, draws2) in zip(got, longer):
        expected = substream(seed, 0, c).random(3)
        assert (c2, lo2) == (c, lo)
        np.testing.assert_array_equal(draws, expected)
        np.testing.assert_array_equal(draws2, expected)


def test_map_chunks_runs_on_the_usable_cpus(monkeypatch):
    threads = set()
    monkeypatch.setattr(rng, "usable_cpus", lambda: 3)
    barrier = threading.Barrier(3, timeout=10)

    def chunk(c, lo, hi, stream):
        threads.add(threading.get_ident())
        barrier.wait()          # three chunks run at once, or this times out
        return c

    assert map_chunks(chunk, 0, 30, 10) == [0, 1, 2]
    assert len(threads) == 3
    # one chunk runs on the caller's thread
    assert map_chunks(lambda c, lo, hi, stream: threading.get_ident(), 0, 10, 10) == [
        threading.get_ident()]


def test_map_chunks_fill_one_array_under_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond: each chunk
    # writes its own rows of one array, and no row is lost or written twice
    monkeypatch.setattr(rng, "usable_cpus", lambda: 8)
    s, size = 5000, 7
    out = np.zeros(s)

    def chunk(c, lo, hi, stream):
        out[lo:hi] += stream.random(hi - lo)
        return hi - lo

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = map_chunks(chunk, 3, s, size)
    finally:
        sys.setswitchinterval(interval)
    assert sum(counts) == s
    want = np.concatenate([substream(3, 0, c).random(min(size, s - lo))
                           for c, lo in enumerate(range(0, s, size))])
    np.testing.assert_array_equal(out, want)


def test_usable_cpus_is_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert rng.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rng.usable_cpus() == (os.cpu_count() or 1)


_LABEL = contextvars.ContextVar("label", default="unset")


def test_map_chunks_run_in_the_callers_context(monkeypatch):
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)

    def chunk(c, lo, hi, stream):
        np.float64(1.0) / np.zeros(hi - lo)   # warns unless the caller's errstate holds
        _LABEL.set(f"chunk {c}")              # stays in the chunk's own copy
        return _LABEL.get(), np.geterr()["divide"]

    token = _LABEL.set("caller")
    try:
        # the filters are the process's: a warning on a worker raises there
        with warnings.catch_warnings(), np.errstate(divide="ignore"):
            warnings.simplefilter("error")
            got = map_chunks(chunk, 0, 8, 2)
        assert _LABEL.get() == "caller"
    finally:
        _LABEL.reset(token)
    assert got == [(f"chunk {c}", "ignore") for c in range(4)]


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt, RetryError])
def test_a_failing_chunk_cancels_the_chunks_not_started(monkeypatch, error):
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)
    started = []

    def chunk(c, lo, hi, stream):
        started.append(c)
        if c in (0, 3):
            raise error(f"chunk {c}")
        time.sleep(0.05)

    with pytest.raises(error, match="chunk 0"):
        map_chunks(chunk, 0, 100, 1)
    assert 0 in started and len(started) < 20


def test_the_lowest_failing_chunk_raises_whatever_fails_first(monkeypatch):
    monkeypatch.setattr(rng, "usable_cpus", lambda: 4)

    def chunk(c, lo, hi, stream):
        if c == 1:
            time.sleep(0.2)     # chunk 2 fails first
        if c in (1, 2):
            raise RetryError(f"chunk {c}")

    with pytest.raises(RetryError, match="chunk 1"):
        map_chunks(chunk, 0, 40, 10)


# seeds of one to six 32-bit words, and indices of one and two words
_SEEDS = st.one_of(st.integers(0, 2**32), st.integers(0, 2**192))
_WORD_EDGES = st.sampled_from([2**32 - 3, 2**32 - 1, 2**33 - 2, 2**63 - 4])


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, lo=st.one_of(st.integers(0, 5000), _WORD_EDGES), count=st.integers(1, 6))
def test_row_streams_equal_substreams(seed, lo, count):
    rows = row_streams(seed, lo, lo + count)
    assert len(rows) == count
    for j in range(count):
        np.testing.assert_array_equal(rows[j].random(5), substream(seed, 0, lo + j).random(5))


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, s=st.integers(0, 40), size=st.integers(1, 12))
def test_row_blocks_tile_in_order_on_index_streams(seed, s, size):
    got = list(row_blocks(seed, s, size))
    assert [i for lo, hi, _ in got for i in range(lo, hi)] == list(range(s))
    assert all(hi - lo == size for lo, hi, _ in got[:-1])
    for lo, hi, rows in got:
        assert len(rows) == hi - lo
        # the first and last row of each block: the block edges
        for i in {lo, hi - 1}:
            np.testing.assert_array_equal(rows[i - lo].standard_normal(3),
                                          substream(seed, 0, i).standard_normal(3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64), k=st.integers(1, 5), n=st.integers(0, 4),
       column=st.booleans())
def test_row_streams_draw_each_row_from_its_stream(seed, k, n, column):
    """A draw of k rows stacks each generator's own draw; a (k, 1) column
    hands each generator its scalar. n = 0 draws one value per row, and
    (k, 0, 2) none."""
    p = np.linspace(0.1, 0.9, k)[:, None] if column else 0.35
    shape = np.linspace(0.5, 4.0, k)[:, None] if column else 2.5
    for method, params in [("standard_normal", ()), ("standard_gamma", (shape,)),
                           ("beta", (shape, p)), ("binomial", (7, p)), ("poisson", (shape,)),
                           ("random", ())]:
        got = getattr(row_streams(seed, 0, k), method)(*params, size=(k, n) if n else k)
        assert got.shape == ((k, n) if n else (k,))
        for i in range(k):
            row = [q[i, 0] if np.ndim(q) else q for q in params]
            want = getattr(substream(seed, 0, i), method)(*row, size=n if n else 1)
            np.testing.assert_array_equal(got[i], want if n else want[0])
    # the draws without parameters, each row of more than one axis (RWM's
    # (k, chains, d) proposal steps)
    for method in ("standard_normal", "random"):
        got = getattr(row_streams(seed, 0, k), method)((k, n, 2))
        for i in range(k):
            np.testing.assert_array_equal(got[i], getattr(substream(seed, 0, i), method)((n, 2)))


def test_row_streams_refuse_draws_of_another_row_count():
    rows = row_streams(0, 0, 3)
    for size in (2, (4, 5), None, ()):
        with pytest.raises(ValueError, match="3 rows"):
            rows.standard_normal(size)
    with pytest.raises(ValueError, match="3 rows"):
        rows.binomial(5, np.full((2, 1), 0.5), size=(3, 4))
    assert isinstance(rows, RowStreams)


def test_row_stream_seed_sequence_only_holds_a_key():
    seq = row_streams(7, 0, 1)[0].bit_generator.seed_seq
    with pytest.raises(ValueError, match="Philox key"):
        seq.generate_state(4)
    with pytest.raises(ValueError, match="Philox key"):
        seq.generate_state(2, np.uint32)
    with pytest.raises(AttributeError):
        seq.spawn(1)


def _numpy_random_uses(source: str) -> list[int]:
    """Lines of source that reach numpy.random: np.random or numpy.random
    attributes, and imports of numpy.random."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_rng_module_touches_numpy_random():
    # the guard sees code, not strings such as the CLI's seed plans
    assert _numpy_random_uses("import numpy as np\nnp.random.SeedSequence(1)\n") == [2]
    assert _numpy_random_uses("from numpy import random\n") == [1]
    assert _numpy_random_uses("plan = 'np.random, numpy.random'\n") == []
    package = Path(simflow.__file__).parent
    offenders = {path.name: _numpy_random_uses(path.read_text())
                 for path in sorted(package.glob("*.py")) if path.name != "rng.py"}
    assert len(offenders) > 10
    assert {name: lines for name, lines in offenders.items() if lines} == {}
