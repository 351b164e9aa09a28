"""Stream layout: chunked index streams, and numpy.random used only by rng."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import simflow
from simflow.rng import chunks, substream


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), s=st.integers(0, 60), size=st.integers(1, 25),
       extra=st.integers(1, 40))
def test_chunks_tile_in_order_on_index_streams(seed, s, size, extra):
    got = list(chunks(seed, s, size))
    assert [c for c, *_ in got] == list(range(len(got)))
    assert [i for _, lo, hi, _ in got for i in range(lo, hi)] == list(range(s))
    assert all(hi - lo == size for _, lo, hi, _ in got[:-1])
    assert all(0 < hi - lo <= size for _, lo, hi, _ in got)
    # a longer loop opens the same chunks, at the same offsets, on the same streams
    longer = list(chunks(seed, s + extra, size))
    for (c, lo, _, rng), (c2, lo2, _, rng2) in zip(got, longer):
        expected = substream(seed, 0, c).random(3)
        assert (c2, lo2) == (c, lo)
        np.testing.assert_array_equal(rng.random(3), expected)
        np.testing.assert_array_equal(rng2.random(3), expected)


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
