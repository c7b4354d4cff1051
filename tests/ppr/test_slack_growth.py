"""How the three slack-row stores grow their backing arrays.

``_Adjacency`` (CSR rows), ``WalkIndex`` (terminal rows) and the
edge→walk map's arena / posting rows (``incremental._reserve``) all
append into one flat array and reallocate it when the tail runs out.
Doubling pinned a second copy of the whole store the first time a
single row outgrew a packed build (the old array stays alive in the
snapshot being replaced); they now add an eighth — still geometric, so
the number of reallocations over a long insert stream stays
logarithmic, and the array never runs far ahead of what it holds.
"""

import math

import numpy as np
import pytest

from repro.graph import barabasi_albert_graph
from repro.ppr.csr import CSRView, _Adjacency, growth
from repro.ppr.incremental import _reserve
from repro.ppr.random_walk import WalkIndex

INSERTS = 20_000


def adjacency_stream():
    view = CSRView(barabasi_albert_graph(3000, attach=3, seed=1))
    rows = _Adjacency(view.indptr, view.indices, view.out_deg)
    rng = np.random.default_rng(0)
    yield rows.data, rows.tail
    for i in rng.integers(0, view.n, INSERTS):
        rows.insert(int(i), 0)
        yield rows.data, rows.tail


def walk_row_stream():
    view = CSRView(barabasi_albert_graph(3000, attach=3, seed=2))
    index = WalkIndex(view, 0.2, 1.5, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    yield index.terminals, index._tail
    for i in rng.integers(0, view.n, INSERTS):
        # one more stored walk in row i, as a degree-raising insert does
        if index.counts[i] == index.caps[i]:
            index._relocate_row(int(i), int(index.counts[i]) + 1)
        index.counts[i] += 1
        yield index.terminals, index._tail


def arena_stream():
    data, used = np.zeros(10_000, dtype=np.int32), 10_000
    yield data, used
    for _ in range(INSERTS):
        data = _reserve(data, used, 7)  # one repaired walk's new path
        used += 7
        yield data, used


@pytest.mark.parametrize(
    "stream", [adjacency_stream, walk_row_stream, arena_stream]
)
def test_backing_array_grows_by_an_eighth(stream):
    states = stream()
    first, _ = next(states)
    initial, data, reallocations, steps = first.size, first, 0, []
    for array, used in states:
        if array is not data:
            reallocations += 1
            steps.append(array.size - data.size)
            data = array
        assert used <= array.size
    # geometric: O(log) reallocations, each at least an eighth
    sizes_before = np.cumsum([initial] + steps[:-1])
    assert all(step >= size // 8 for step, size in zip(steps, sizes_before))
    assert 1 <= reallocations <= math.log(data.size / initial, 9 / 8) + 1
    # and never far ahead of the data: doubling left up to 2 x
    assert data.size <= used * 9 / 8 + 64
    # the first reallocation of a packed store is what every worker
    # pays at its first update: an eighth, not a second copy
    assert steps[0] <= initial // 8 + 64


def test_growth_covers_the_request():
    assert growth(0, 1) == 64
    assert growth(8_000, 10) == 1_000
    assert growth(8_000, 5_000) == 5_000
