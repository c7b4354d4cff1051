"""How the slack-row store and the path arena grow their backing arrays.

``Adjacency`` (a graph's rows, a walk index's terminal rows, the
edge→walk map's posting rows) and the map's path arena
(``adjacency.reserved``) append into one flat array and reallocate it
when the tail runs out.  Doubling pinned a second copy of the whole
store the first time a single row outgrew a packed build (the old array
stays alive in the snapshot being replaced); they now add an eighth —
still geometric, so the number of reallocations over a long insert
stream stays logarithmic, and the array never runs far ahead of what it
holds.  Walk rows also shrink: once relocations have abandoned enough
slots the rows are repacked into an array without room ahead, and
growth starts over from it.
"""

import math

import numpy as np
import pytest

from repro.graph.adjacency import Adjacency, growth, reserved
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.csr import csr_view
from repro.ppr.random_walk import WalkIndex

INSERTS = 20_000


def adjacency_stream():
    """One entry at a time, as a graph insert appends (a full row
    doubles its capacity)."""
    view = csr_view(barabasi_albert_graph(3000, attach=3, seed=1))
    rows = Adjacency(view.out_deg.copy(), view.indices.copy())
    rng = np.random.default_rng(0)
    yield rows.data, rows.tail
    for i in rng.integers(0, view.n, INSERTS):
        rows.insert(int(i), 0)
        yield rows.data, rows.tail


def walk_row_stream():
    """One more stored walk in a row, as a degree-raising insert does
    (a full walk row moves with room for twice its new count)."""
    view = csr_view(barabasi_albert_graph(3000, attach=3, seed=2))
    index = WalkIndex(view, 0.2, 1.5, np.random.default_rng(0))
    rows = index.rows
    rng = np.random.default_rng(1)
    yield rows.data, rows.tail
    for i in rng.integers(0, view.n, INSERTS):
        index._resize_row(int(i), int(rows.lens[i]) + 1)
        yield rows.data, rows.tail


def bulk_stream():
    """A few entries into many rows at once, as the edge→walk map posts
    a repaired walk's steps (a full row gets twice what it needs)."""
    rows = Adjacency(np.full(3000, 3, dtype=np.int64), np.zeros(9000, np.int64))
    rng = np.random.default_rng(1)
    yield rows.data, rows.tail
    for _ in range(INSERTS // 4):
        targets = np.unique(rng.integers(0, rows.n, 4))
        adds = rng.integers(1, 3, targets.size)
        rows.extend(targets, adds, np.zeros(int(adds.sum()), np.int64))
        yield rows.data, rows.tail


def arena_stream():
    data, used = np.zeros(10_000, dtype=np.int32), 10_000
    yield data, used
    for _ in range(INSERTS):
        data = reserved(data, used, 7)  # one repaired walk's new path
        used += 7
        yield data, used


@pytest.mark.parametrize(
    "stream", [adjacency_stream, walk_row_stream, bulk_stream, arena_stream]
)
def test_backing_array_grows_by_an_eighth(stream):
    states = stream()
    data, _ = next(states)
    segments = [[data.size]]  # array sizes from the start, or a repack, on
    for array, used in states:
        if array is not data:
            if array.size < data.size:
                # walk rows repacked: no room ahead, growth starts over
                assert array.size == used
                segments.append([])
            segments[-1].append(array.size)
            data = array
        assert used <= array.size
    assert (len(segments) > 1) == (stream is walk_row_stream)
    for sizes in segments:
        steps = np.diff(sizes)
        # geometric: O(log) reallocations, each at least an eighth
        assert all(step >= size // 8 for step, size in zip(steps, sizes))
        assert steps.size <= math.log(sizes[-1] / sizes[0], 9 / 8) + 1
    # and never far ahead of the data: doubling left up to 2 x
    assert data.size <= used * 9 / 8 + 64
    # the first reallocation of a packed store is what every worker
    # pays at its first update: an eighth, not a second copy
    initial, grown = segments[0][:2]
    assert grown - initial <= initial // 8 + 64


def test_growth_covers_the_request():
    assert growth(0, 1) == 64
    assert growth(8_000, 10) == 1_000
    assert growth(8_000, 5_000) == 5_000
