"""Soak: 20 000 and 100 000 updates of index drift on one incremental index.

The ROADMAP's robustness item asks that a long-running server survive
"10^5+ updates of index drift".  A toggle-heavy stream on BA n = 2 000
crosses the edge→walk map's compaction rule many times, so at the end
the structural audit, the per-node budget invariant and the two-sample
distributional oracle (the same one ``bench_incremental_index`` and
``test_incremental_index`` use) must still hold — and neither store may
have grown without bound: the map's bytes stay within 3x of a fresh
build's on the same final graph, and the walk rows' bytes (relocated
rows keep twice the room they need; the slots they abandon are
repacked away) within :data:`WALK_ROWS_BOUND` x.  The 20 000-update run
is tier-1 sized; the 10^5 run is marked ``stress`` (CI's stress job).
"""

import random

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.ppr.csr import csr_view
from repro.ppr.random_walk import WalkIndex
from tests.ppr.test_incremental_index import (
    ALPHA,
    aggregate_histogram,
    assert_histograms_close,
    counts_invariant,
)

NUM_NODES = 2_000
NUM_UPDATES = 20_000
WALKS_PER_UNIT = 1.5

#: walk-row bytes against a fresh build's: 1.85 after both streams
#: (2.33 after 10^5 updates while abandoned slots were never repacked),
#: plus a margin of 0.15
WALK_ROWS_BOUND = 2.0


def toggle_heavy_stream(count, seed):
    """Toggles over a fixed pool of pairs — half of them from a
    200-pair hot set, half from 3 000 cold pairs — so the same edges
    are inserted and deleted again and again and the graph keeps its
    size while the index drifts."""
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(NUM_NODES), 2)) for _ in range(3_200)]
    hot, cold = pairs[:200], pairs[200:]
    for step in range(count):
        yield EdgeUpdate(*rng.choice(hot if step % 2 else cold), "toggle")


def drift(num_updates):
    """Drive ``num_updates`` toggles through a tracked index; returns
    the index, the final view and the number of map compactions."""
    graph = barabasi_albert_graph(NUM_NODES, attach=3, seed=21)
    view = csr_view(graph)
    index = WalkIndex(
        view, ALPHA, WALKS_PER_UNIT, np.random.default_rng(4),
        track_edges=True,
    )
    compactions = 0
    for update in toggle_heavy_stream(num_updates, seed=6):
        applied = update.apply(graph)
        view = csr_view(graph)
        dead_before = index.edge_map.dead_steps
        index.apply_edge_update(
            view, view.to_index(applied.u), view.to_index(applied.v),
            applied.kind,
        )
        compactions += index.edge_map.dead_steps < dead_before
    return index, view, compactions


def assert_consistent_and_bounded(index, view):
    assert index.validate_edge_map(view) == []
    assert counts_invariant(index, view)
    # the oracle: a fresh tracked build on the final graph
    oracle = WalkIndex(
        view, ALPHA, WALKS_PER_UNIT, np.random.default_rng(99),
        track_edges=True,
    )
    assert_histograms_close(
        aggregate_histogram(index, view), aggregate_histogram(oracle, view)
    )
    assert index.edge_map.nbytes <= 3 * oracle.edge_map.nbytes
    assert index.rows.nbytes <= WALK_ROWS_BOUND * oracle.rows.nbytes


def test_twenty_thousand_updates_leave_a_consistent_bounded_map():
    index, view, compactions = drift(NUM_UPDATES)
    assert compactions >= 3  # the stream really crossed the rule
    assert_consistent_and_bounded(index, view)


@pytest.mark.stress
def test_a_hundred_thousand_updates_leave_a_consistent_bounded_index():
    index, view, compactions = drift(100_000)
    assert compactions >= 15
    assert_consistent_and_bounded(index, view)
