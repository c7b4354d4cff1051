"""The indexed walk phase as one gather, against the per-holder loop.

``add_walk_estimates`` reads the walk index with one ragged gather over
its slack rows and one ``np.add.at``.  The oracle below is the loop it
replaced — ``WalkIndex.terminals_for`` per residue holder, one
``np.add.at`` per node — and the two must leave the **same bytes** in
``reserve``: one ``add.at`` over the concatenated terminals adds in the
order the loop did (holders ascending, stored order within a holder),
so not even the last bit may move.  The indexes are churned first
(incremental updates, Agenda-style row refreshes, appended nodes), so
``offsets`` are non-monotone and the terminals array holds slack and
abandoned rows the read must never touch.
"""

import statistics
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluation.datasets import get_dataset
from repro.graph import EdgeUpdate, barabasi_albert_graph
from repro.ppr import csr_view
from repro.ppr.forward_push import forward_push
from repro.ppr.pushwalk import add_walk_estimates
from repro.ppr.random_walk import WalkIndex
from repro.ppr.registry import build_algorithm

ALPHA = 0.2
K = 40  # walks per unit of residue


def loop_read(index, reserve, residue, num_walks_k):
    """The per-holder read: slice (or recycle) one row, scatter it."""
    walks = 0
    for node in np.flatnonzero(residue > 0.0):
        count = max(int(np.ceil(residue[node] * num_walks_k)), 1)
        terminals = index.terminals_for(int(node), count)
        assert terminals.size == count
        np.add.at(reserve, terminals, residue[node] / count)
        walks += count
    return walks


def assert_same_bytes(index, view, residue, num_walks_k=K):
    base = np.random.default_rng(0).random(view.n)
    gathered, looped = base.copy(), base.copy()
    result = add_walk_estimates(
        view, gathered, residue, ALPHA, num_walks_k,
        np.random.default_rng(1), index=index,
    )
    walks = loop_read(index, looped, residue, num_walks_k)
    assert gathered.tobytes() == looped.tobytes()
    assert result.num_walks == walks
    assert result.num_source_nodes == int((residue > 0.0).sum())


def residue_for(view, counts):
    """A residue vector whose holder ``i`` asks for ``counts[i]`` walks."""
    residue = np.zeros(view.n)
    for node, count in counts.items():
        residue[node] = (count - 0.5) / K
    return residue


def churned_index(seed, updates):
    """A tracked index after ``updates`` random toggles and a refresh:
    rows relocated to the tail, rows shrunk in place, dead slots."""
    graph = barabasi_albert_graph(24, attach=2, seed=seed)
    index = WalkIndex(
        csr_view(graph), ALPHA, 1.5, np.random.default_rng(seed),
        track_edges=True,
    )
    rng = np.random.default_rng(seed + 1)
    for _ in range(updates):
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
        if u == v:
            continue
        resolved = EdgeUpdate(u, v).apply(graph)
        view = csr_view(graph)
        index.apply_edge_update(
            view, view.to_index(u), view.to_index(v), resolved.kind
        )
    view = csr_view(graph)
    index.refresh_nodes(view, rng.integers(0, view.n, 3))
    return graph, index, view


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 5),
    updates=st.integers(0, 60),
    picks=st.lists(
        st.tuples(st.integers(0, 23), st.sampled_from(
            ["one", "below", "equal", "above", "double", "many"]
        )),
        max_size=24,
    ),
)
def test_gathered_read_is_the_per_holder_loop_bit_for_bit(seed, updates, picks):
    _, index, view = churned_index(seed, updates)
    counts = {}
    for node, shape in picks:
        stored = int(index.counts[node])
        counts[node] = {
            "one": 1,
            "below": max(stored - 1, 1),
            "equal": stored,
            "above": stored + 1,
            "double": 2 * stored,
            "many": 5 * stored + 2,
        }[shape]
    assert_same_bytes(index, view, residue_for(view, counts))


def test_churn_really_scrambles_the_layout():
    """The property above is only worth its name on rows that moved."""
    _, index, view = churned_index(seed=2, updates=60)
    rows = index.offsets[:view.n]
    assert (np.diff(rows) < 0).any(), "no row was relocated"
    assert int(index.caps.sum()) > index.total_walks, "no slack"
    assert index._tail > int(index.caps.sum()), "no abandoned slots"


def test_no_holder_and_single_holder():
    _, index, view = churned_index(seed=1, updates=30)
    assert_same_bytes(index, view, np.zeros(view.n))
    reserve = np.zeros(view.n)
    result = add_walk_estimates(
        view, reserve, np.zeros(view.n), ALPHA, K,
        np.random.default_rng(0), index=index,
    )
    assert (result.num_walks, result.num_source_nodes) == (0, 0)
    assert not reserve.any()
    for count in (1, int(index.counts[7]), 3 * int(index.counts[7]) + 1):
        assert_same_bytes(index, view, residue_for(view, {7: count}))


def test_tiny_residue_still_reads_one_walk():
    _, index, view = churned_index(seed=3, updates=10)
    residue = np.zeros(view.n)
    residue[[2, 9]] = 1e-12
    assert_same_bytes(index, view, residue)


def test_freshly_appended_node_is_read_from_its_tail_row():
    graph, index, view = churned_index(seed=4, updates=20)
    fresh = graph.num_nodes
    EdgeUpdate(3, fresh).apply(graph)
    view = csr_view(graph)
    index.apply_edge_update(view, view.to_index(3), view.to_index(fresh), "insert")
    assert index.counts.size == view.n == fresh + 1
    stored = int(index.counts[fresh])
    assert_same_bytes(
        index, view,
        residue_for(view, {fresh: 4 * stored, 3: int(index.counts[3]), 0: 1}),
    )


def test_recycling_wraps_round_robin():
    """More walks than stored: slot modulo the stored count."""
    _, index, view = churned_index(seed=0, updates=0)
    stored = index.terminals_for(5, int(index.counts[5]))
    want = 2 * stored.size + 1
    reserve = np.zeros(view.n)
    add_walk_estimates(
        view, reserve, residue_for(view, {5: want}), ALPHA, K,
        np.random.default_rng(0), index=index,
    )
    recycled = np.concatenate([stored, stored, stored[:1]])
    expected = np.zeros(view.n)
    np.add.at(expected, recycled, ((want - 0.5) / K) / want)
    assert reserve.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["FORA+", "FORA+inc", "SpeedPPR+", "Agenda"])
def test_index_based_algorithms_share_the_gathered_read(name, small_ba_graph):
    """Whole queries: the served answer equals push + per-holder loop."""
    algorithm = build_algorithm(name, small_ba_graph, 2000, seed=5, engine="auto")
    for u, v in [(0, 50), (3, 77), (50, 0)]:
        algorithm.apply_update(EdgeUpdate(u, v))
    seen = {}
    original = algorithm._walk_phase

    def spy(view, reserve, residue, stats):
        seen["looped"] = reserve.copy()
        loop_read(
            algorithm._walk_index(), seen["looped"], residue,
            algorithm._num_walks(),
        )
        original(view, reserve, residue, stats)
        seen["gathered"] = reserve.copy()

    algorithm._walk_phase = spy
    algorithm.query(0)
    assert seen["gathered"].tobytes() == seen["looped"].tobytes()


def test_indexed_walk_phase_is_no_slower_than_sampling_online(no_gc):
    """FORA+'s whole trade: pay on update so the query does no walking.
    Same residues, same K; reading ~10^4 stored terminals must not cost
    more than simulating them (≈ 0.1 x after the gather; the per-holder
    loop it replaced read ≈ 3 x)."""
    spec = get_dataset("lj")
    algorithm = build_algorithm(
        "FORA+", spec.build(seed=0), spec.walk_cap, seed=0, engine="auto"
    )
    view, index, k = algorithm.view, algorithm.index, algorithm._num_walks()
    push = forward_push(view, 17, ALPHA, algorithm.r_max, engine="auto")
    rng = np.random.default_rng(3)

    def median_ms(walk_index):
        samples = []
        for _ in range(15):
            reserve = push.reserve.copy()
            start = time.perf_counter()
            add_walk_estimates(
                view, reserve, push.residue, ALPHA, k, rng, index=walk_index
            )
            samples.append(time.perf_counter() - start)
        return 1e3 * statistics.median(samples)

    median_ms(index)  # warm both paths before timing either
    median_ms(None)
    online, indexed = median_ms(None), median_ms(index)
    assert indexed <= 1.0 * online, (indexed, online)
