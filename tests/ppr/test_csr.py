"""Tests for the CSR views of a dynamic graph."""

import random

import numpy as np
import pytest

from repro.graph import adjacency
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, complete_graph
from repro.graph.updates import random_update_stream
from repro.ppr.csr import csr_view, CSRView
from repro.ppr.power_iteration import ppr_exact
from tests.graph.reference_rows import ReferenceRows


def transposed_rows(view: CSRView) -> list[list[int]]:
    """In-rows of ``view``'s out-rows, each by ascending source index."""
    rows = [[] for _ in range(view.n)]
    for i in range(view.n):
        for j in view.out_neighbors_of(i).tolist():
            rows[j].append(i)
    return rows


def tracked(graph: DynamicGraph, reverse: bool = False) -> ReferenceRows:
    """Reference lists of ``graph`` from now on (in-lists too when
    ``reverse``, after asking the graph for its in-rows)."""
    rows = ReferenceRows.of(graph)
    if reverse:
        csr_view(graph, reverse=True)
        rows.hold_in()
    return rows


class TestCSRStructure:
    def test_adjacency_matches_graph(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 0)])
        view = csr_view(g, reverse=True)
        assert view.n == 3
        assert view.m == 4
        assert sorted(view.out_neighbors_of(view.to_index(0)).tolist()) == [
            view.to_index(1),
            view.to_index(2),
        ]
        assert sorted(view.in_neighbors_of(view.to_index(2)).tolist()) == [
            view.to_index(0),
            view.to_index(1),
        ]

    def test_degrees(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (3, 0)])
        view = csr_view(g, reverse=True)
        assert view.out_deg[view.to_index(0)] == 2
        assert view.in_deg[view.to_index(0)] == 1

    def test_identity_fast_path(self):
        g = DynamicGraph(num_nodes=5)
        g.add_edge(0, 1)
        view = csr_view(g)
        assert view.identity_ids
        assert view.to_index(3) == 3

    def test_identity_fast_path_bad_node_raises(self):
        g = DynamicGraph(num_nodes=3)
        view = csr_view(g)
        with pytest.raises(KeyError):
            view.to_index(99)

    def test_non_contiguous_ids(self):
        g = DynamicGraph.from_edges([(10, 20), (20, 30)])
        view = csr_view(g)
        assert not view.identity_ids
        i = view.to_index(20)
        assert view.to_node(i) == 20
        assert view.out_deg[i] == 1

    def test_empty_graph(self):
        view = csr_view(DynamicGraph())
        assert view.n == 0
        assert view.indices.size == 0


class TestCaching:
    def test_same_view_until_mutation(self):
        g = DynamicGraph.from_edges([(0, 1)])
        a = csr_view(g)
        b = csr_view(g)
        assert a is b

    def test_rebuild_after_edge_insert(self):
        g = DynamicGraph.from_edges([(0, 1)])
        a = csr_view(g)
        g.add_edge(1, 0)
        b = csr_view(g)
        assert a is not b
        assert b.m == 2

    def test_rebuild_after_edge_delete(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 0)])
        a = csr_view(g)
        g.remove_edge(0, 1)
        b = csr_view(g)
        assert a is not b
        assert b.m == 1

    def test_independent_graphs_independent_views(self):
        g1 = DynamicGraph.from_edges([(0, 1)])
        g2 = DynamicGraph.from_edges([(0, 1)])
        assert csr_view(g1) is not csr_view(g2)


class TestIncrementalMaintenance:
    def test_insert_patches_in_place(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        rows = tracked(g, reverse=True)
        g.add_edge(2, 0)
        rows.link(2, 0)
        rows.check(csr_view(g))

    def test_delete_patches_in_place(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (3, 2)])
        rows = tracked(g, reverse=True)
        g.remove_edge(0, 2)  # mid-row: the entries after it move up
        rows.unlink(0, 2)
        g.remove_edge(1, 2)
        rows.unlink(1, 2)
        rows.check(csr_view(g))
        assert csr_view(g).out_neighbors_of(0).tolist() == [1, 3]

    def test_many_toggles_stay_equivalent(self):
        g = barabasi_albert_graph(60, attach=2, seed=3)
        rows = tracked(g, reverse=True)
        for update in random_update_stream(g, 300, random.Random(0)):
            rows.apply(update.apply(g))
            rows.check(csr_view(g))

    def test_new_contiguous_node_keeps_identity_path(self):
        g = DynamicGraph(num_nodes=4)
        g.add_edge(0, 1)
        rows = tracked(g, reverse=True)
        assert csr_view(g).identity_ids
        g.add_edge(2, 4)  # creates node 4 == next dense index
        rows.link(2, 4)
        view = csr_view(g)
        assert view.identity_ids
        assert view.to_index(4) == 4
        rows.check(view)

    def test_new_non_contiguous_node_breaks_identity(self):
        g = DynamicGraph(num_nodes=3)
        g.add_edge(0, 1)
        rows = tracked(g, reverse=True)
        g.add_edge(1, 99)
        rows.link(1, 99)
        view = csr_view(g)
        assert not view.identity_ids
        assert view.to_node(view.to_index(99)) == 99
        rows.check(view)

    def test_node_removal_reindexes_the_rows(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 1), (0, 2)])
        rows = tracked(g, reverse=True)
        old = csr_view(g)
        g.remove_node(1)
        rows.remove_node(1)
        view = csr_view(g)
        assert view.n == 2 and view.identity_ids is False
        rows.check(view)
        # the old view's node-id mapping still reads the old indices
        assert old.to_index(2) == 2 and old.to_node(1) == 1
        g.remove_node(2)  # the remaining ids are 0 .. n - 1 again
        rows.remove_node(2)
        assert csr_view(g).identity_ids
        rows.check(csr_view(g))

    def test_restore_invalidates_cache(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        snap = g.snapshot()
        rows = tracked(g)
        stale = csr_view(g, reverse=True)
        g.add_edge(2, 0)
        csr_view(g, reverse=True)
        g.restore(snap)
        view = csr_view(g)
        assert view is not stale
        assert view.m == 2
        rows.check(view)  # the snapshot's rows, without in-rows

    def test_facade_identity_changes_per_version(self):
        """Downstream caches (walk indexes, transition matrices) use
        view object identity as their staleness probe."""
        g = DynamicGraph.from_edges([(0, 1)])
        a = csr_view(g)
        g.add_edge(1, 0)
        b = csr_view(g)
        g.remove_edge(1, 0)
        c = csr_view(g)
        assert a is not b and b is not c

    def test_compaction_threshold_knob(self, monkeypatch):
        monkeypatch.setattr(adjacency, "REBUILD_SLACK_RATIO", 0.0)
        monkeypatch.setattr(adjacency, "SLACK_FLOOR", 0)
        g = barabasi_albert_graph(30, attach=2, seed=1)
        rows = tracked(g, reverse=True)
        for update in random_update_stream(g, 50, random.Random(2)):
            rows.apply(update.apply(g))
            view = csr_view(g)
            # no slack is tolerated: every mutation repacks both ways
            assert view.is_packed and view.indptr[view.n] == view.m
            rows.check(view)


def two_full_rows() -> DynamicGraph:
    """Rows 1 and 0 each fill exactly the four slots their first insert
    gave them: no slack, yet the rows sit in first-insert order."""
    g = DynamicGraph(num_nodes=5)
    for v in (0, 2, 3, 4):
        g.add_edge(1, v)
    for v in (1, 2, 3, 4):
        g.add_edge(0, v)
    return g


class TestPackedAccessors:
    @pytest.mark.parametrize(
        "build", [two_full_rows, lambda: complete_graph(5)],
        ids=["two full rows", "K5"],
    )
    def test_patched_rows_without_slack_are_not_packed(self, build):
        g = build()
        view, fresh = csr_view(g, reverse=True), csr_view(g.copy(), reverse=True)
        assert not view.is_packed and fresh.is_packed
        indptr, indices = view.packed_out()
        assert indptr[view.n] == view.m
        for mine, theirs in zip(
            (*view.packed_out(), *view.packed_in()),
            (*fresh.packed_out(), *fresh.packed_in()),
        ):
            assert np.array_equal(mine, theirs)
        for source in range(view.n):
            assert np.allclose(
                ppr_exact(g, source).values,
                ppr_exact(g.copy(), source).values,
            )

    def test_fresh_view_is_packed(self):
        g = barabasi_albert_graph(40, attach=2, seed=2)
        view = csr_view(g)
        assert view.is_packed
        indptr, indices = view.packed_out()
        assert indptr is view.indptr and indices is view.indices

    def test_patched_view_packs_correctly(self):
        g = barabasi_albert_graph(40, attach=2, seed=2)
        csr_view(g, reverse=True)
        for update in random_update_stream(g, 120, random.Random(4)):
            update.apply(g)
        view = csr_view(g)
        assert not view.is_packed
        fresh = csr_view(g.copy(), reverse=True)
        assert fresh.is_packed
        # out-rows keep their order through the packing
        for mine, theirs in zip(view.packed_out(), fresh.packed_out()):
            assert np.array_equal(mine, theirs)
        # patched in-rows hold the transpose, in arrival order
        indptr, indices = view.packed_in()
        f_indptr, f_indices = fresh.packed_in()
        assert np.array_equal(indptr, f_indptr) and indices.size == view.m
        for i in range(view.n):
            assert sorted(indices[indptr[i]:indptr[i + 1]].tolist()) == (
                f_indices[f_indptr[i]:f_indptr[i + 1]].tolist()
            )


def test_large_graph_consistency():
    g = barabasi_albert_graph(200, attach=2, seed=5)
    view = csr_view(g, reverse=True)
    # every edge appears exactly once in the CSR arrays
    pairs = set()
    for i in range(view.n):
        u = view.to_node(i)
        for j in view.out_neighbors_of(i):
            pairs.add((u, view.to_node(int(j))))
    assert pairs == set(g.edges())
    assert int(view.out_deg.sum()) == g.num_edges
    assert int(view.in_deg.sum()) == g.num_edges


# ----------------------------------------------------------------------
# in-rows on demand
# ----------------------------------------------------------------------
def assert_in_rows_are_the_transpose(view: CSRView) -> None:
    """``view``'s in-rows against the transpose of its own out-rows."""
    assert view.in_deg is not None
    for i, row in enumerate(transposed_rows(view)):
        assert view.in_deg[i] == len(row), f"in-degree {i} diverged"
        assert sorted(view.in_neighbors_of(i).tolist()) == row, i


def test_forward_views_hold_no_in_rows():
    g = barabasi_albert_graph(50, attach=2, seed=9)
    view = csr_view(g)
    for update in random_update_stream(g, 40, random.Random(3)):
        update.apply(g)
        view = csr_view(g)
    assert view.in_indptr is view.in_indices is view.in_deg is None
    assert CSRView(g).in_deg is None


def test_a_late_reverse_view_is_the_transpose_of_the_live_out_rows():
    g = barabasi_albert_graph(80, attach=3, seed=4)
    csr_view(g)
    for update in random_update_stream(g, 150, random.Random(8)):
        update.apply(g)
        csr_view(g)
    forward = csr_view(g)
    assert not forward.is_packed and forward.in_deg is None
    view = csr_view(g, reverse=True)
    # built in place: the facade keeps its identity at this version
    assert view is forward
    assert_in_rows_are_the_transpose(view)
    for i in range(view.n):  # a fresh transpose lists sources ascending
        row = view.in_neighbors_of(i)
        assert np.all(row[1:] > row[:-1])
    rows = tracked(g, reverse=True)
    snap, saved = g.snapshot(), rows.copy()
    rng = random.Random(5)
    for step in range(120):
        if step % 40 == 39:
            rows.add_node(g.num_nodes)
            g.add_node(g.num_nodes)
        elif step == 60:
            g.restore(snap)
            rows = saved.copy()
        else:
            u, v = rng.randrange(g.num_nodes), rng.randrange(g.num_nodes)
            g.toggle_edge(u, v)
            rows.toggle(u, v)
        view = csr_view(g, reverse=True)
        rows.hold_in()
        assert_in_rows_are_the_transpose(view)
        rows.check(view)
    assert view.n == 80 + 2


def test_in_rows_never_move_the_out_rows():
    """A graph that holds in-rows and one that does not, in lockstep,
    keep identical out-rows, whose order seeded walks index into."""
    forward = barabasi_albert_graph(60, attach=3, seed=2)
    reverse = forward.copy()
    compacted = 0
    for update in random_update_stream(forward, 400, random.Random(6)):
        update.apply(forward)
        update.apply(reverse)
        a, b = csr_view(forward), csr_view(reverse, reverse=True)
        assert a.in_deg is None and b.in_deg is not None
        compacted += a.is_packed
        for mine, theirs in zip(a.packed_out(), b.packed_out()):
            assert np.array_equal(mine, theirs)
    assert compacted >= 2


def test_a_long_toggle_stream_leaves_the_rows_bounded():
    g = DynamicGraph(num_nodes=16)
    rows = tracked(g, reverse=True)
    for i in range(20_000):
        u, v = i % 16, (5 * i + 1) % 16
        g.toggle_edge(u, v)
        rows.toggle(u, v)
        view = csr_view(g)
        # every mutation ends with at most the slack the repack rule allows
        bound = max(adjacency.SLACK_FLOOR, adjacency.REBUILD_SLACK_RATIO * view.m)
        assert view.indices.size - view.m <= bound
        assert view.in_indices.size - view.m <= bound
    rows.check(csr_view(g))


# ----------------------------------------------------------------------
# the packed build against the per-element loop it replaced
# ----------------------------------------------------------------------
def loop_build(graph: DynamicGraph, view: CSRView) -> dict[str, np.ndarray]:
    """The CSR arrays filled one ``to_index`` call and one element
    store at a time — the reference for the C-level build, which must
    keep every out-row in ``out_neighbors`` order (seeded walks index into it)
    and list every in-row by ascending source index (the order of
    ``in_neighbors``' scan)."""
    nodes = [int(v) for v in view.nodes]
    out_deg = np.array([graph.out_degree(v) for v in nodes], dtype=np.int64)
    in_deg = np.array([graph.in_degree(v) for v in nodes], dtype=np.int64)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    in_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(out_deg, out=indptr[1:])
    np.cumsum(in_deg, out=in_indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    in_indices = np.empty(int(in_indptr[-1]), dtype=np.int64)
    pos, in_pos = indptr[:-1].copy(), in_indptr[:-1].copy()
    for i, v in enumerate(nodes):
        for w in graph.out_neighbors(v):
            indices[pos[i]] = view.to_index(w)
            pos[i] += 1
        for w in graph.in_neighbors(v):
            in_indices[in_pos[i]] = view.to_index(w)
            in_pos[i] += 1
    return {
        "out_deg": out_deg, "in_deg": in_deg, "indptr": indptr,
        "indices": indices, "in_indptr": in_indptr, "in_indices": in_indices,
    }


def churned(graph: DynamicGraph, seed: int) -> DynamicGraph:
    """Deletes and re-inserts, so list order is not sorted order."""
    for update in random_update_stream(graph, 150, random.Random(seed)):
        update.apply(graph)
    return graph


def with_edges(graph: DynamicGraph, edges) -> DynamicGraph:
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


PACKED_BUILD_GRAPHS = {
    "empty": lambda: DynamicGraph(),
    "edgeless": lambda: DynamicGraph(num_nodes=4),
    "identity ids": lambda: churned(
        barabasi_albert_graph(60, attach=3, seed=3), 1
    ),
    "identity ids, self-loops and dangling nodes": lambda: with_edges(
        DynamicGraph(num_nodes=6),
        [(0, 0), (0, 3), (3, 3), (3, 0), (1, 0), (4, 4), (0, 1)],
    ),
    "sparse ids": lambda: DynamicGraph.from_edges(
        [(10, 20), (20, 30), (30, 10), (10, 30), (7, 7), (90, 10), (20, 7)]
    ),
    "sparse ids, churned": lambda: churned(
        DynamicGraph.from_edges(
            [(3 * u + 5, 3 * v + 5)
             for u, v in barabasi_albert_graph(40, attach=2, seed=8).edges()]
        ),
        2,
    ),
    "ids dense but out of order": lambda: DynamicGraph.from_edges(
        [(2, 0), (0, 1), (1, 2), (2, 2)]
    ),
}


@pytest.mark.parametrize("name", sorted(PACKED_BUILD_GRAPHS))
def test_packed_build_equals_the_per_element_loop(name):
    graph = PACKED_BUILD_GRAPHS[name]()
    view = csr_view(graph.copy(), reverse=True)  # a copy's rows are packed
    assert view.n == graph.num_nodes and view.m == graph.num_edges
    assert view.is_packed
    for field, expected in loop_build(graph, view).items():
        built = getattr(view, field)
        assert built.dtype == np.int64, field
        assert np.array_equal(built, expected), field
