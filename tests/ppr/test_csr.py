"""Tests for the incrementally maintained CSR view."""

import random

import numpy as np
import pytest

from repro.graph import DynamicGraph, barabasi_albert_graph
from repro.graph.updates import random_update_stream
from repro.ppr import csr_view
from repro.ppr.csr import CSRView
from repro.obs import get_metrics


def assert_views_equivalent(patched: CSRView, fresh: CSRView) -> None:
    """Element-for-element equivalence up to within-row neighbor order
    (neighbor order is irrelevant to every consumer)."""
    assert patched.n == fresh.n
    assert patched.m == fresh.m
    assert np.array_equal(patched.nodes, fresh.nodes)
    assert np.array_equal(patched.out_deg, fresh.out_deg)
    assert np.array_equal(patched.in_deg, fresh.in_deg)
    for i in range(fresh.n):
        assert sorted(patched.out_neighbors_of(i).tolist()) == sorted(
            fresh.out_neighbors_of(i).tolist()
        ), f"out-row {i} diverged"
        assert sorted(patched.in_neighbors_of(i).tolist()) == sorted(
            fresh.in_neighbors_of(i).tolist()
        ), f"in-row {i} diverged"


class TestCSRStructure:
    def test_adjacency_matches_graph(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 0)])
        view = csr_view(g)
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
        view = csr_view(g)
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
        csr_view(g)
        applies_before = get_metrics().counter("csr_delta_applies").value
        g.add_edge(2, 0)
        view = csr_view(g)
        assert get_metrics().counter("csr_delta_applies").value > applies_before
        assert_views_equivalent(view, CSRView(g))

    def test_delete_patches_in_place(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        csr_view(g)
        g.remove_edge(0, 2)
        assert_views_equivalent(csr_view(g), CSRView(g))

    def test_many_toggles_stay_equivalent(self):
        g = barabasi_albert_graph(60, attach=2, seed=3)
        csr_view(g)
        for update in random_update_stream(g, 300, random.Random(0)):
            update.apply(g)
            assert_views_equivalent(csr_view(g), CSRView(g))

    def test_new_contiguous_node_keeps_identity_path(self):
        g = DynamicGraph(num_nodes=4)
        g.add_edge(0, 1)
        view = csr_view(g)
        assert view.identity_ids
        g.add_edge(2, 4)  # creates node 4 == next dense index
        view = csr_view(g)
        assert view.identity_ids
        assert view.to_index(4) == 4
        assert_views_equivalent(view, CSRView(g))

    def test_new_non_contiguous_node_breaks_identity(self):
        g = DynamicGraph(num_nodes=3)
        g.add_edge(0, 1)
        csr_view(g)
        g.add_edge(1, 99)
        view = csr_view(g)
        assert not view.identity_ids
        assert view.to_node(view.to_index(99)) == 99
        assert_views_equivalent(view, CSRView(g))

    def test_node_removal_falls_back_to_rebuild(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        csr_view(g)
        rebuilds_before = get_metrics().counter("csr_rebuilds").value
        g.remove_node(1)
        view = csr_view(g)
        assert get_metrics().counter("csr_rebuilds").value > rebuilds_before
        assert view.n == 2
        assert_views_equivalent(view, CSRView(g))

    def test_restore_invalidates_cache(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        snap = g.snapshot()
        stale = csr_view(g)
        g.add_edge(2, 0)
        csr_view(g)
        g.restore(snap)
        view = csr_view(g)
        assert view is not stale
        assert view.m == 2
        assert_views_equivalent(view, CSRView(g))

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

    def test_cache_hits_counted(self):
        g = DynamicGraph.from_edges([(0, 1)])
        csr_view(g)
        hits_before = get_metrics().counter("csr_cache_hits").value
        assert csr_view(g) is csr_view(g)
        assert get_metrics().counter("csr_cache_hits").value >= hits_before + 2

    def test_compaction_threshold_knob(self, monkeypatch):
        from repro.ppr import csr as csr_module

        monkeypatch.setattr(csr_module, "REBUILD_SLACK_RATIO", 0.0)
        monkeypatch.setattr(csr_module, "SLACK_FLOOR", 0)
        g = barabasi_albert_graph(30, attach=2, seed=1)
        csr_view(g)
        compactions_before = get_metrics().counter("csr_compactions").value
        for update in random_update_stream(g, 50, random.Random(2)):
            update.apply(g)
            csr_view(g)
        assert (
            get_metrics().counter("csr_compactions").value > compactions_before
        )
        assert_views_equivalent(csr_view(g), CSRView(g))


class TestPackedAccessors:
    def test_fresh_view_is_packed(self):
        g = barabasi_albert_graph(40, attach=2, seed=2)
        view = csr_view(g)
        assert view.is_packed
        indptr, indices = view.packed_out()
        assert indptr is view.indptr and indices is view.indices

    def test_patched_view_packs_correctly(self):
        g = barabasi_albert_graph(40, attach=2, seed=2)
        csr_view(g)
        for update in random_update_stream(g, 120, random.Random(4)):
            update.apply(g)
        view = csr_view(g)
        fresh = CSRView(g)
        for patched_pack, fresh_pack in (
            (view.packed_out(), (fresh.indptr, fresh.indices)),
            (view.packed_in(), (fresh.in_indptr, fresh.in_indices)),
        ):
            indptr, indices = patched_pack
            f_indptr, f_indices = fresh_pack
            assert np.array_equal(indptr, f_indptr)
            assert indices.size == view.m
            for i in range(view.n):
                assert sorted(indices[indptr[i]:indptr[i + 1]].tolist()) == (
                    sorted(f_indices[f_indptr[i]:f_indptr[i + 1]].tolist())
                )


def test_large_graph_consistency():
    g = barabasi_albert_graph(200, attach=2, seed=5)
    view = csr_view(g)
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
# the packed build against the per-element loop it replaced
# ----------------------------------------------------------------------
def loop_build(graph: DynamicGraph, view: CSRView) -> dict[str, np.ndarray]:
    """The CSR arrays filled one ``to_index`` call and one element
    store at a time — the reference for the C-level build (which must
    keep every row in adjacency-list order: seeded walks index into
    it)."""
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
    view = CSRView(graph)
    assert view.n == graph.num_nodes and view.m == graph.num_edges
    assert view.is_packed
    for field, expected in loop_build(graph, view).items():
        built = getattr(view, field)
        assert built.dtype == np.int64, field
        assert np.array_equal(built, expected), field
