"""Unit and property tests for DynamicGraph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.ppr.csr import csr_view


class TestConstruction:
    def test_empty(self):
        g = DynamicGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_preallocated_nodes(self):
        g = DynamicGraph(num_nodes=5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert list(g.nodes()) == [0, 1, 2, 3, 4]

    def test_from_edges_directed(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_from_edges_undirected(self):
        g = DynamicGraph.from_edges([(0, 1)], directed=False)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.num_edges == 2

    def test_copy_is_independent(self):
        g = DynamicGraph.from_edges([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_nodes == 2
        assert h.num_nodes == 3

    def test_copy_equal(self):
        g = DynamicGraph.from_edges([(0, 1), (2, 3)])
        assert g.copy() == g


class TestNodes:
    def test_add_node_idempotent(self):
        g = DynamicGraph()
        assert g.add_node(7)
        assert not g.add_node(7)
        assert g.num_nodes == 1

    def test_remove_node_strips_incident_edges(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        g.remove_node(1)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(2, 0)

    def test_remove_missing_node_raises(self):
        with pytest.raises(KeyError):
            DynamicGraph().remove_node(0)

    def test_contains(self):
        g = DynamicGraph.from_edges([(0, 1)])
        assert 0 in g
        assert 5 not in g
        assert (0, 1) in g
        assert (1, 0) not in g
        assert "x" not in g


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        g = DynamicGraph()
        g.add_edge(3, 9)
        assert g.has_node(3)
        assert g.has_node(9)

    def test_duplicate_add_returns_false(self):
        g = DynamicGraph()
        assert g.add_edge(0, 1)
        assert not g.add_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_missing_edge_raises(self):
        with pytest.raises(KeyError):
            DynamicGraph().remove_edge(0, 1)

    def test_self_loop(self):
        g = DynamicGraph()
        g.add_edge(0, 0)
        assert g.out_degree(0) == 1
        assert g.in_degree(0) == 1

    def test_toggle_semantics(self):
        g = DynamicGraph()
        assert g.toggle_edge(0, 1) is True
        assert g.has_edge(0, 1)
        assert g.toggle_edge(0, 1) is False
        assert not g.has_edge(0, 1)
        # endpoints survive deletion
        assert g.has_node(0) and g.has_node(1)

    def test_degrees_track_edges(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 2
        g.remove_edge(0, 2)
        assert g.out_degree(0) == 1
        assert g.in_degree(2) == 1

    def test_average_degree(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
        assert g.average_degree() == pytest.approx(4 / 3)
        assert DynamicGraph().average_degree() == 0.0

    def test_neighbors_consistent_with_edges(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (3, 0)])
        assert sorted(g.out_neighbors(0)) == [1, 2]
        assert g.in_neighbors(0) == [3]


class TestVersion:
    """The version counts mutations: derived views compare it to tell a
    structure they have seen from one they have not."""

    def test_each_mutation_bumps_the_version_once(self):
        g = DynamicGraph()
        g.add_edge(0, 1)  # two new nodes and the edge
        assert g.version == 3
        g.add_edge(1, 2)
        g.remove_edge(0, 1)
        assert g.version == 6

    def test_no_ops_do_not_advance_version(self):
        g = DynamicGraph.from_edges([(0, 1)])
        v = g.version
        g.add_edge(0, 1)  # duplicate
        g.add_node(0)  # already present
        assert g.version == v

    def test_node_removal_counts_its_edges(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 1), (2, 1), (1, 3)])
        v = g.version
        g.remove_node(1)  # four unlinks (the self loop once) and the node
        assert g.version == v + 5

    def test_copy_keeps_the_version(self):
        g = DynamicGraph.from_edges([(0, 1)])
        h = g.copy()
        assert h.version == g.version > 0
        h.add_edge(1, 0)
        assert h.version == g.version + 1

    def test_version_counts_every_mutation_under_random_ops(self):
        import random

        rng = random.Random(11)
        g = DynamicGraph(num_nodes=8)
        for _ in range(500):
            before, op = g.version, rng.random()
            if op < 0.8:
                g.toggle_edge(rng.randrange(8), rng.randrange(8))
                assert g.version in (before + 1, before + 2, before + 3)
            elif op < 0.9:
                created = g.add_node(rng.randrange(20))
                assert g.version == before + created
            else:
                node = rng.choice(sorted(g.nodes()))
                edges = {e for e in g.edges() if node in e}
                g.remove_node(node)
                assert g.version == before + len(edges) + 1
                g.add_node(node)


class TestSnapshotRestore:
    def test_restore_recovers_structure(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        snap = g.snapshot()
        g.add_edge(2, 0)
        g.remove_edge(0, 1)
        g.restore(snap)
        assert set(g.edges()) == {(0, 1), (1, 2)}
        assert g.num_nodes == 3

    def test_restore_version_is_monotone(self):
        """Regression: restore used to copy the snapshot's (smaller)
        version, so a later mutation could wrap back to a version a
        cached CSR view had already seen — serving stale adjacency."""
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.add_edge(1, 2)
        v_mutated = g.version
        g.restore(snap)
        assert g.version > v_mutated
        assert g.version > snap.version

    def test_snapshot_is_independent(self):
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.add_edge(1, 2)
        assert not snap.has_edge(1, 2)

    def test_restore_drops_in_rows(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        snap = g.snapshot()
        assert csr_view(g, reverse=True).in_deg is not None
        g.add_edge(2, 0)
        g.restore(snap)
        # the replaced structure's in-rows are gone, not left stale
        assert csr_view(g).in_deg is None
        assert csr_view(g, reverse=True).in_neighbors_of(2).tolist() == [1]

    def test_restore_after_restore(self):
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.restore(snap)
        v1 = g.version
        g.restore(snap)
        assert g.version > v1
        assert set(g.edges()) == {(0, 1)}


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
edge_strategy = st.tuples(st.integers(0, 15), st.integers(0, 15))


@settings(max_examples=80)
@given(st.lists(edge_strategy, max_size=60))
def test_out_in_adjacency_mirror(edge_ops):
    """After arbitrary toggles: out/in lists mirror the edge set exactly."""
    g = DynamicGraph()
    for u, v in edge_ops:
        g.toggle_edge(u, v)
    out_pairs = {(u, v) for u in g.nodes() for v in g.out_neighbors(u)}
    in_pairs = {(u, v) for v in g.nodes() for u in g.in_neighbors(v)}
    assert out_pairs == set(g.edges())
    assert in_pairs == set(g.edges())
    assert g.num_edges == len(out_pairs)


@settings(max_examples=80)
@given(st.lists(edge_strategy, max_size=60))
def test_degree_sums_equal_edge_count(edge_ops):
    g = DynamicGraph()
    for u, v in edge_ops:
        g.toggle_edge(u, v)
    assert sum(g.out_degree(v) for v in g.nodes()) == g.num_edges
    assert sum(g.in_degree(v) for v in g.nodes()) == g.num_edges


@settings(max_examples=50)
@given(st.lists(edge_strategy, min_size=1, max_size=40))
def test_double_toggle_is_identity_on_edges(edge_ops):
    """Toggling the same sequence twice restores the original edge set."""
    g = DynamicGraph()
    for u, v in edge_ops:
        g.toggle_edge(u, v)
    before = set(g.edges())
    for u, v in edge_ops:
        g.toggle_edge(u, v)
    for u, v in edge_ops:
        g.toggle_edge(u, v)
    assert set(g.edges()) == before
