"""Unit and property tests for DynamicGraph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph


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
