"""Additional DynamicGraph coverage: version counter, equality, repr."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph


class TestVersionCounter:
    def test_initial_version(self):
        assert DynamicGraph().version == 0

    def test_add_edge_bumps(self):
        g = DynamicGraph(num_nodes=2)
        before = g.version
        g.add_edge(0, 1)
        assert g.version > before

    def test_duplicate_add_does_not_bump(self):
        g = DynamicGraph.from_edges([(0, 1)])
        before = g.version
        g.add_edge(0, 1)  # already exists -> returns False
        assert g.version == before

    def test_remove_edge_bumps(self):
        g = DynamicGraph.from_edges([(0, 1)])
        before = g.version
        g.remove_edge(0, 1)
        assert g.version > before

    def test_add_node_bumps_only_when_new(self):
        g = DynamicGraph()
        v0 = g.version
        g.add_node(3)
        v1 = g.version
        g.add_node(3)
        assert v1 > v0
        assert g.version == v1

    def test_remove_node_bumps(self):
        g = DynamicGraph.from_edges([(0, 1)])
        before = g.version
        g.remove_node(1)
        assert g.version > before

    def test_copy_carries_version(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        assert g.copy().version == g.version

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=20))
    def test_every_toggle_bumps(self, pairs):
        g = DynamicGraph(num_nodes=6)
        last = g.version
        for u, v in pairs:
            g.toggle_edge(u, v)
            assert g.version > last
            last = g.version


class TestDunder:
    def test_repr_mentions_sizes(self):
        g = DynamicGraph.from_edges([(0, 1)])
        assert "n=2" in repr(g)
        assert "m=1" in repr(g)

    def test_equality_ignores_version(self):
        a = DynamicGraph.from_edges([(0, 1)])
        b = DynamicGraph(num_nodes=2)
        b.add_edge(0, 1)
        b.toggle_edge(0, 1)
        b.toggle_edge(0, 1)  # extra churn -> higher version
        assert a == b

    def test_equality_respects_isolated_nodes(self):
        a = DynamicGraph.from_edges([(0, 1)])
        b = DynamicGraph(num_nodes=3)
        b.add_edge(0, 1)
        assert a != b

    def test_equality_with_other_types(self):
        assert DynamicGraph() != 42
        assert DynamicGraph() != "graph"

    def test_len_is_node_count(self):
        assert len(DynamicGraph(num_nodes=7)) == 7

    def test_hash_is_identity_based(self):
        a = DynamicGraph.from_edges([(0, 1)])
        b = DynamicGraph.from_edges([(0, 1)])
        assert hash(a) != hash(b) or a is b
        assert hash(a) == hash(a)
