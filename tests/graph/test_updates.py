"""Tests for the edge-arrival update model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate, UpdateStream, random_update_stream


class TestEdgeUpdate:
    def test_toggle_resolves_to_insert(self):
        g = DynamicGraph(num_nodes=2)
        resolved = EdgeUpdate(0, 1).apply(g)
        assert resolved.kind == "insert"
        assert g.has_edge(0, 1)

    def test_toggle_resolves_to_delete(self):
        g = DynamicGraph.from_edges([(0, 1)])
        resolved = EdgeUpdate(0, 1).apply(g)
        assert resolved.kind == "delete"
        assert not g.has_edge(0, 1)

    def test_explicit_insert(self):
        g = DynamicGraph(num_nodes=2)
        EdgeUpdate(0, 1, "insert").apply(g)
        assert g.has_edge(0, 1)

    def test_explicit_insert_duplicate_raises(self):
        g = DynamicGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            EdgeUpdate(0, 1, "insert").apply(g)

    def test_explicit_delete_missing_raises(self):
        with pytest.raises(KeyError):
            EdgeUpdate(0, 1, "delete").apply(DynamicGraph(num_nodes=2))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            EdgeUpdate(0, 1, "replace").apply(DynamicGraph(num_nodes=2))

    def test_frozen(self):
        update = EdgeUpdate(0, 1)
        with pytest.raises(AttributeError):
            update.u = 5


class TestUpdateStream:
    def test_apply_next_in_order(self):
        g = DynamicGraph(num_nodes=3)
        stream = UpdateStream([EdgeUpdate(0, 1), EdgeUpdate(1, 2)])
        first = stream.apply_next(g)
        assert (first.u, first.v) == (0, 1)
        assert stream.remaining == 1
        stream.apply_next(g)
        assert stream.apply_next(g) is None

    def test_apply_all(self):
        g = DynamicGraph(num_nodes=4)
        stream = UpdateStream([EdgeUpdate(0, 1), EdgeUpdate(0, 1), EdgeUpdate(2, 3)])
        resolved = stream.apply_all(g)
        assert [r.kind for r in resolved] == ["insert", "delete", "insert"]
        assert g.num_edges == 1

    def test_reset(self):
        stream = UpdateStream([EdgeUpdate(0, 1)])
        g = DynamicGraph(num_nodes=2)
        stream.apply_all(g)
        stream.reset()
        assert stream.remaining == 1

    def test_len_and_indexing(self):
        stream = UpdateStream([EdgeUpdate(0, 1), EdgeUpdate(2, 3)])
        assert len(stream) == 2
        assert stream[1].u == 2


class TestRandomUpdateStream:
    def test_endpoints_from_initial_nodes(self):
        g = DynamicGraph(num_nodes=10)
        stream = random_update_stream(g, 50, rng=random.Random(0))
        assert len(stream) == 50
        assert all(0 <= u.u < 10 and 0 <= u.v < 10 for u in stream)
        assert all(u.u != u.v for u in stream)

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            random_update_stream(DynamicGraph(num_nodes=1), 5)

    def test_deterministic_with_seeded_rng(self):
        g = DynamicGraph(num_nodes=8)
        a = random_update_stream(g, 20, rng=random.Random(3))
        b = random_update_stream(g, 20, rng=random.Random(3))
        assert [(u.u, u.v) for u in a] == [(u.u, u.v) for u in b]


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
def test_stream_replay_reaches_same_graph(pairs):
    """Replaying the same toggles on an identical graph gives equal graphs."""
    updates = [EdgeUpdate(u, v) for u, v in pairs]
    g1 = DynamicGraph(num_nodes=10)
    g2 = DynamicGraph(num_nodes=10)
    UpdateStream(updates).apply_all(g1)
    UpdateStream(updates).apply_all(g2)
    assert set(g1.edges()) == set(g2.edges())
