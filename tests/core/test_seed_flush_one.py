"""Tests for SeedQueue.flush_one (idle-time draining) and the degree
overlay unwinding it requires."""

import pytest

from repro.core.seed import SeedQueue, degree_adjustment_factor
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora

ALPHA = 0.2


def make_graph():
    return DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])


def make_algorithm(graph):
    return Fora(graph, PPRParams(walk_cap=100))


class TestFlushOne:
    def test_flushes_oldest_first(self):
        graph = make_graph()
        alg = make_algorithm(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3), arrival=1.0)
        queue.add(EdgeUpdate(3, 4), arrival=2.0)
        first = queue.flush_one(alg)
        assert first.arrival == 1.0
        assert graph.has_edge(0, 3)
        assert not graph.has_edge(3, 4)
        assert len(queue) == 1

    def test_empty_queue_returns_none(self):
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=1.0)
        assert queue.flush_one(make_algorithm(graph)) is None

    def test_degree_overlay_unwound(self):
        """After draining one pending insert at u, a new pending update
        at u must see the *graph* degree (now including the applied
        edge) rather than a double-counted overlay."""
        graph = make_graph()  # out_degree(0) == 2
        alg = make_algorithm(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))  # overlay: d_out(0) -> 3
        queue.flush_one(alg)         # applied: graph d_out(0) == 3
        item = queue.add(EdgeUpdate(0, 4))  # should see 3 + 1 = 4
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 4)
        )

    def test_partial_drain_keeps_remaining_overlay(self):
        graph = make_graph()
        alg = make_algorithm(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))  # insert #1 at node 0
        queue.add(EdgeUpdate(0, 4))  # insert #2 at node 0 (overlay d=4)
        queue.flush_one(alg)         # apply insert #1
        # overlay for the remaining pending insert must persist: a new
        # update at 0 sees graph degree 3 + remaining overlay 1 + 1 = 5
        item = queue.add(EdgeUpdate(0, 5))
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 5)
        )

    def test_drain_then_error_bound_consistent(self):
        graph = make_graph()
        alg = make_algorithm(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))
        queue.add(EdgeUpdate(1, 3))
        bound_two = queue.error_bound(2)
        queue.flush_one(alg)
        bound_one = queue.error_bound(2)
        assert 0.0 < bound_one < bound_two

    def test_full_drain_equals_flush(self):
        """Draining one-by-one reaches the same graph state as flush."""
        updates = [EdgeUpdate(0, 3), EdgeUpdate(3, 1), EdgeUpdate(0, 3)]
        g1, g2 = make_graph(), make_graph()
        a1, a2 = make_algorithm(g1), make_algorithm(g2)
        q1 = SeedQueue(g1, ALPHA, epsilon_r=10.0)
        q2 = SeedQueue(g2, ALPHA, epsilon_r=10.0)
        for u in updates:
            q1.add(u)
            q2.add(u)
        while q1.flush_one(a1) is not None:
            pass
        q2.flush(a2)
        assert set(g1.edges()) == set(g2.edges())
