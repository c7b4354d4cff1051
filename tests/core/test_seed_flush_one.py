"""Tests for draining the Seed queue one update at a time through
``apply_head`` (idle-time draining) and the degree overlay unwinding it
requires."""

import pytest

from repro.core.seed import SeedQueue, degree_adjustment_factor
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.queueing.replay import apply_head
from tests.core.seed_executor import ApplyExecutor, drain

ALPHA = 0.2


def make_graph():
    return DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])


def make_executor(graph):
    return ApplyExecutor(Fora(graph, PPRParams(walk_cap=100)))


def apply_one(executor, queue):
    request, _ = apply_head(executor, queue, flushing=False)
    return request


class TestFlushOne:
    def test_flushes_oldest_first(self):
        graph = make_graph()
        executor = make_executor(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3), arrival=1.0)
        queue.add(EdgeUpdate(3, 4), arrival=2.0)
        first = apply_one(executor, queue)
        assert first.arrival == 1.0
        assert graph.has_edge(0, 3)
        assert not graph.has_edge(3, 4)
        assert len(queue) == 1

    def test_empty_queue_returns_none(self):
        graph = make_graph()
        executor = make_executor(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=1.0)
        assert queue.peek() is None
        assert queue.discard_one() is None
        assert drain(executor, queue) == []
        assert executor.calls == 0

    def test_degree_overlay_unwound(self):
        """After draining one pending insert at u, a new pending update
        at u must see the *graph* degree (now including the applied
        edge) rather than a double-counted overlay."""
        graph = make_graph()  # out_degree(0) == 2
        executor = make_executor(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))  # overlay: d_out(0) -> 3
        apply_one(executor, queue)   # applied: graph d_out(0) == 3
        item = queue.add(EdgeUpdate(0, 4))  # should see 3 + 1 = 4
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 4)
        )

    def test_partial_drain_keeps_remaining_overlay(self):
        graph = make_graph()
        executor = make_executor(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))  # insert #1 at node 0
        queue.add(EdgeUpdate(0, 4))  # insert #2 at node 0 (overlay d=4)
        apply_one(executor, queue)   # apply insert #1
        # overlay for the remaining pending insert must persist: a new
        # update at 0 sees graph degree 3 + remaining overlay 1 + 1 = 5
        item = queue.add(EdgeUpdate(0, 5))
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 5)
        )

    def test_drain_then_error_bound_consistent(self):
        graph = make_graph()
        executor = make_executor(graph)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))
        queue.add(EdgeUpdate(1, 3))
        bound_two = queue.error_bound(2)
        apply_one(executor, queue)
        bound_one = queue.error_bound(2)
        assert 0.0 < bound_one < bound_two

    def test_full_drain_equals_flush(self):
        """Draining one at a time reaches the graph that applying the
        updates in arrival order does."""
        updates = [EdgeUpdate(0, 3), EdgeUpdate(3, 1), EdgeUpdate(0, 3)]
        g1, g2 = make_graph(), make_graph()
        executor = make_executor(g1)
        queue = SeedQueue(g1, ALPHA, epsilon_r=10.0)
        for u in updates:
            queue.add(u)
            u.apply(g2)
        while len(queue):
            apply_one(executor, queue)
        assert set(g1.edges()) == set(g2.edges())
