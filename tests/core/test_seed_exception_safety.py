"""Regression tests for the Issue-3 SeedQueue fixes.

Bug 1: ``flush`` cleared ``_pending``/``_degree_delta`` *before*
applying, so a failing update silently dropped every remaining update
and left the overlay desynced from the graph.  Now each update is
applied before it is popped and the failure propagates.

Bug 2: ``_edge_exists_pending`` scanned the whole pending queue per
``add`` (O(n^2) growth under sustained overload); it is now an O(1)
parity-set lookup.
"""

import pytest

from repro.core.seed import SeedQueue, degree_adjustment_factor
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora

ALPHA = 0.2


def make_graph():
    return DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])


class FlakyApplier:
    """Applies updates to a graph, raising on chosen call numbers."""

    def __init__(self, graph, fail_on=()):
        self.graph = graph
        self.fail_on = set(fail_on)
        self.calls = 0

    def apply_update(self, update):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError(f"injected failure on call {self.calls}")
        return update.apply(self.graph)


class TestFlushExceptionSafety:
    def test_failure_propagates(self):
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))
        with pytest.raises(RuntimeError, match="injected"):
            queue.flush(FlakyApplier(graph, fail_on={1}))

    def test_failing_update_stays_at_head(self):
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3), arrival=1.0)
        queue.add(EdgeUpdate(3, 4), arrival=2.0)  # will fail
        queue.add(EdgeUpdate(4, 5), arrival=3.0)
        applier = FlakyApplier(graph, fail_on={2})
        with pytest.raises(RuntimeError):
            queue.flush(applier)
        # applied prefix removed, failing update still queued first
        assert graph.has_edge(0, 3)
        assert len(queue) == 2
        head = queue.peek()
        assert (head.update.u, head.update.v) == (3, 4)
        assert head.arrival == 2.0

    def test_overlay_consistent_after_failure(self):
        """The degree overlay must describe exactly the *remaining*
        suffix after a failed flush — not the already-applied prefix."""
        graph = make_graph()  # out_degree(0) == 2
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))  # applies fine -> graph d_out(0)=3
        queue.add(EdgeUpdate(0, 4))  # fails, stays pending (overlay +1)
        applier = FlakyApplier(graph, fail_on={2})
        with pytest.raises(RuntimeError):
            queue.flush(applier)
        # graph d_out(0)=3, pending (0,4) adds 1, new update adds 1 -> 5
        item = queue.add(EdgeUpdate(0, 5))
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 5)
        )

    def test_retry_after_transient_failure_succeeds(self):
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        for update in (EdgeUpdate(0, 3), EdgeUpdate(3, 4), EdgeUpdate(4, 5)):
            queue.add(update)
        applier = FlakyApplier(graph, fail_on={2})
        with pytest.raises(RuntimeError):
            queue.flush(applier)
        flushed = queue.flush(applier)  # transient: retry works
        assert [f.update.v for f in flushed] == [4, 5]
        assert len(queue) == 0
        assert queue.error_bound(0) == 0.0

    def test_flush_one_failure_keeps_item_queued(self):
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))
        with pytest.raises(RuntimeError):
            queue.flush_one(FlakyApplier(graph, fail_on={1}))
        assert len(queue) == 1
        assert not graph.has_edge(0, 3)

    def test_discard_one_drops_without_applying(self):
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))
        queue.add(EdgeUpdate(0, 4))
        dropped = queue.discard_one()
        assert (dropped.update.u, dropped.update.v) == (0, 3)
        assert not graph.has_edge(0, 3)
        assert len(queue) == 1
        # overlay unwound: only (0,4) pending -> next add at 0 sees
        # graph degree 2 + 1 pending + 1 itself = 4
        item = queue.add(EdgeUpdate(0, 5))
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 4)
        )

    def test_discard_one_empty(self):
        queue = SeedQueue(make_graph(), ALPHA, epsilon_r=1.0)
        assert queue.discard_one() is None


class CountingGraph:
    """Proxy counting ``has_edge`` calls (the old hot path of add)."""

    def __init__(self, graph):
        self._graph = graph
        self.has_edge_calls = 0

    def has_edge(self, u, v):
        self.has_edge_calls += 1
        return self._graph.has_edge(u, v)

    def __getattr__(self, name):
        return getattr(self._graph, name)


class TestAddComplexity:
    def test_add_is_amortized_constant(self):
        """Each add makes O(1) graph lookups regardless of queue depth.

        The seed implementation re-scanned the whole pending list per
        add (one ``has_edge`` per pending item); with the parity set,
        the lookup count stays flat as the queue grows.
        """
        graph = CountingGraph(make_graph())
        queue = SeedQueue(graph, ALPHA, epsilon_r=1e9)
        depth = 500
        for i in range(depth):
            queue.add(EdgeUpdate(i % 7, 100 + i))
        # old behaviour: sum over n of O(n) ~ depth^2/2 calls; new: one
        # per add (plus the degree lookup, which goes via __getattr__)
        assert graph.has_edge_calls <= 2 * depth

    def test_parity_tracks_toggles(self):
        """Repeated toggles of one edge alternate insert/delete deltas."""
        graph = make_graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=1e9)
        first = queue.add(EdgeUpdate(0, 9))
        second = queue.add(EdgeUpdate(0, 9))
        third = queue.add(EdgeUpdate(0, 9))
        assert (first.delta, second.delta, third.delta) == (1, -1, 1)

    def test_parity_respects_existing_edges(self):
        graph = make_graph()  # has (0, 1)
        queue = SeedQueue(graph, ALPHA, epsilon_r=1e9)
        first = queue.add(EdgeUpdate(0, 1))   # pending delete
        second = queue.add(EdgeUpdate(0, 1))  # pending re-insert
        assert (first.delta, second.delta) == (-1, 1)

    def test_parity_matches_flush_result(self):
        """Pending-existence answers must equal post-flush reality."""
        graph = make_graph()
        algo = Fora(graph, PPRParams(walk_cap=100))
        queue = SeedQueue(graph, ALPHA, epsilon_r=1e9)
        edges = [(0, 1), (0, 9), (0, 1), (1, 2), (0, 9), (0, 9)]
        for u, v in edges:
            queue.add(EdgeUpdate(u, v))
        predicted = {
            (u, v): queue._edge_exists_pending(u, v)
            for (u, v) in set(edges)
        }
        queue.flush(algo)
        for (u, v), exists in predicted.items():
            assert graph.has_edge(u, v) == exists
