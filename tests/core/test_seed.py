"""Tests for the Seed reordering queue (Lemma 2 bookkeeping)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seed import SeedQueue, degree_adjustment_factor, source_excess
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.ppr.power_iteration import ppr_exact

ALPHA = 0.2


class TestLemma2Pieces:
    def test_factor_decreases_with_degree(self):
        assert degree_adjustment_factor(ALPHA, 1) > degree_adjustment_factor(
            ALPHA, 10
        )

    def test_factor_formula(self):
        expected = (1 - ALPHA * (1 - ALPHA)) / (ALPHA**2 * 4)
        assert degree_adjustment_factor(ALPHA, 4) == pytest.approx(expected)

    def test_factor_dangling_clamped(self):
        assert degree_adjustment_factor(ALPHA, 0) == degree_adjustment_factor(
            ALPHA, 1
        )

    def test_factor_invalid_alpha(self):
        with pytest.raises(ValueError):
            degree_adjustment_factor(0.0, 3)

    def test_source_excess_range(self):
        for d in (1, 2, 5, 100):
            excess = source_excess(ALPHA, d)
            assert 0.0 <= excess <= 1.0 - ALPHA + 1e-12

    def test_source_excess_degree_one(self):
        # e(G, s) = 1 for d = 1, so excess = 1 - alpha
        assert source_excess(ALPHA, 1) == pytest.approx(1.0 - ALPHA)

    def test_lemma2_bounds_true_ppr_shift(self):
        """One edge update shifts PPR by at most the Lemma 2 bound."""
        rng = np.random.default_rng(0)
        graph = barabasi_albert_graph(60, attach=2, seed=4)
        for trial in range(10):
            u, v = rng.choice(60, size=2, replace=False)
            update = EdgeUpdate(int(u), int(v))
            after = graph.copy()
            resolved = update.apply(after)
            d_after = max(after.out_degree(resolved.u), 1)
            for s in rng.choice(60, size=3, replace=False):
                s = int(s)
                bound = source_excess(
                    ALPHA, graph.out_degree(s)
                ) * degree_adjustment_factor(ALPHA, d_after)
                before_pi = ppr_exact(graph, s, alpha=ALPHA)
                after_pi = ppr_exact(after, s, alpha=ALPHA)
                shift = max(
                    abs(after_pi[t] - before_pi[t]) for t in range(60)
                )
                assert shift <= bound + 1e-9


class TestSeedQueue:
    def _graph(self):
        return DynamicGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)]
        )

    def test_empty_queue_zero_bound(self):
        queue = SeedQueue(self._graph(), ALPHA, epsilon_r=0.5)
        assert len(queue) == 0
        assert queue.error_bound(0) == 0.0
        assert not queue.should_flush(0)

    def test_add_accumulates_bound(self):
        queue = SeedQueue(self._graph(), ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 1), arrival=1.0)
        first = queue.error_bound(2)
        queue.add(EdgeUpdate(1, 0), arrival=2.0)
        assert queue.error_bound(2) > first

    def test_epsilon_zero_always_flushes(self):
        queue = SeedQueue(self._graph(), ALPHA, epsilon_r=0.0)
        queue.add(EdgeUpdate(0, 1))
        assert queue.should_flush(2)

    def test_threshold_controls_flush(self):
        graph = self._graph()
        strict = SeedQueue(graph, ALPHA, epsilon_r=1e-9)
        relaxed = SeedQueue(graph, ALPHA, epsilon_r=100.0)
        strict.add(EdgeUpdate(0, 1))
        relaxed.add(EdgeUpdate(0, 1))
        assert strict.should_flush(2)
        assert not relaxed.should_flush(2)

    def test_pending_degree_overlay(self):
        """The factor must use the post-update degree without mutating
        the live graph."""
        graph = self._graph()  # out_degree(0) == 2
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        item1 = queue.add(EdgeUpdate(0, 3))  # insert -> d_out(0) becomes 3
        assert graph.out_degree(0) == 2  # untouched
        assert item1.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 3)
        )
        item2 = queue.add(EdgeUpdate(0, 4))  # second insert -> degree 4
        assert item2.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 4)
        )

    def test_pending_toggle_of_same_edge(self):
        """Insert then delete of the same pending edge nets out."""
        graph = self._graph()
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3))  # would insert
        item = queue.add(EdgeUpdate(0, 3))  # pending state -> delete
        assert item.factor == pytest.approx(
            degree_adjustment_factor(ALPHA, 2)
        )

    def test_flush_applies_in_arrival_order(self):
        graph = self._graph()
        params = PPRParams(walk_cap=100)
        alg = Fora(graph, params)
        queue = SeedQueue(graph, ALPHA, epsilon_r=10.0)
        queue.add(EdgeUpdate(0, 3), arrival=1.0)
        queue.add(EdgeUpdate(3, 4), arrival=2.0)
        flushed = queue.flush(alg)
        assert [f.arrival for f in flushed] == [1.0, 2.0]
        assert graph.has_edge(0, 3)
        assert graph.has_edge(3, 4)
        assert len(queue) == 0
        assert queue.error_bound(0) == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SeedQueue(self._graph(), ALPHA, epsilon_r=-0.1)


# ----------------------------------------------------------------------
# Property: the accumulated bound equals the sum of per-update bounds
# and is monotone in queue length.
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    updates=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda t: t[0] != t[1]
        ),
        min_size=1,
        max_size=15,
    )
)
def test_error_bound_is_sum_of_factors(updates):
    graph = barabasi_albert_graph(10, attach=2, seed=3)
    queue = SeedQueue(graph, ALPHA, epsilon_r=1.0)
    factors = []
    for u, v in updates:
        item = queue.add(EdgeUpdate(u, v))
        factors.append(item.factor)
        source = 0
        expected = source_excess(ALPHA, queue._pending_out_degree(source)) * sum(
            factors
        )
        assert queue.error_bound(source) == pytest.approx(expected)
