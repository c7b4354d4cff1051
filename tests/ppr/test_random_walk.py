"""Tests for vectorized random walks and the WalkIndex."""

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import complete_graph, ring_graph
from repro.ppr.csr import csr_view
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.random_walk import (
    sample_walk_terminals,
    WalkIndex,
    walk_steps_estimate,
)

ALPHA = 0.2


class TestSampleWalkTerminals:
    def test_empirical_distribution_matches_ppr(self):
        g = ring_graph(5)
        view = csr_view(g)
        rng = np.random.default_rng(0)
        num = 60_000
        terminals = sample_walk_terminals(
            view, np.zeros(num, dtype=np.int64), ALPHA, rng
        )
        counts = np.bincount(terminals, minlength=5) / num
        exact = ppr_exact(g, 0, alpha=ALPHA)
        for t in range(5):
            assert counts[t] == pytest.approx(exact[t], abs=0.01)

    def test_dangling_walk_terminates_in_place(self):
        g = DynamicGraph.from_edges([(0, 1)])  # 1 is dangling
        view = csr_view(g)
        rng = np.random.default_rng(1)
        terminals = sample_walk_terminals(
            view, np.full(5000, view.to_index(1), dtype=np.int64), ALPHA, rng
        )
        assert np.all(terminals == view.to_index(1))

    def test_empty_batch(self):
        g = ring_graph(3)
        view = csr_view(g)
        rng = np.random.default_rng(2)
        out = sample_walk_terminals(view, np.empty(0, dtype=np.int64), ALPHA, rng)
        assert out.size == 0

    def test_terminals_are_valid_indices(self):
        g = complete_graph(8)
        view = csr_view(g)
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 8, size=1000)
        terminals = sample_walk_terminals(view, starts, ALPHA, rng)
        assert np.all((terminals >= 0) & (terminals < 8))

    def test_alpha_one_terminates_immediately(self):
        g = complete_graph(4)
        view = csr_view(g)
        rng = np.random.default_rng(4)
        starts = np.arange(4, dtype=np.int64)
        terminals = sample_walk_terminals(view, starts, 1.0 - 1e-12, rng)
        np.testing.assert_array_equal(terminals, starts)

    def test_deterministic_given_seed(self):
        g = complete_graph(6)
        view = csr_view(g)
        starts = np.zeros(100, dtype=np.int64)
        a = sample_walk_terminals(view, starts, ALPHA, np.random.default_rng(9))
        b = sample_walk_terminals(view, starts, ALPHA, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


def test_walk_steps_estimate():
    assert walk_steps_estimate(100, 0.2) == pytest.approx(400.0)
    assert walk_steps_estimate(0, 0.2) == 0.0


class TestWalkIndex:
    def _index(self, graph, walks_per_unit=2.0, seed=0):
        view = csr_view(graph)
        rng = np.random.default_rng(seed)
        return view, WalkIndex(view, ALPHA, walks_per_unit, rng)

    def test_counts_scale_with_degree(self):
        g = complete_graph(5)  # every out-degree 4
        _, index = self._index(g, walks_per_unit=2.0)
        assert np.all(index.counts == 8)
        assert index.total_walks == 40

    def test_minimum_one_walk_per_node(self):
        g = DynamicGraph.from_edges([(0, 1)])  # node 1 dangling
        _, index = self._index(g, walks_per_unit=1e-9)
        assert np.all(index.counts >= 1)

    def test_terminals_for_truncates(self):
        g = complete_graph(4)
        _, index = self._index(g, walks_per_unit=3.0)
        got = index.terminals_for(0, 2)
        assert got.size == 2

    def test_terminals_for_recycles_when_short(self):
        g = complete_graph(4)
        _, index = self._index(g, walks_per_unit=1.0)  # 3 walks per node
        got = index.terminals_for(0, 10)
        assert got.size == 10
        stored = index.terminals[index.offsets[0]:index.offsets[1]]
        np.testing.assert_array_equal(got[:3], stored)

    def test_rebuild_changes_view(self):
        g = ring_graph(5)
        view, index = self._index(g)
        g.add_edge(0, 2)
        new_view = csr_view(g)
        sampled = index.rebuild(new_view)
        assert index.view is new_view
        assert sampled == index.total_walks

    def test_refresh_nodes_only_touches_selected(self):
        g = complete_graph(6)
        view, index = self._index(g, walks_per_unit=5.0, seed=1)
        before = index.terminals.copy()
        resampled = index.refresh_nodes(view, np.array([2]))
        lo, hi = index.offsets[2], index.offsets[3]
        assert resampled == hi - lo
        # untouched slices are bit-identical
        np.testing.assert_array_equal(index.terminals[:lo], before[:lo])
        np.testing.assert_array_equal(index.terminals[hi:], before[hi:])

    def test_refresh_empty_selection(self):
        g = ring_graph(4)
        view, index = self._index(g)
        assert index.refresh_nodes(view, np.empty(0, dtype=np.int64)) == 0

    def test_refresh_nodes_tracks_degree_churn(self):
        """Regression: refreshed nodes re-derive their walk budget from
        the *current* out-degree instead of keeping the build-time
        count forever (the stale-count drift bug)."""
        g = complete_graph(6)
        view, index = self._index(g, walks_per_unit=2.0, seed=3)
        assert index.counts[0] == 10  # ceil(2.0 * 5)

        # degree churn both ways: node 0 gains an edge, node 1 loses one
        g.add_node(6)
        g.add_edge(0, 6)
        g.remove_edge(1, 2)
        view = csr_view(g)
        index.refresh_nodes(view, np.array([0, 1]))

        expected = np.maximum(
            np.ceil(
                index.walks_per_unit * np.maximum(view.out_deg, 1)
            ).astype(np.int64),
            1,
        )
        assert index.counts[view.to_index(0)] == expected[view.to_index(0)]
        assert index.counts[view.to_index(1)] == expected[view.to_index(1)]
        assert index.total_walks == int(index.counts.sum())
        # every row (grown, shrunk, untouched, and the brand-new node
        # 6) serves in-range terminals sized to its current budget
        for i in range(view.n):
            row = index.terminals_for(i, int(index.counts[i]))
            assert row.size == int(index.counts[i])
            assert ((row >= 0) & (row < view.n)).all()

    def test_traced_sampling_consumes_rng_identically(self):
        """The trace parameter must not perturb the random stream:
        seeded terminals are bit-for-bit equal traced and untraced."""
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        # node 3 dangling: exercises the held-walk pseudo-step record
        view = csr_view(g)
        starts = np.arange(4, dtype=np.int64).repeat(200)
        plain = sample_walk_terminals(
            view, starts, ALPHA, np.random.default_rng(7)
        )
        trace = []
        traced = sample_walk_terminals(
            view, starts, ALPHA, np.random.default_rng(7), trace=trace
        )
        np.testing.assert_array_equal(plain, traced)
        assert trace  # something was recorded

    def test_index_distribution_statistics(self):
        """Stored terminals for a node follow its PPR distribution."""
        g = ring_graph(4)
        view = csr_view(g)
        rng = np.random.default_rng(5)
        index = WalkIndex(view, ALPHA, walks_per_unit=5000.0, rng=rng)
        exact = ppr_exact(g, 0, alpha=ALPHA)
        lo, hi = index.offsets[0], index.offsets[1]
        stored = index.terminals[lo:hi]
        counts = np.bincount(stored, minlength=4) / stored.size
        for t in range(4):
            assert counts[t] == pytest.approx(exact[t], abs=0.02)
