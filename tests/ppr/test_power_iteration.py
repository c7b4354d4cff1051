"""Tests for the exact power-iteration oracle."""

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import complete_graph, ring_graph, star_graph
from repro.ppr.power_iteration import ppr_exact, ppr_exact_all_pairs

ALPHA = 0.2


class TestAnalyticValues:
    def test_two_node_cycle(self):
        """0 -> 1 -> 0: closed-form geometric series."""
        g = DynamicGraph.from_edges([(0, 1), (1, 0)])
        pi = ppr_exact(g, 0, alpha=ALPHA)
        denom = 1 - (1 - ALPHA) ** 2
        assert pi[0] == pytest.approx(ALPHA / denom, abs=1e-9)
        assert pi[1] == pytest.approx(ALPHA * (1 - ALPHA) / denom, abs=1e-9)

    def test_directed_ring(self):
        """pi(0, t) = alpha (1-a)^d / (1 - (1-a)^n) on a directed n-ring."""
        n = 5
        g = ring_graph(n)
        pi = ppr_exact(g, 0, alpha=ALPHA)
        denom = 1 - (1 - ALPHA) ** n
        for d in range(n):
            assert pi[d] == pytest.approx(
                ALPHA * (1 - ALPHA) ** d / denom, abs=1e-9
            )

    def test_dangling_node(self):
        """0 -> 1 with 1 dangling: mass splits alpha / (1 - alpha)."""
        g = DynamicGraph.from_edges([(0, 1)])
        pi = ppr_exact(g, 0, alpha=ALPHA)
        assert pi[0] == pytest.approx(ALPHA, abs=1e-9)
        assert pi[1] == pytest.approx(1 - ALPHA, abs=1e-9)

    def test_isolated_source(self):
        g = DynamicGraph(num_nodes=3)
        pi = ppr_exact(g, 1, alpha=ALPHA)
        assert pi[1] == pytest.approx(1.0, abs=1e-9)
        assert pi[0] == 0.0

    def test_complete_graph_symmetry(self):
        g = complete_graph(6)
        pi = ppr_exact(g, 0, alpha=ALPHA)
        others = [pi[v] for v in range(1, 6)]
        assert max(others) - min(others) < 1e-12
        assert pi[0] > others[0]  # source holds at least alpha

    def test_star_hub_vs_leaf(self):
        g = star_graph(5)
        pi_hub = ppr_exact(g, 0, alpha=ALPHA)
        # leaves are symmetric from the hub
        leaf_values = [pi_hub[v] for v in range(1, 5)]
        assert max(leaf_values) - min(leaf_values) < 1e-12


class TestDistributionProperties:
    def test_sums_to_one(self):
        g = ring_graph(10)
        pi = ppr_exact(g, 3, alpha=ALPHA)
        assert pi.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_source_at_least_alpha(self):
        g = complete_graph(4)
        for s in range(4):
            assert ppr_exact(g, s, alpha=ALPHA)[s] >= ALPHA - 1e-12

    def test_nonnegative(self):
        g = star_graph(7)
        pi = ppr_exact(g, 2, alpha=ALPHA)
        assert all(pi[v] >= 0 for v in range(7))


class TestAllPairs:
    def test_matches_single_source(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
        matrix = ppr_exact_all_pairs(g, alpha=ALPHA)
        for s in range(3):
            pi = ppr_exact(g, s, alpha=ALPHA)
            for t in range(3):
                assert matrix[s, t] == pytest.approx(pi[t], abs=1e-9)

    def test_rows_sum_to_one(self):
        g = ring_graph(6)
        matrix = ppr_exact_all_pairs(g, alpha=ALPHA)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_graph(self):
        assert ppr_exact_all_pairs(DynamicGraph()).shape == (0, 0)
