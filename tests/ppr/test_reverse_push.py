"""Tests for Reverse Push and its backward invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, ring_graph
from repro.ppr.csr import csr_view
from repro.ppr.power_iteration import ppr_exact_all_pairs
from repro.ppr.reverse_push import reverse_push

ALPHA = 0.2


class TestBasics:
    def test_reserve_lower_bounds_ppr(self):
        g = barabasi_albert_graph(50, attach=2, seed=6)
        view = csr_view(g, reverse=True)
        target = 0
        result = reverse_push(view, view.to_index(target), ALPHA, 1e-5)
        pi_all = ppr_exact_all_pairs(g, alpha=ALPHA)
        for s in range(50):
            i = view.to_index(s)
            assert result.reserve[i] <= pi_all[i, view.to_index(target)] + 1e-9

    def test_tiny_threshold_approaches_exact(self):
        g = ring_graph(6)
        view = csr_view(g, reverse=True)
        result = reverse_push(view, 0, ALPHA, 1e-12)
        pi_all = ppr_exact_all_pairs(g, alpha=ALPHA)
        np.testing.assert_allclose(result.reserve, pi_all[:, 0], atol=1e-9)

    def test_huge_threshold_no_pushes(self):
        g = ring_graph(4)
        view = csr_view(g, reverse=True)
        result = reverse_push(view, 0, ALPHA, 1.5)
        assert result.pushes == 0
        assert result.residue[0] == 1.0

    def test_max_pushes_cap(self):
        g = barabasi_albert_graph(100, attach=3, seed=7)
        view = csr_view(g, reverse=True)
        result = reverse_push(view, 0, ALPHA, 1e-9, max_pushes=5)
        assert result.pushes == 5

    def test_no_in_neighbors(self):
        """A source-only node: its reverse push stays local."""
        g = DynamicGraph.from_edges([(0, 1)])
        view = csr_view(g, reverse=True)
        result = reverse_push(view, view.to_index(0), ALPHA, 1e-9)
        # only node 0 can reach node 0
        assert result.reserve[view.to_index(1)] == 0.0
        assert result.reserve[view.to_index(0)] == pytest.approx(
            ALPHA, abs=1e-9
        )

    def test_empty_graph(self):
        view = csr_view(DynamicGraph(), reverse=True)
        result = reverse_push(view, 0, ALPHA, 0.1)
        assert result.pushes == 0

    def test_a_view_without_in_rows_is_refused(self):
        view = csr_view(DynamicGraph.from_edges([(0, 1)]))
        assert view.in_deg is None
        with pytest.raises(ValueError, match="reverse=True"):
            reverse_push(view, 0, ALPHA, 0.1)


# ----------------------------------------------------------------------
# Property: pi(s, t) = reserve_b(s) + sum_v pi(s, v) residue_b(v).
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=20,
    ),
    target=st.integers(0, 6),
    r_max_exp=st.integers(-6, -1),
)
def test_reverse_invariant_against_exact(edges, target, r_max_exp):
    g = DynamicGraph(num_nodes=7)
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    view = csr_view(g, reverse=True)
    t = view.to_index(target)
    result = reverse_push(view, t, ALPHA, 10.0**r_max_exp)
    pi_all = ppr_exact_all_pairs(g, alpha=ALPHA)
    reconstructed = result.reserve + pi_all @ result.residue
    np.testing.assert_allclose(reconstructed, pi_all[:, t], atol=1e-8)
