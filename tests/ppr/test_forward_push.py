"""Tests for Forward Push, including the mass-conservation invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, ring_graph
from repro.ppr.csr import csr_view
from repro.ppr.forward_push import forward_push
from repro.ppr.power_iteration import ppr_exact_all_pairs

ALPHA = 0.2


def run_push(graph, source, r_max):
    view = csr_view(graph)
    return view, forward_push(view, view.to_index(source), ALPHA, r_max)


class TestBasics:
    def test_mass_conservation(self):
        g = barabasi_albert_graph(60, attach=2, seed=3)
        _, result = run_push(g, 0, 1e-4)
        assert result.reserve.sum() + result.residue.sum() == pytest.approx(1.0)

    def test_all_residues_below_threshold(self):
        g = barabasi_albert_graph(60, attach=2, seed=4)
        view, result = run_push(g, 0, 1e-4)
        degs = np.maximum(view.out_deg, 1)
        assert np.all(result.residue <= 1e-4 * degs + 1e-15)

    def test_tiny_r_max_approaches_exact(self):
        g = ring_graph(6)
        view, result = run_push(g, 0, 1e-12)
        exact = ppr_exact_all_pairs(g, alpha=ALPHA)[view.to_index(0)]
        np.testing.assert_allclose(result.reserve, exact, atol=1e-9)

    def test_huge_r_max_no_pushes(self):
        """With r_max >= 1 the source itself is never active."""
        g = ring_graph(4)
        _, result = run_push(g, 0, 1.5)
        assert result.pushes == 0
        assert result.residue.sum() == pytest.approx(1.0)

    def test_smaller_r_max_more_pushes(self):
        g = barabasi_albert_graph(80, attach=2, seed=5)
        _, coarse = run_push(g, 0, 1e-2)
        _, fine = run_push(g, 0, 1e-5)
        assert fine.pushes > coarse.pushes
        assert fine.residue.sum() < coarse.residue.sum()

    def test_dangling_node_accumulates_reserve(self):
        g = DynamicGraph.from_edges([(0, 1)])  # node 1 dangling
        view, result = run_push(g, 0, 1e-10)
        assert result.reserve[view.to_index(0)] == pytest.approx(ALPHA, abs=1e-8)
        assert result.reserve[view.to_index(1)] == pytest.approx(
            1 - ALPHA, abs=1e-8
        )

    def test_isolated_source(self):
        g = DynamicGraph(num_nodes=2)
        view, result = run_push(g, 0, 1e-10)
        assert result.reserve[0] == pytest.approx(1.0, abs=1e-9)

    def test_initial_vectors_reused(self):
        """Passing residue/reserve in continues a previous push."""
        g = ring_graph(8)
        view = csr_view(g)
        first = forward_push(view, 0, ALPHA, 1e-2)
        resumed = forward_push(
            view, 0, ALPHA, 1e-9, residue=first.residue, reserve=first.reserve
        )
        exact = ppr_exact_all_pairs(g, alpha=ALPHA)[0]
        np.testing.assert_allclose(resumed.reserve, exact, atol=1e-6)

    def test_empty_graph(self):
        view = csr_view(DynamicGraph())
        result = forward_push(view, 0, ALPHA, 0.1)
        assert result.pushes == 0


# ----------------------------------------------------------------------
# Property: the FORA invariant pi = reserve + residue . Pi holds exactly.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=25,
    ),
    source=st.integers(0, 7),
    r_max_exp=st.integers(-6, -1),
)
def test_push_invariant_against_exact(edges, source, r_max_exp):
    g = DynamicGraph(num_nodes=8)
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    view = csr_view(g)
    result = forward_push(view, view.to_index(source), ALPHA, 10.0**r_max_exp)
    pi_all = ppr_exact_all_pairs(g, alpha=ALPHA)
    # invariant: pi_s = reserve + sum_v residue[v] * pi_v
    reconstructed = result.reserve + result.residue @ pi_all
    np.testing.assert_allclose(
        reconstructed, pi_all[view.to_index(source)], atol=1e-8
    )


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=25,
    ),
    r_max_exp=st.integers(-6, -1),
)
def test_push_mass_and_nonnegativity(edges, r_max_exp):
    g = DynamicGraph(num_nodes=8)
    for u, v in edges:
        g.add_edge(u, v)
    view = csr_view(g)
    result = forward_push(view, 0, ALPHA, 10.0**r_max_exp)
    assert np.all(result.reserve >= 0)
    assert np.all(result.residue >= -1e-15)
    assert result.reserve.sum() + result.residue.sum() == pytest.approx(1.0)
