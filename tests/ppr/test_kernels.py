"""Property tests for the vectorized whole-frontier push kernel.

The contract under test (see ``repro.ppr.kernels``): the vectorized
kernel performs the exact IEEE-754 operations of the pure-Python
synchronous reference, in the exact same order, so reserve *and*
residue must match :func:`reference_frontier_push` **bit-for-bit** —
on packed views, on slack-slot patched views, and with dangling nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, ring_graph
from repro.ppr.csr import csr_view
from repro.ppr.kernels import (
    frontier_push,
    power_phase,
    reference_frontier_push,
    resolve_engine,
)
from repro.ppr.names import ENGINES
from repro.ppr.power_iteration import ppr_exact_all_pairs

ALPHA = 0.2

edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    min_size=0,
    max_size=35,
)


def build_graph(edges, n=10):
    """Graph with ``n`` nodes; self-loops dropped, duplicates ignored.

    Nodes not reached by any edge stay isolated and nodes with only
    in-edges are dangling — both paths the kernels must handle.
    """
    g = DynamicGraph(num_nodes=n)
    for u, v in edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def slack_view(edges, extra_edges, n=10):
    """A CSR view whose rows carry slack slots.

    Materialize the packed store first, then add edges so the second
    ``csr_view`` call patches rows in place (slack-slot layout, where
    ``indptr[t + 1]`` is no longer the end of row ``t``).  Only the
    *fresh* view is valid — reads through the first facade are
    undefined after the patch (see ``repro.ppr.csr``).
    """
    g = build_graph(edges, n=n)
    csr_view(g)  # materialize the packed store
    for u, v in extra_edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return csr_view(g)


def assert_bit_for_bit(result, oracle):
    np.testing.assert_array_equal(result.reserve, oracle.reserve)
    np.testing.assert_array_equal(result.residue, oracle.residue)
    assert result.pushes == oracle.pushes


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_known_engines(self):
        assert ENGINES == ("scalar", "frontier")
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel engine"):
            resolve_engine("gpu")


# ----------------------------------------------------------------------
# frontier kernel vs the pure-Python synchronous oracle
# ----------------------------------------------------------------------
class TestFrontierBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(
        edges=edges_strategy,
        source=st.integers(0, 9),
        r_max_exp=st.integers(-6, -1),
    )
    def test_matches_reference_on_packed_views(
        self, edges, source, r_max_exp
    ):
        view = csr_view(build_graph(edges))
        r_max = 10.0**r_max_exp
        got = frontier_push(view, source, ALPHA, r_max)
        want = reference_frontier_push(view, source, ALPHA, r_max)
        assert_bit_for_bit(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=edges_strategy,
        extra=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=15,
        ),
        source=st.integers(0, 9),
        r_max_exp=st.integers(-6, -1),
    )
    def test_matches_reference_on_slack_views(
        self, edges, extra, source, r_max_exp
    ):
        view = slack_view(edges, extra)
        r_max = 10.0**r_max_exp
        got = frontier_push(view, source, ALPHA, r_max)
        want = reference_frontier_push(view, source, ALPHA, r_max)
        assert_bit_for_bit(got, want)

    def test_warm_start_matches_reference(self):
        g = barabasi_albert_graph(80, attach=2, seed=9)
        view = csr_view(g)
        coarse = frontier_push(view, 0, ALPHA, 1e-2)
        oracle = reference_frontier_push(
            view, 0, ALPHA, 1e-6,
            residue=coarse.residue.copy(),
            reserve=coarse.reserve.copy(),
        )
        resumed = frontier_push(
            view, 0, ALPHA, 1e-6,
            residue=coarse.residue, reserve=coarse.reserve,
        )
        assert_bit_for_bit(resumed, oracle)

    def test_dangling_only_target(self):
        g = DynamicGraph.from_edges([(0, 1)])  # node 1 dangling
        view = csr_view(g)
        got = frontier_push(view, view.to_index(0), ALPHA, 1e-10)
        want = reference_frontier_push(view, view.to_index(0), ALPHA, 1e-10)
        assert_bit_for_bit(got, want)
        assert got.reserve[view.to_index(1)] == pytest.approx(
            1 - ALPHA, abs=1e-8
        )

    def test_empty_graph(self):
        view = csr_view(DynamicGraph())
        result = frontier_push(view, 0, ALPHA, 0.1)
        assert result.pushes == 0
        assert result.reserve.size == 0

    @settings(max_examples=25, deadline=None)
    @given(edges=edges_strategy, r_max_exp=st.integers(-6, -1))
    def test_invariant_against_exact(self, edges, r_max_exp):
        """The FORA invariant holds for the synchronous schedule too."""
        g = build_graph(edges)
        view = csr_view(g)
        result = frontier_push(view, 0, ALPHA, 10.0**r_max_exp)
        pi_all = ppr_exact_all_pairs(g, alpha=ALPHA)
        reconstructed = result.reserve + result.residue @ pi_all
        np.testing.assert_allclose(reconstructed, pi_all[0], atol=1e-8)


# ----------------------------------------------------------------------
# SpeedPPR power phase on raw CSR rows
# ----------------------------------------------------------------------
class TestPowerPhase:
    @settings(max_examples=25, deadline=None)
    @given(edges=edges_strategy, source=st.integers(0, 9))
    def test_mass_conserved_each_state(self, edges, source):
        view = csr_view(build_graph(edges))
        residue = np.zeros(view.n)
        residue[source] = 1.0
        reserve = np.zeros(view.n)
        reserve, residue, sweeps = power_phase(
            view, residue, reserve, ALPHA, stop_mass=1e-6
        )
        assert reserve.sum() + residue.sum() == pytest.approx(1.0)
        assert float(residue.sum()) <= 1e-6 or sweeps == 200

    def test_converges_to_exact(self):
        g = ring_graph(7)
        view = csr_view(g)
        residue = np.zeros(view.n)
        residue[0] = 1.0
        reserve, residue, _ = power_phase(
            view, residue, np.zeros(view.n), ALPHA, stop_mass=1e-12
        )
        exact = ppr_exact_all_pairs(g, alpha=ALPHA)[0]
        np.testing.assert_allclose(reserve, exact, atol=1e-9)

    def test_slack_view_matches_packed(self):
        """The power phase reads slack rows exactly like packed rows."""
        edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
        extra = [(0, 5), (4, 6), (2, 7)]
        patched = slack_view(edges, extra)
        packed = csr_view(build_graph(edges + extra))

        def run(view):
            residue = np.zeros(view.n)
            residue[0] = 1.0
            reserve, _, _ = power_phase(
                view, residue, np.zeros(view.n), ALPHA, stop_mass=1e-10
            )
            return reserve

        np.testing.assert_allclose(run(patched), run(packed), atol=1e-12)
