"""Tests for fixed-source PPR tracking (exact invariant maintenance)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate, random_update_stream
from repro.ppr.base import PPRParams
from repro.ppr.csr import csr_view
from repro.ppr.power_iteration import ppr_exact, ppr_exact_all_pairs
from repro.ppr.tracking import TrackedPPR, signed_forward_push

ALPHA = 0.2


def invariant_error(tracker, graph):
    """Max deviation of p + sum r(w) pi_w from pi_s (exact check)."""
    pi_all = ppr_exact_all_pairs(graph, alpha=ALPHA)
    view = csr_view(graph)
    s = view.to_index(tracker.source)
    reconstructed = tracker.reserve + tracker.residue @ pi_all
    return float(np.max(np.abs(reconstructed - pi_all[s])))


class TestSignedForwardPush:
    def test_matches_unsigned_push_for_positive_residue(self):
        from repro.ppr.forward_push import forward_push

        graph = barabasi_albert_graph(50, attach=2, seed=1)
        view = csr_view(graph)
        reserve = np.zeros(view.n)
        residue = np.zeros(view.n)
        residue[0] = 1.0
        signed_forward_push(view, residue, reserve, ALPHA, 1e-5)
        reference = forward_push(view, 0, ALPHA, 1e-5)
        np.testing.assert_allclose(reserve, reference.reserve, atol=1e-12)
        np.testing.assert_allclose(residue, reference.residue, atol=1e-12)

    def test_negative_residue_drains(self):
        graph = barabasi_albert_graph(50, attach=2, seed=2)
        view = csr_view(graph)
        reserve = np.zeros(view.n)
        residue = np.zeros(view.n)
        residue[0] = -1.0
        signed_forward_push(view, residue, reserve, ALPHA, 1e-6)
        degs = np.maximum(view.out_deg, 1)
        assert np.all(np.abs(residue) <= 1e-6 * degs + 1e-15)
        # total mass conserved (and negative)
        assert reserve.sum() + residue.sum() == pytest.approx(-1.0)

    def test_mixed_signs_cancel_correctly(self):
        graph = barabasi_albert_graph(40, attach=2, seed=3)
        view = csr_view(graph)
        reserve = np.zeros(view.n)
        residue = np.zeros(view.n)
        residue[0] = 0.5
        residue[1] = -0.5
        signed_forward_push(view, residue, reserve, ALPHA, 1e-7)
        assert reserve.sum() + residue.sum() == pytest.approx(0.0, abs=1e-12)


class TestTrackedPPR:
    def test_initial_estimate_accurate(self):
        graph = barabasi_albert_graph(60, attach=2, seed=4)
        tracker = TrackedPPR(graph, 0, PPRParams(walk_cap=3000), seed=0)
        exact = ppr_exact(graph, 0, alpha=ALPHA)
        estimate = tracker.estimate()
        assert max(
            abs(estimate[v] - exact[v]) for v in range(60)
        ) < 0.01

    def test_invariant_exact_after_updates(self):
        graph = barabasi_albert_graph(30, attach=2, seed=5)
        tracker = TrackedPPR(graph, 0, PPRParams(walk_cap=500), seed=1)
        stream = random_update_stream(graph, 20, rng=random.Random(6))
        for i in range(20):
            tracker.apply_update(stream[i])
        assert invariant_error(tracker, graph) < 1e-12

    def test_estimate_tracks_after_updates(self):
        graph = barabasi_albert_graph(60, attach=2, seed=7)
        tracker = TrackedPPR(
            graph, 0, PPRParams(walk_cap=3000), r_max=1e-5, seed=2
        )
        stream = random_update_stream(graph, 30, rng=random.Random(8))
        for i in range(30):
            tracker.apply_update(stream[i])
        exact = ppr_exact(graph, 0, alpha=ALPHA)
        estimate = tracker.estimate()
        assert max(
            abs(estimate[v] - exact[v]) for v in range(60)
        ) < 0.02
        assert tracker.updates_applied == 30

    def test_residual_mass_stays_bounded(self):
        graph = barabasi_albert_graph(50, attach=2, seed=9)
        tracker = TrackedPPR(graph, 0, PPRParams(walk_cap=500), seed=3)
        stream = random_update_stream(graph, 40, rng=random.Random(10))
        for i in range(40):
            tracker.apply_update(stream[i])
        # re-pushing keeps |r|_1 small (each entry <= r_max * deg)
        assert tracker.residual_mass() < 1.0

    def test_refresh_resets(self):
        graph = barabasi_albert_graph(40, attach=2, seed=11)
        tracker = TrackedPPR(graph, 0, PPRParams(walk_cap=500), seed=4)
        EdgeUpdate(0, 20).apply(graph)
        tracker.refresh()
        assert invariant_error(tracker, graph) < 1e-12

    def test_new_node_rejected(self):
        graph = barabasi_albert_graph(40, attach=2, seed=12)
        tracker = TrackedPPR(graph, 0, PPRParams(walk_cap=500), seed=5)
        with pytest.raises(ValueError, match="fixed node set"):
            tracker.apply_update(EdgeUpdate(0, 999))

    def test_invalid_r_max(self):
        graph = barabasi_albert_graph(40, attach=2, seed=13)
        with pytest.raises(ValueError):
            TrackedPPR(graph, 0, r_max=0.0)

    def test_dangling_transitions(self):
        """Updates that create/destroy dangling nodes keep exactness."""
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        tracker = TrackedPPR(graph, 0, PPRParams(walk_cap=500),
                             r_max=1e-7, seed=6)
        tracker.apply_update(EdgeUpdate(1, 2))  # delete -> 1 dangling
        assert invariant_error(tracker, graph) < 1e-12
        tracker.apply_update(EdgeUpdate(1, 0))  # insert from dangling
        assert invariant_error(tracker, graph) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    toggles=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
            lambda t: t[0] != t[1]
        ),
        min_size=1,
        max_size=12,
    ),
    source=st.integers(0, 7),
)
def test_tracking_invariant_property(toggles, source):
    """The exact invariant survives arbitrary toggle sequences."""
    graph = barabasi_albert_graph(8, attach=2, seed=14)
    tracker = TrackedPPR(
        graph, source, PPRParams(walk_cap=200), r_max=1e-6, seed=7
    )
    for u, v in toggles:
        tracker.apply_update(EdgeUpdate(u, v))
    assert invariant_error(tracker, graph) < 1e-10
