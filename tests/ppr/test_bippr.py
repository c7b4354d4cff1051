"""Tests for single-pair bidirectional PPR estimation."""

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, ring_graph
from repro.ppr.base import PPRParams
from repro.ppr.bippr import ppr_single_pair
from repro.ppr.power_iteration import ppr_exact

ALPHA = 0.2


class TestAccuracy:
    def test_matches_exact_on_ring(self):
        graph = ring_graph(6)
        exact = ppr_exact(graph, 0, alpha=ALPHA)
        estimate = ppr_single_pair(
            graph, 0, 2, r_max_b=1e-8, num_walks=200, rng=0
        )
        # with a tiny backward threshold the estimate is nearly exact
        assert estimate.value == pytest.approx(exact[2], abs=1e-4)

    def test_reasonable_on_powerlaw(self):
        graph = barabasi_albert_graph(150, attach=3, seed=8)
        exact = ppr_exact(graph, 5, alpha=ALPHA)
        target = exact.top_k(3)[1][0]  # a high-PPR target
        estimate = ppr_single_pair(
            graph, 5, target, num_walks=4000, rng=1
        )
        assert estimate.value == pytest.approx(exact[target], rel=0.35)

    def test_source_self_pair(self):
        graph = barabasi_albert_graph(60, attach=2, seed=9)
        exact = ppr_exact(graph, 3, alpha=ALPHA)
        estimate = ppr_single_pair(
            graph, 3, 3, r_max_b=1e-6, num_walks=2000, rng=2
        )
        assert estimate.value == pytest.approx(exact[3], rel=0.1)

    def test_unreachable_target_is_zero(self):
        graph = DynamicGraph.from_edges([(0, 1), (2, 3)])
        estimate = ppr_single_pair(
            graph, 0, 3, r_max_b=1e-9, num_walks=500, rng=3
        )
        assert estimate.value == pytest.approx(0.0, abs=1e-6)


class TestMechanics:
    def test_components_sum_to_value(self):
        graph = barabasi_albert_graph(80, attach=2, seed=10)
        estimate = ppr_single_pair(graph, 0, 7, rng=4)
        assert estimate.value == pytest.approx(
            estimate.backward_reserve + estimate.walk_contribution
        )

    def test_tighter_push_shifts_work_from_walks(self):
        graph = barabasi_albert_graph(80, attach=2, seed=11)
        loose = ppr_single_pair(graph, 0, 7, r_max_b=1e-2, rng=5)
        tight = ppr_single_pair(graph, 0, 7, r_max_b=1e-6, rng=5)
        assert tight.reverse_pushes > loose.reverse_pushes

    def test_deterministic_given_seed(self):
        graph = barabasi_albert_graph(80, attach=2, seed=12)
        a = ppr_single_pair(graph, 0, 9, rng=6)
        b = ppr_single_pair(graph, 0, 9, rng=6)
        assert a.value == b.value

    def test_estimate_nonnegative(self):
        graph = barabasi_albert_graph(80, attach=2, seed=13)
        for target in (1, 20, 50):
            estimate = ppr_single_pair(graph, 0, target, rng=7)
            assert estimate.value >= 0.0


def test_statistical_consistency():
    """Averaged over many seeds the estimator is unbiased."""
    graph = ring_graph(5)
    exact = ppr_exact(graph, 0, alpha=ALPHA)
    values = [
        ppr_single_pair(
            graph, 0, 1, r_max_b=0.05, num_walks=300, rng=seed
        ).value
        for seed in range(30)
    ]
    assert float(np.mean(values)) == pytest.approx(exact[1], rel=0.05)
