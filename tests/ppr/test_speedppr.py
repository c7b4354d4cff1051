"""Tests for SpeedPPR and SpeedPPR+."""

from repro.graph.updates import EdgeUpdate
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.speedppr import SpeedPPR, SpeedPPRPlus


class TestSpeedPPR:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.02

    def test_power_iteration_phase_runs(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.query(0)
        assert alg.last_query_stats.extra["sweeps"] >= 1
        assert alg.timers.count("Power Iteration") == 1

    def test_smaller_r_max_more_sweeps(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.seed(1)
        alg.set_hyperparameters(r_max=1e-2)
        alg.query(0)
        coarse_sweeps = alg.last_query_stats.extra["sweeps"]
        alg.set_hyperparameters(r_max=1e-6)
        alg.query(0)
        assert alg.last_query_stats.extra["sweeps"] > coarse_sweeps

    def test_update_is_graph_only(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.apply_update(EdgeUpdate(0, 60))
        assert alg.timers.count("Graph Update") == 1
        assert alg.timers.count("Index Build") == 0

    def test_transition_matrix_cached_between_queries(self, small_ba_graph, params):
        alg = SpeedPPR(small_ba_graph, params)
        alg.query(0)
        matrix_a = alg._matrix_t
        alg.query(1)
        assert alg._matrix_t is matrix_a
        alg.apply_update(EdgeUpdate(2, 70))
        alg.query(0)
        assert alg._matrix_t is not matrix_a

    def test_query_reflects_update(self, params):
        from repro.graph.digraph import DynamicGraph

        g = DynamicGraph.from_edges([(0, 1), (1, 0)])
        alg = SpeedPPR(g, params)
        alg.seed(2)
        alg.apply_update(EdgeUpdate(0, 2))
        assert alg.query(0)[2] > 0.0


class TestSpeedPPRPlus:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = SpeedPPRPlus(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 3, alpha=params.alpha)
        estimate = alg.query(3)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.03

    def test_update_rebuilds_index(self, small_ba_graph, params):
        alg = SpeedPPRPlus(small_ba_graph, params)
        builds_before = alg.timers.count("Index Build")
        alg.apply_update(EdgeUpdate(0, 40))
        assert alg.timers.count("Index Build") == builds_before + 1

    def test_compaction_does_not_rebuild_index(self, small_ba_graph, params):
        """Same-version fresh view object must not force an index
        rebuild (mirror of the ForaPlus regression)."""
        alg = SpeedPPRPlus(small_ba_graph, params)
        alg.seed(1)
        builds_before = alg.timers.count("Index Build")
        small_ba_graph._csr_cache = None
        alg.query(0)
        assert alg.timers.count("Index Build") == builds_before

    def test_hyperparameter_change_rebuilds_index(self, small_ba_graph, params):
        alg = SpeedPPRPlus(small_ba_graph, params)
        builds_before = alg.timers.count("Index Build")
        alg.set_hyperparameters(r_max=alg.r_max / 2)
        assert alg.timers.count("Index Build") == builds_before + 1
