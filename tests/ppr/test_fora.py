"""Tests for FORA and FORA+."""

import numpy as np
import pytest

from repro.graph import EdgeUpdate
from repro.ppr import Fora, ForaPlus, ppr_exact


class TestFora:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = Fora(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.02
        assert estimate.total_mass() == pytest.approx(1.0, abs=0.05)

    def test_relative_error_guarantee_spotcheck(self, small_ba_graph, params):
        """Eq. 1 on nodes above delta (statistical; seeded)."""
        alg = Fora(small_ba_graph, params)
        alg.seed(1)
        exact = ppr_exact(small_ba_graph, 5, alpha=params.alpha)
        estimate = alg.query(5)
        delta = params.resolved_delta(120)
        for v in range(120):
            if exact[v] > delta:
                rel = abs(estimate[v] - exact[v]) / exact[v]
                assert rel <= params.epsilon

    def test_update_is_graph_only(self, small_ba_graph, params):
        alg = Fora(small_ba_graph, params)
        resolved = alg.apply_update(EdgeUpdate(0, 99))
        assert resolved.kind in ("insert", "delete")
        assert alg.timers.count("Graph Update") == 1
        assert alg.timers.count("Index Build") == 0

    def test_query_reflects_update(self, params):
        from repro.graph import DynamicGraph

        g = DynamicGraph.from_edges([(0, 1), (1, 0)])
        alg = Fora(g, params)
        alg.seed(2)
        alg.apply_update(EdgeUpdate(0, 2))  # insert 0 -> 2
        estimate = alg.query(0)
        assert estimate[2] > 0.0

    def test_default_r_max_formula(self, small_ba_graph, params):
        alg = Fora(small_ba_graph, params)
        view = alg.view
        k = params.num_walks(view.n)
        expected = 1.0 / np.sqrt(params.alpha * view.m * k)
        assert alg.r_max == pytest.approx(expected)

    def test_set_hyperparameters(self, small_ba_graph, params):
        alg = Fora(small_ba_graph, params)
        alg.set_hyperparameters(r_max=0.01)
        assert alg.r_max == 0.01
        with pytest.raises(ValueError):
            alg.set_hyperparameters(nope=0.5)
        with pytest.raises(ValueError):
            alg.set_hyperparameters(r_max=2.0)

    def test_smaller_r_max_fewer_walks(self, small_ba_graph, params):
        alg = Fora(small_ba_graph, params)
        alg.seed(3)
        alg.set_hyperparameters(r_max=1e-2)
        alg.query(0)
        coarse_walks = alg.last_query_stats.walks
        coarse_pushes = alg.last_query_stats.pushes
        alg.set_hyperparameters(r_max=1e-5)
        alg.query(0)
        assert alg.last_query_stats.walks < coarse_walks
        assert alg.last_query_stats.pushes > coarse_pushes

    def test_timers_populated(self, small_ba_graph, params):
        alg = Fora(small_ba_graph, params)
        alg.query(0)
        assert alg.timers.count("Forward Push") == 1
        assert alg.timers.count("Random Walk") == 1


class TestForaPlus:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = ForaPlus(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.03

    def test_update_rebuilds_index(self, small_ba_graph, params):
        alg = ForaPlus(small_ba_graph, params)
        builds_before = alg.timers.count("Index Build")
        alg.apply_update(EdgeUpdate(0, 50))
        assert alg.timers.count("Index Build") == builds_before + 1

    def test_compaction_does_not_rebuild_index(self, small_ba_graph, params):
        """Regression: a fresh CSR view *object* at the same graph
        version (e.g. after slack-slot compaction) must not trigger an
        O(m r_max K) index rebuild — the trigger keys on version."""
        alg = ForaPlus(small_ba_graph, params)
        alg.seed(1)
        builds_before = alg.timers.count("Index Build")
        small_ba_graph._csr_cache = None  # force a brand-new view object
        assert alg.view is not alg.index.view
        alg.query(0)
        assert alg.timers.count("Index Build") == builds_before

    def test_invalid_index_maintenance_rejected(self, small_ba_graph, params):
        import pytest

        # the policy is a class attribute (the registry name is the only
        # selector), so an unknown one is rejected where it is declared
        with pytest.raises(ValueError, match="index_maintenance"):

            class LazyForaPlus(ForaPlus):
                index_maintenance = "lazy"

    def test_index_budget_tracks_r_max(self, small_ba_graph, params):
        alg = ForaPlus(small_ba_graph, params)
        walks_default = alg.index.total_walks
        alg.set_hyperparameters(r_max=alg.r_max * 4)
        assert alg.index.total_walks > walks_default

    def test_query_after_update_uses_fresh_index(self, params):
        from repro.graph import DynamicGraph

        g = DynamicGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 0)])
        alg = ForaPlus(g, params)
        alg.seed(4)
        alg.apply_update(EdgeUpdate(1, 2))  # delete 1 -> 2
        estimate = alg.query(0)
        exact = ppr_exact(g, 0, alpha=params.alpha)
        assert abs(estimate[2] - exact[2]) < 0.05

    def test_is_index_based_flags(self, small_ba_graph, params):
        assert not Fora(small_ba_graph, params).is_index_based
        assert ForaPlus(small_ba_graph.copy(), params).is_index_based
