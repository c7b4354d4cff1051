"""Tests for Agenda's lazy index maintenance."""

import numpy as np
import pytest

from repro.graph.updates import EdgeUpdate
from repro.ppr.agenda import Agenda
from repro.ppr.power_iteration import ppr_exact


class TestAgendaQuery:
    def test_query_accuracy_static(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.03

    def test_query_accuracy_after_updates(self, small_ba_graph, params):
        """The lazy refresh must keep post-update queries accurate."""
        alg = Agenda(small_ba_graph, params)
        alg.seed(1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.integers(0, 120, size=2)
            if u != v:
                alg.apply_update(EdgeUpdate(int(u), int(v)))
        exact = ppr_exact(alg.graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.05

    def test_timers_cover_all_subprocesses(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        alg.apply_update(EdgeUpdate(0, 30))
        alg.query(0)
        for name in (
            "Forward Push",
            "Lazy Index Update",
            "Random Walk",
            "Reverse Push",
            "Index Inaccuracy Update",
        ):
            assert alg.timers.count(name) >= 1, name


class TestInaccuracyTracking:
    def test_update_raises_sigma(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        assert alg.sigma.sum() == 0.0
        alg.apply_update(EdgeUpdate(0, 30))
        assert alg.sigma.sum() > 0.0

    def test_no_rebuild_on_update(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        builds_before = alg.timers.count("Index Build")
        alg.apply_update(EdgeUpdate(0, 30))
        assert alg.timers.count("Index Build") == builds_before

    def test_lazy_refresh_resets_sigma(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params, theta=1e-6)  # hair-trigger
        alg.seed(2)
        for v in (30, 40, 50):
            alg.apply_update(EdgeUpdate(0, v))
        sigma_before = alg.sigma.sum()
        alg.query(0)
        assert alg.last_query_stats.refreshed_nodes > 0
        assert alg.sigma.sum() < sigma_before

    def test_higher_tolerance_refreshes_fewer_nodes(self, small_ba_graph, params):
        """The theta budget modulates how much lazy work a query does.

        The tracked sigma bound is deliberately conservative (truncated
        reverse push slack applied to all nodes), so even theta = 1
        refreshes *something* after an update — but strictly less than
        a hair-trigger budget does.
        """
        relaxed = Agenda(small_ba_graph, params, theta=1.0)
        strict = Agenda(small_ba_graph.copy(), params, theta=1e-9)
        for alg in (relaxed, strict):
            alg.seed(3)
            alg.apply_update(EdgeUpdate(0, 30))
            alg.query(0)
        assert (
            relaxed.last_query_stats.refreshed_nodes
            <= strict.last_query_stats.refreshed_nodes
        )
        assert strict.last_query_stats.refreshed_nodes > 0

    def test_invalid_theta(self, small_ba_graph, params):
        with pytest.raises(ValueError):
            Agenda(small_ba_graph, params, theta=0.0)
        with pytest.raises(ValueError):
            Agenda(small_ba_graph, params, theta=1.5)


class TestHyperparameters:
    def test_defaults_match_paper(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        k = params.num_walks(120)
        assert alg.r_max == pytest.approx(1.0 / (params.alpha * k))
        assert alg.r_max_b == pytest.approx(1.0 / 120)

    def test_two_hyperparameters(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        assert alg.hyperparameter_names == ("r_max", "r_max_b")
        alg.set_hyperparameters(r_max=0.01, r_max_b=0.005)
        assert alg.get_hyperparameters() == {"r_max": 0.01, "r_max_b": 0.005}

    def test_hyperparameter_change_rebuilds_and_resets(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        alg.apply_update(EdgeUpdate(0, 30))
        assert alg.sigma.sum() > 0
        alg.set_hyperparameters(r_max=alg.r_max / 2)
        assert alg.sigma.sum() == 0.0

    def test_smaller_r_max_b_more_reverse_work(self, small_ba_graph, params):
        alg = Agenda(small_ba_graph, params)
        alg.set_hyperparameters(r_max_b=0.5)
        alg.apply_update(EdgeUpdate(0, 30))
        coarse = alg.timers.total("Reverse Push")
        alg.timers.reset()
        alg.set_hyperparameters(r_max_b=1e-6)
        alg.apply_update(EdgeUpdate(1, 31))
        fine = alg.timers.total("Reverse Push")
        assert fine > coarse
