"""Unit tests for update-driven staleness charging."""

import math

import pytest

from repro.cache.staleness import (
    ChargingApplier,
    ReplayCache,
    StalenessTracker,
    lemma2_increment,
)
from repro.cache.store import PPRCache, make_key
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry


def line_graph(n=6):
    graph = DynamicGraph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def fresh_cache(epsilon_c=1.0, **kwargs):
    return PPRCache(epsilon_c=epsilon_c, metrics=MetricsRegistry(), **kwargs)


class TestLemma2Increment:
    def test_shape(self):
        assert lemma2_increment(0.2, 1.0, 4) == pytest.approx(0.8 / 4)

    def test_zero_degree_clamped(self):
        assert lemma2_increment(0.2, 1.0, 0) == pytest.approx(0.8)

    def test_scales_with_pi(self):
        assert lemma2_increment(0.2, 0.5, 4) == pytest.approx(0.1)


class TestStalenessTracker:
    def test_default_safety_is_coupling_factor(self):
        tracker = StalenessTracker(fresh_cache(), line_graph(), alpha=0.2)
        assert tracker.safety == pytest.approx(10.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StalenessTracker(fresh_cache(), line_graph(), alpha=0.0)
        with pytest.raises(ValueError):
            StalenessTracker(fresh_cache(), line_graph(), alpha=1.0)
        with pytest.raises(ValueError):
            StalenessTracker(
                fresh_cache(), line_graph(), alpha=0.2, safety=0.0
            )

    def test_degree_only_bound_without_estimate(self):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=100.0)
        tracker = StalenessTracker(cache, graph, alpha=0.2, safety=1.0)
        key = make_key(0, "t", {})
        cache.insert(key, None, graph.version)
        update = EdgeUpdate(1, 5).apply(graph)
        tracker.observe(update)
        d = graph.out_degree(1)
        expected = lemma2_increment(0.2, 1.0, d)
        assert cache.lookup(key).staleness == pytest.approx(expected)

    def test_pi_estimate_scales_charge(self):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=100.0)
        tracker = StalenessTracker(cache, graph, alpha=0.2, safety=1.0)
        key = make_key(0, "t", {})
        cache.insert(key, None, graph.version, pi_estimate=lambda node: 0.25)
        update = EdgeUpdate(1, 5).apply(graph)
        tracker.observe(update)
        d = graph.out_degree(1)
        expected = 0.25 * lemma2_increment(0.2, 1.0, d)
        assert cache.lookup(key).staleness == pytest.approx(expected)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    def test_bad_pi_estimate_falls_back_to_bound(self, bad):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=100.0)
        tracker = StalenessTracker(cache, graph, alpha=0.2, safety=1.0)
        key = make_key(0, "t", {})
        cache.insert(key, None, graph.version, pi_estimate=lambda node: bad)
        update = EdgeUpdate(1, 5).apply(graph)
        tracker.observe(update)
        expected = lemma2_increment(0.2, 1.0, graph.out_degree(1))
        staleness = cache.lookup(key).staleness
        assert math.isfinite(staleness)
        assert staleness == pytest.approx(expected)

    def test_eviction_past_budget_reported(self):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=0.3)
        tracker = StalenessTracker(cache, graph, alpha=0.2, safety=1.0)
        key = make_key(0, "t", {})
        cache.insert(key, None, graph.version)
        evicted = []
        # node 0 has out-degree 1: charge 0.8 per toggle at safety 1
        for i in range(3):
            update = EdgeUpdate(0, 3 + i).apply(graph)
            evicted.extend(tracker.observe(update))
        assert key in evicted
        assert cache.lookup(key) is None


class TestChargingApplier:
    def test_applies_then_charges_post_update_degrees(self):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=100.0)
        tracker = StalenessTracker(cache, graph, alpha=0.2, safety=1.0)
        key = make_key(0, "t", {})
        cache.insert(key, None, graph.version)

        class GraphApplier:
            def apply_update(self, update):
                return update.apply(graph)

        applier = ChargingApplier(GraphApplier(), tracker)
        resolved = applier.apply_update(EdgeUpdate(1, 5))
        assert resolved.kind == "insert"  # edge (1, 5) did not exist
        assert graph.has_edge(1, 5)
        # charged against the POST-update degree (2), not the prior (1)
        expected = lemma2_increment(0.2, 1.0, 2)
        assert cache.lookup(key).staleness == pytest.approx(expected)
        assert cache.updates_seen == 1


class TestReplayCache:
    def test_hit_after_admit(self):
        graph = line_graph()
        replay = ReplayCache(fresh_cache(epsilon_c=100.0), graph)
        assert not replay.hit(3)
        replay.admit(3)
        assert replay.hit(3)

    def test_on_update_charges_conservatively(self):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=100.0)
        replay = ReplayCache(cache, graph, alpha=0.2, safety=1.0)
        replay.admit(3)
        replay.on_update(EdgeUpdate(1, 5).apply(graph))
        entry = cache.lookup(replay._key(3))
        # no vector stored -> degree-only bound with pi_hat = 1
        expected = lemma2_increment(0.2, 1.0, graph.out_degree(1))
        assert entry.staleness == pytest.approx(expected)

    def test_pi_estimate_passthrough(self):
        graph = line_graph()
        cache = fresh_cache(epsilon_c=100.0)
        replay = ReplayCache(cache, graph, alpha=0.2, safety=1.0)
        replay.admit(3, pi_estimate=lambda node: 0.1)
        replay.on_update(EdgeUpdate(1, 5).apply(graph))
        entry = cache.lookup(replay._key(3))
        expected = 0.1 * lemma2_increment(0.2, 1.0, graph.out_degree(1))
        assert entry.staleness == pytest.approx(expected)

    def test_negative_hit_service_rejected(self):
        with pytest.raises(ValueError):
            ReplayCache(fresh_cache(), line_graph(), hit_service_s=-1.0)
