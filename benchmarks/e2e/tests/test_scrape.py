"""``/metrics`` + ``/healthz`` parsing against canned payloads."""

import pytest

from benchmarks.e2e import scrape
from benchmarks.e2e.spec import SCRAPE_METRICS


def _hist(count: float, total: float) -> dict[str, float]:
    return {"count": count, "total": total, "mean": total / count}


METRICS = {
    "manager": {
        "counters": {
            "api.requests": 200, "api.shed": 4, "shard.shed_inflight": 3,
            "shard.respawns": 1, "shard.order_faults": 2,
        },
        "histograms": {
            "api.response": _hist(200, 1.0),
            "shard.roundtrip": _hist(100, 0.4),
        },
        "gauges": {"shard.inflight": {"value": 0.0, "high_water": 9.0}},
    },
    "shards": {
        "0": {
            "metrics": {
                "counters": {"serving.shed": 1, "cache.evictions_staleness": 5},
                "histograms": {
                    "service.query": _hist(10, 0.10),
                    "service.flush": _hist(2, 0.02),
                    "serving.wait": _hist(10, 0.01),
                },
                "gauges": {"serving.queue_depth": {"value": 0, "high_water": 4}},
            },
            "cache": {"lookups": 30.0, "hits": 20.0, "hit_rate": 0.66},
        },
        "1": {
            "metrics": {
                "counters": {"serving.shed": 2, "serving.timeout": 7},
                "histograms": {
                    "service.query": _hist(30, 0.90),
                    "serving.wait": _hist(30, 0.07),
                },
                "gauges": {"serving.queue_depth": {"value": 1, "high_water": 6}},
            },
            # no cache block: this shard runs without a cache
        },
    },
}


def test_every_scrape_metric_is_produced_and_nothing_else():
    produced = set(scrape.layer_metrics(METRICS))
    expected = {m.name for m in SCRAPE_METRICS} - {"seed.pending_updates_mean"}
    assert produced == expected


def test_histograms_pool_across_shards_instead_of_averaging_means():
    layers = scrape.layer_metrics(METRICS)
    assert layers["ppr.query_mean_ms"] == pytest.approx(25.0)  # 1.0 s / 40
    assert layers["serving.wait_mean_ms"] == pytest.approx(2.0)
    assert layers["seed.flushes"] == 2.0
    assert layers["seed.flush_mean_ms"] == pytest.approx(10.0)


def test_counters_sum_and_high_waters_take_the_worst_shard():
    layers = scrape.layer_metrics(METRICS)
    assert layers["serving.shed"] == 3.0
    assert layers["serving.timeout"] == 7.0
    assert layers["serving.queue_depth_high_water"] == 6.0
    assert layers["shard.inflight_high_water"] == 9.0
    assert layers["shard.faults"] == 3.0
    assert layers["api.shed_ratio"] == pytest.approx(0.02)
    assert layers["api.response_mean_ms"] == pytest.approx(5.0)


def test_a_missing_cache_block_is_a_shard_without_lookups():
    layers = scrape.layer_metrics(METRICS)
    assert layers["cache.hit_ratio"] == pytest.approx(20 / 30)
    assert layers["cache.evictions_staleness"] == 5.0
    assert layers["cache.hit_mean_ms"] == 0.0  # no service.query_hit anywhere


def test_an_idle_fleet_reports_zeros_not_errors():
    layers = scrape.layer_metrics({"manager": {}, "shards": {}})
    assert set(layers.values()) == {0.0}


def _health(applied: int, pending: int, depth: int = 0) -> dict[str, object]:
    shard = {
        "applied_broadcasts": applied, "pending_updates": pending,
        "queue_depth": depth,
    }
    return {
        "healthy": True, "fabric_version": 5,
        "shards": [dict(shard), {**shard, "applied_broadcasts": 5}],
    }


def test_quiesced_needs_every_shard_caught_up_and_nothing_deferred():
    assert scrape.quiesced(_health(5, 0))
    assert not scrape.quiesced(_health(4, 0))
    assert not scrape.quiesced(_health(5, 1))
    assert not scrape.quiesced(_health(5, 0, depth=2))
    assert not scrape.quiesced({**_health(5, 0), "healthy": False})
