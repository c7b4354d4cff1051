"""``/metrics`` + ``/healthz`` payloads -> the per-layer ledger entries.

Only counters the program already exports are read; a layer that was
not configured (no cache block, no Seed flushes) reports 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

Payload = Mapping[str, Any]


def _shards(metrics: Payload) -> list[Payload]:
    return [s.get("metrics", {}) for s in metrics.get("shards", {}).values()]


def _counter(registries: list[Payload], name: str) -> float:
    return float(sum(r.get("counters", {}).get(name, 0) for r in registries))


def _mean_ms(registries: list[Payload], name: str) -> float:
    """Fleet-wide histogram mean: summed totals over summed counts."""
    count = total = 0.0
    for registry in registries:
        hist = registry.get("histograms", {}).get(name)
        if hist:
            count += hist["count"]
            total += hist["total"]
    return total / count * 1e3 if count else 0.0


def _count(registries: list[Payload], name: str) -> float:
    return float(
        sum(
            r.get("histograms", {}).get(name, {}).get("count", 0.0)
            for r in registries
        )
    )


def _high_water(registries: list[Payload], name: str) -> float:
    return float(
        max(
            (
                r.get("gauges", {}).get(name, {}).get("high_water", 0.0)
                for r in registries
            ),
            default=0.0,
        )
    )


def layer_metrics(metrics: Payload) -> dict[str, float]:
    """The ``S`` rows of the ledger from one ``GET /metrics`` body."""
    manager = [metrics.get("manager", {})]
    shards = _shards(metrics)
    requests = _counter(manager, "api.requests")
    lookups = hits = 0.0
    for shard in metrics.get("shards", {}).values():
        cache = shard.get("cache")
        if cache:
            lookups += cache["lookups"]
            hits += cache["hits"]
    return {
        "api.response_mean_ms": _mean_ms(manager, "api.response"),
        "api.shed_ratio": (
            _counter(manager, "api.shed") / requests if requests else 0.0
        ),
        "shard.roundtrip_mean_ms": _mean_ms(manager, "shard.roundtrip"),
        "shard.inflight_high_water": _high_water(manager, "shard.inflight"),
        "shard.shed_inflight": _counter(manager, "shard.shed_inflight"),
        "shard.faults": _counter(manager, "shard.respawns")
        + _counter(manager, "shard.order_faults"),
        "serving.wait_mean_ms": _mean_ms(shards, "serving.wait"),
        "serving.response_mean_ms": _mean_ms(shards, "serving.response"),
        "serving.queue_depth_high_water": _high_water(
            shards, "serving.queue_depth"
        ),
        "serving.shed": _counter(shards, "serving.shed"),
        "serving.timeout": _counter(shards, "serving.timeout"),
        "seed.flush_mean_ms": _mean_ms(shards, "service.flush"),
        "seed.flushes": _count(shards, "service.flush"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.hit_mean_ms": _mean_ms(shards, "service.query_hit"),
        "cache.evictions_staleness": _counter(
            shards, "cache.evictions_staleness"
        ),
        "ppr.query_mean_ms": _mean_ms(shards, "service.query"),
        "ppr.update_mean_ms": _mean_ms(shards, "service.update"),
    }


def quiesced(health: Payload) -> bool:
    """Every shard applied every broadcast and holds no deferred update."""
    version = health.get("fabric_version")
    shards = health.get("shards", [])
    return bool(health.get("healthy")) and all(
        s.get("applied_broadcasts") == version
        and s.get("pending_updates") == 0
        and s.get("queue_depth") == 0
        for s in shards
    )
