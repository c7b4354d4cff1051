"""FrontDoor QoS behaviors over the in-memory transport.

Drives the coroutines directly (no sockets): deadline propagation into
per-query budgets, shed-on-full with Retry-After, graceful degradation
while a shard range is down plus re-admission after respawn, and the
drift-driven reconfiguration loop.
"""

import asyncio
import time

from repro.api.frontdoor import ApiResponse, FrontDoor
from repro.core.rates import RateDriftDetector
from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard.manager import ShardManager


def ring_graph(n=24):
    edges = [(u, (u + 1) % n) for u in range(n)]
    edges += [(u, (u + 5) % n) for u in range(0, n, 3)]
    return DynamicGraph.from_edges(sorted(set(edges)))


def make_manager(num_shards=1, **overrides):
    options = dict(
        backend="inproc",
        walk_cap=64,
        query_mode="exact",
        metrics=MetricsRegistry(),
    )
    options.update(overrides)
    return ShardManager(ring_graph(), num_shards, **options)


def wait_until(predicate, timeout_s=30.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval_s)
    return True


def test_query_ok_envelope():
    with make_manager() as manager:
        frontdoor = FrontDoor(manager, default_top_k=5)
        response = asyncio.run(frontdoor.query(0))
        assert isinstance(response, ApiResponse)
        assert response.status_code == 200
        assert response.ok
        body = response.body
        assert body["status"] == "ok"
        assert body["source"] == 0
        assert len(body["values"]) == 5
        assert body["version"] >= 0
        assert "response_s" in body


def test_exhausted_budget_rejected_before_dispatch():
    with make_manager() as manager:
        frontdoor = FrontDoor(manager)
        routed_before = manager.metrics.snapshot()["counters"].get(
            "shard.queries_routed", 0
        )
        # the transport saw this request 10s ago; its 0.5s budget died
        # in the upstream queue — must 504 without touching a shard
        response = asyncio.run(
            frontdoor.query(
                0, budget_s=0.5, received_s=time.perf_counter() - 10.0
            )
        )
        assert response.status_code == 504
        assert response.body["status"] == "timeout"
        assert "budget" in response.body["reason"]
        routed_after = manager.metrics.snapshot()["counters"].get(
            "shard.queries_routed", 0
        )
        assert routed_after == routed_before
        shed = frontdoor.metrics.snapshot()["counters"]["api.shed"]
        assert shed == 1


def test_skewed_future_timestamp_cannot_extend_budget():
    """Regression: ``received_s`` comes from the transport clock, so a
    skewed/stepped client clock can place it in the *future*; the
    negative ``spent`` must not extend the deadline past budget_s."""
    with make_manager() as manager:
        frontdoor = FrontDoor(manager)
        captured = {}
        real_query = manager.query

        def capturing_query(source, deadline_s=None, top_k=None):
            captured["deadline_s"] = deadline_s
            return real_query(source, deadline_s=deadline_s, top_k=top_k)

        manager.query = capturing_query
        budget = 0.8
        response = asyncio.run(
            frontdoor.query(
                # the transport claims it saw this request 1000s from now
                0, budget_s=budget, received_s=time.perf_counter() + 1000.0
            )
        )
        assert response.status_code == 200
        # clamped: the forwarded deadline never exceeds the declared budget
        assert captured["deadline_s"] is not None
        assert captured["deadline_s"] <= budget


def test_generous_budget_is_forwarded_and_served():
    with make_manager() as manager:
        frontdoor = FrontDoor(manager)
        response = asyncio.run(
            frontdoor.query(
                0, budget_s=60.0, received_s=time.perf_counter()
            )
        )
        assert response.status_code == 200


def test_invalid_source_maps_to_400():
    with make_manager() as manager:
        frontdoor = FrontDoor(manager)
        response = asyncio.run(frontdoor.query(-1))
        assert response.status_code == 400
        assert response.body["status"] == "bad-request"


def test_shed_on_full_carries_retry_after():
    with make_manager(
        max_inflight_per_shard=1, auto_respawn=False
    ) as manager:
        frontdoor = FrontDoor(manager)
        handle = manager.shard_handle(0)

        async def scenario():
            handle.pause()  # deterministic backlog
            first = asyncio.ensure_future(frontdoor.query(0))
            # one tick runs the task up to its first await, past the
            # (synchronous) manager admission — the window is now full
            await asyncio.sleep(0)
            second = await frontdoor.query(1)
            assert second.status_code == 503
            assert second.body["shed_reason"] == "inflight-full"
            assert second.retry_after_s is not None
            assert second.retry_after_s > 0
            handle.resume()
            assert (await first).status_code == 200

        asyncio.run(scenario())


def test_unhealthy_range_sheds_then_readmits_after_respawn():
    with make_manager(num_shards=2) as manager:
        frontdoor = FrontDoor(manager)
        victim = manager.shard_handle(0)
        shed_source = next(
            s for s in range(24) if manager.router.route(s) == 0
        )
        live_source = next(
            s for s in range(24) if manager.router.route(s) == 1
        )
        victim.crash()
        assert wait_until(lambda: not victim.healthy)
        # while the range is down: 503 + Retry-After on its sources,
        # the other shard's range keeps serving
        response = asyncio.run(frontdoor.query(shed_source))
        if response.status_code == 503:  # respawn may already have won
            assert response.retry_after_s is not None
            assert response.body["shed_reason"] == "shard-unhealthy"
        assert asyncio.run(frontdoor.query(live_source)).status_code == 200
        # graceful re-admission: the respawned worker serves again
        assert wait_until(lambda: manager.healthy_shard_count() == 2)
        assert asyncio.run(frontdoor.query(shed_source)).status_code == 200
        assert asyncio.run(frontdoor.healthz()).status_code == 200


def test_healthz_degrades_to_503():
    with make_manager(auto_respawn=False) as manager:
        frontdoor = FrontDoor(manager)
        assert asyncio.run(frontdoor.healthz()).status_code == 200
        manager.shard_handle(0).crash()
        assert wait_until(
            lambda: manager.healthy_shard_count() == 0
        )
        response = asyncio.run(frontdoor.healthz())
        assert response.status_code == 503
        assert response.retry_after_s is not None


def test_a_deadline_that_expires_in_the_worker_is_a_504():
    """The budget outlives dispatch but not the worker's queue: the
    worker's ``timeout`` record used to reach the caller as a 500
    ``failed`` (the manager turned every reply that was not ``ok`` into
    a fault)."""
    with make_manager() as manager:
        frontdoor = FrontDoor(manager)
        response = asyncio.run(frontdoor.query(3, budget_s=1e-9))
        assert response.status_code == 504
        assert response.body["status"] == "timeout"


def test_update_and_metrics_endpoints():
    with make_manager(num_shards=2) as manager:
        frontdoor = FrontDoor(manager)

        async def scenario():
            update = await frontdoor.update(0, 7)
            assert update.status_code == 200
            assert update.body["version"] == 1
            assert update.body["acked_shards"] == [0, 1]
            snapshot = await frontdoor.metrics_snapshot()
            assert snapshot.status_code == 200
            counters = snapshot.body["manager"]["counters"]
            assert counters["shard.updates_broadcast"] == 1
            assert frontdoor.metrics.snapshot()["counters"][
                "api.requests"
            ] == 1

        asyncio.run(scenario())


def test_an_update_with_a_negative_endpoint_is_a_bad_request():
    """A negative id is outside the router's id space: no query can
    name it, so no replica may grow the node."""
    with make_manager(num_shards=2) as manager:
        frontdoor = FrontDoor(manager)
        for u, v in ((-7, 3), (3, -7)):
            response = asyncio.run(frontdoor.update(u, v))
            assert response.status_code == 400
            assert response.body["status"] == "bad-request"
        assert manager.fabric_version == 0
        graphs = [
            slot.handle.server.runtime.algorithm.graph
            for slot in manager._slots
        ]
        assert len(graphs) == 2
        assert not any(graph.has_node(-7) for graph in graphs)


def test_drift_detector_triggers_fleet_reconfigure():
    # workers carry QuotaControllers; the detector is armed at a far
    # lower rate than we actually send, so the burst must trip it
    with make_manager(use_controller=True) as manager:
        frontdoor = FrontDoor(
            manager,
            drift=RateDriftDetector(
                0.01, 0.01, window=10.0, threshold=0.5, min_events=10
            ),
        )

        async def burst():
            for _ in range(15):
                response = await frontdoor.query(0)
                assert response.status_code == 200
            # the re-solve runs in the executor; wait for it to land
            while not frontdoor.reconfigurations:
                await asyncio.sleep(0.005)

        asyncio.run(asyncio.wait_for(burst(), 30.0))
        entry = frontdoor.reconfigurations[0]
        assert entry["lambda_q"] > 0.01
        assert "0" in entry["shards"]


def test_updates_alone_never_resolve_the_fleet():
    """Forty updates with no query drifted the detector to lambda_q = 0:
    the front door re-solved the fleet there (every shard refused it)
    and re-armed the detector at (0, lambda_u)."""
    with make_manager(use_controller=True) as manager:
        frontdoor = FrontDoor(
            manager, drift=RateDriftDetector(10.0, 1.0, min_events=20)
        )

        async def updates():
            for i in range(40):
                response = await frontdoor.update(i % 24, (i + 7) % 24)
                assert response.status_code == 200

        asyncio.run(updates())
        assert frontdoor._retuning is None
        assert list(frontdoor.reconfigurations) == []
        assert frontdoor.drift.configured_q == 10.0
