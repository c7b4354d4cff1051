"""``FrontDoor.reconfigurations`` keeps the last few re-solves, not all.

A long-running server re-solves the fleet every time the arrival rates
drift; the log of those re-solves used to be a list that grew by one
entry each time.
"""

import asyncio
import threading

from repro.api.frontdoor import RECONFIGURATIONS_KEPT, FrontDoor
from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard.manager import ShardManager


class AlwaysDrifted:
    """A detector that reports new rates on every check."""

    def __init__(self):
        self.rearmed = []

    def observe(self, kind, now_s):
        pass

    def check(self, now_s):
        step = len(self.rearmed) + 1
        return float(step), float(step)

    def rearm(self, lambda_q, lambda_u):
        self.rearmed.append(lambda_q)


def make_manager():
    graph = DynamicGraph.from_edges([(u, (u + 1) % 12) for u in range(12)])
    return ShardManager(
        graph, 1, backend="inproc", query_mode="exact", metrics=MetricsRegistry()
    )


async def rearmed(detector, count):
    """Wait on the event loop until ``detector`` was re-armed ``count``
    times (the re-solve itself runs in the executor)."""
    while len(detector.rearmed) < count:
        await asyncio.sleep(0.005)


def test_reconfiguration_log_is_bounded():
    solves = RECONFIGURATIONS_KEPT + 5
    with make_manager() as manager:
        detector = AlwaysDrifted()
        frontdoor = FrontDoor(manager, drift=detector)

        async def scenario():
            for done in range(1, solves + 1):
                assert (await frontdoor.query(0)).ok
                await rearmed(detector, done)

        asyncio.run(asyncio.wait_for(scenario(), 30.0))
    kept = [entry["lambda_q"] for entry in frontdoor.reconfigurations]
    first = solves - RECONFIGURATIONS_KEPT + 1
    assert kept == [float(step) for step in range(first, solves + 1)]


def test_metrics_serve_explicit_and_drift_reconfigurations():
    """``GET /metrics`` carries the log as a top-level list: explicit
    ``POST /reconfigure`` results and drift-triggered ones alike."""
    with make_manager() as manager:
        detector = AlwaysDrifted()
        frontdoor = FrontDoor(manager, drift=detector)

        async def scenario():
            explicit = await frontdoor.reconfigure(40.0, 2.0)
            assert explicit.ok
            # the explicit solve re-armed the detector once: it drifts
            # to (2, 2)
            assert (await frontdoor.query(0)).ok
            await rearmed(detector, 2)
            return explicit, (await frontdoor.metrics_snapshot()).body

        explicit, body = asyncio.run(asyncio.wait_for(scenario(), 30.0))
    logged = body["reconfigurations"]
    assert [(e["lambda_q"], e["lambda_u"]) for e in logged] == [
        (40.0, 2.0),
        (2.0, 2.0),
    ]
    assert logged[0]["shards"] == explicit.body["shards"]
    assert logged[1]["shards"] == {"0": {"applied": False}}


def test_one_drift_resolve_in_flight_at_a_time():
    """Arrivals while a drift-triggered re-solve runs start no second
    one, however drifted the rates look."""
    with make_manager() as manager:
        release = threading.Event()
        solve = manager.reconfigure

        def held(lambda_q, lambda_u):
            release.wait(30.0)
            return solve(lambda_q, lambda_u)

        manager.reconfigure = held
        detector = AlwaysDrifted()
        frontdoor = FrontDoor(manager, drift=detector)

        async def scenario():
            for _ in range(5):
                assert (await frontdoor.query(0)).ok
            release.set()
            await rearmed(detector, 1)

        asyncio.run(asyncio.wait_for(scenario(), 30.0))
    assert detector.rearmed == [1.0]
    assert len(frontdoor.reconfigurations) == 1
