"""``FrontDoor.reconfigurations`` keeps the last few re-solves, not all.

A long-running server re-solves the fleet every time the arrival rates
drift; the log of those re-solves used to be a list that grew by one
entry each time.
"""

import asyncio
import time

from repro.api.frontdoor import RECONFIGURATIONS_KEPT, DriftPolicy, FrontDoor
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


def test_reconfiguration_log_is_bounded():
    graph = DynamicGraph.from_edges([(u, (u + 1) % 12) for u in range(12)])
    with ShardManager(
        graph, 1, backend="inproc", query_mode="exact", metrics=MetricsRegistry()
    ) as manager:
        frontdoor = FrontDoor(
            manager, drift=DriftPolicy(lambda_q=1.0, lambda_u=1.0, cooldown_s=0.0)
        )
        detector = AlwaysDrifted()
        frontdoor._drift.detector = detector
        solves = RECONFIGURATIONS_KEPT + 5
        for done in range(1, solves + 1):
            assert asyncio.run(frontdoor.query(0)).ok
            deadline = time.monotonic() + 30.0
            while len(detector.rearmed) < done or frontdoor._drift.inflight.is_set():
                assert time.monotonic() < deadline, "re-solve never landed"
                time.sleep(0.005)
    kept = [entry["lambda_q"] for entry in frontdoor.reconfigurations]
    first = solves - RECONFIGURATIONS_KEPT + 1
    assert kept == [float(step) for step in range(first, solves + 1)]


def test_metrics_serve_explicit_and_drift_reconfigurations():
    """``GET /metrics`` carries the log as a top-level list: explicit
    ``POST /reconfigure`` results and drift-triggered ones alike."""
    graph = DynamicGraph.from_edges([(u, (u + 1) % 12) for u in range(12)])
    with ShardManager(
        graph, 1, backend="inproc", query_mode="exact", metrics=MetricsRegistry()
    ) as manager:
        frontdoor = FrontDoor(
            manager, drift=DriftPolicy(lambda_q=1.0, lambda_u=1.0, cooldown_s=0.0)
        )
        detector = AlwaysDrifted()
        frontdoor._drift.detector = detector
        explicit = asyncio.run(frontdoor.reconfigure(40.0, 2.0))
        assert explicit.ok
        # the explicit solve re-armed the detector once: it drifts to (2, 2)
        assert asyncio.run(frontdoor.query(0)).ok
        deadline = time.monotonic() + 30.0
        while len(detector.rearmed) < 2 or frontdoor._drift.inflight.is_set():
            assert time.monotonic() < deadline, "re-solve never landed"
            time.sleep(0.005)
        body = asyncio.run(frontdoor.metrics_snapshot()).body
    logged = body["reconfigurations"]
    assert [(e["lambda_q"], e["lambda_u"]) for e in logged] == [
        (40.0, 2.0),
        (2.0, 2.0),
    ]
    assert logged[0]["shards"] == explicit.body["shards"]
    assert logged[1]["shards"] == {"0": {"applied": False}}
