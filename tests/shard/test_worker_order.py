"""Update-broadcast ordering contract (regression for satellite #3).

A shard that observes a gap or reordering in the versioned broadcast
sequence must refuse the update and die — :class:`UpdateOrderError` —
rather than apply it and silently diverge from the fleet.  These tests
inject protocol-violating versions straight through the handle layer
(``submit`` exposes the raw command builder for exactly this) and
assert the full failure path: error reply, worker death with an
order-fault reason, manager-side fault counter, and a log-replay
respawn that converges the replacement.
"""

import dataclasses
import time

import pytest

from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard.backend import InprocShard
from repro.shard.manager import ShardManager
from repro.shard.messages import QueryCommand, ShardSpec, UpdateCommand
from repro.shard.worker import ShardServer


def ring_graph(n=24):
    return DynamicGraph.from_edges([(u, (u + 1) % n) for u in range(n)])


def make_spec(graph, **overrides):
    defaults = dict(
        shard_id=0,
        num_shards=1,
        num_nodes=graph.num_nodes,
        edges=tuple(sorted(graph.edges())),
        walk_cap=64,
        queue_capacity=64,
    )
    defaults.update(overrides)
    return ShardSpec(**defaults)


def wait_until(predicate, timeout_s=30.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval_s)
    return True


def inject_update(handle, version, u=0, v=2):
    return handle.submit(
        lambda rid: UpdateCommand(rid, version, u, v, "toggle")
    )


def test_in_order_updates_are_accepted():
    handle = InprocShard(make_spec(ring_graph()))
    try:
        for version in (1, 2, 3):
            reply = inject_update(handle, version, u=0, v=2 + version).result(
                30.0
            )
            assert reply.ok
            assert reply.payload["version"] == version
        assert handle.server.applied_broadcasts == 3
        assert handle.healthy
    finally:
        handle.stop()


def test_default_spec_serves_on_the_auto_engine():
    """``engine`` is a constant kept for benchmarks/e2e/probe.py, which
    passes it on; the worker's algorithm is the one ``build_algorithm``
    makes everywhere else (``tests/shard/test_served_kernel.py``)."""
    spec = make_spec(ring_graph())
    assert spec.engine == "auto"
    assert "engine" not in {f.name for f in dataclasses.fields(spec)}
    server = ShardServer(spec, reply=lambda reply: None)
    try:
        assert not hasattr(server.runtime.algorithm, "engine")
    finally:
        server.runtime.stop()


def test_full_queue_admits_updates_without_shedding():
    """An update meeting a full admission queue is admitted at once —
    the loop that read it never waits — and is neither dropped nor
    counted as shed; a query meeting the same queue is shed."""
    replies = []
    server = ShardServer(
        make_spec(ring_graph(), queue_capacity=1), reply=replies.append
    )
    commands = [
        UpdateCommand(1, 1, 0, 11),
        UpdateCommand(2, 2, 0, 12),  # fills the queue
        UpdateCommand(3, 3, 0, 13),
        QueryCommand(4, 0),
    ]

    def take(timeout_s):
        # one read of four commands: all are admitted before any is served
        for command in commands:
            assert server.handle(command)
        return False

    server.serve(take)
    graph = server.runtime.algorithm.graph
    assert all(graph.has_edge(0, v) for v in (11, 12, 13))
    assert [reply.req_id for reply in replies] == [1, 2, 3, 4]
    assert [reply.ok for reply in replies] == [True, True, True, False]
    assert replies[3].payload["status"] == "shed"
    assert server.applied_broadcasts == 3
    counters = server.metrics.snapshot()["counters"]
    assert counters["serving.shed"] == 1


def test_version_gap_refused_and_worker_dies():
    handle = InprocShard(make_spec(ring_graph()))
    try:
        assert inject_update(handle, 1).result(30.0).ok
        # versions 2..4 never arrive; 5 is a gap
        reply = inject_update(handle, 5, v=3).result(30.0)
        assert not reply.ok
        assert "order" in reply.error.lower()
        assert wait_until(lambda: not handle.healthy)
        assert "order" in handle.death_reason.lower()
        # the diverging update must NOT have been applied
        assert handle.server.applied_broadcasts == 1
    finally:
        handle.kill()


def test_duplicate_version_refused():
    handle = InprocShard(make_spec(ring_graph()))
    try:
        assert inject_update(handle, 1).result(30.0).ok
        reply = inject_update(handle, 1, v=3).result(30.0)
        assert not reply.ok
        assert wait_until(lambda: not handle.healthy)
    finally:
        handle.kill()


@pytest.mark.parametrize("auto_respawn", [False, True])
def test_manager_counts_order_faults_and_respawns(auto_respawn):
    metrics = MetricsRegistry()
    manager = ShardManager(
        ring_graph(),
        1,
        backend="inproc",
        walk_cap=64,
        auto_respawn=auto_respawn,
        metrics=metrics,
    )
    try:
        manager.update(0, 2)
        assert manager.fabric_version == 1
        handle = manager.shard_handle(0)
        inject_update(handle, 7, v=5).result(30.0)
        assert wait_until(lambda: not handle.healthy)
        assert metrics.snapshot()["counters"]["shard.order_faults"] == 1
        if auto_respawn:
            # replacement replays the log and rejoins at fleet version
            assert wait_until(lambda: manager.healthy_shard_count() == 1)
            health = manager.healthz()
            assert health["healthy"]
            assert health["shards"][0]["applied_broadcasts"] == 1
        else:
            assert manager.healthy_shard_count() == 0
    finally:
        manager.stop()
