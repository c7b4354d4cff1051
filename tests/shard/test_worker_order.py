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

import threading
import time

import pytest

from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard.backend import InprocShard
from repro.shard.manager import ShardManager
from repro.shard.messages import ShardSpec, UpdateCommand
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
    """The fleet defaults to the engine ``repro run`` defaults to."""
    server = ShardServer(make_spec(ring_graph()), reply=lambda reply: None)
    try:
        assert server.runtime.algorithm.engine == "auto"
    finally:
        server.runtime.stop()


def test_full_queue_blocks_updates_without_shedding():
    """An update meeting a full admission queue waits for room; it is
    neither dropped nor counted (or recorded) as shed."""
    replies = []
    server = ShardServer(
        make_spec(ring_graph(), queue_capacity=1), reply=replies.append
    )
    algorithm = server.runtime.algorithm
    apply_update = algorithm.apply_update
    stalled, release, applied = threading.Event(), threading.Event(), []

    def stalling_apply(update):
        stalled.set()
        assert release.wait(30.0)
        applied.append(update.v)
        return apply_update(update)

    algorithm.apply_update = stalling_apply
    releaser = threading.Timer(0.2, release.set)
    try:
        server.handle(UpdateCommand(1, 1, 0, 11))
        assert stalled.wait(30.0)  # the one worker is busy
        server.handle(UpdateCommand(2, 2, 0, 12))  # fills the queue
        releaser.start()
        server.handle(UpdateCommand(3, 3, 0, 13))  # must wait for room
        server.runtime.drain()
    finally:
        release.set()
        releaser.cancel()
        server.runtime.stop()
    assert applied == [11, 12, 13]
    assert [reply.ok for reply in replies] == [True, True, True]
    assert server.applied_broadcasts == 3
    counters = server.metrics.snapshot()["counters"]
    assert counters.get("serving.shed", 0) == 0


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
