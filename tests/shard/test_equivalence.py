"""Bit-for-bit equivalence oracle: sharded fleet vs single runtime.

The fabric's correctness claim is that sharding is *transparent*: a
query answered by a worker process at fabric version ``v`` must equal
the answer a single :class:`~repro.serving.ServingRuntime` gives at
the same version.  With ``query_mode="exact"`` both sides execute the
same pure power-iteration function of (graph snapshot, source), so the
comparison is exact float equality — zero tolerance, any divergence
(lost update, torn version, mis-replicated edge) fails the assert.

Both sides replay the same interleaved query/update schedule with a
drain barrier after each update, so every answer is attributable to
one exact graph version.  Marked ``stress``: the sharded side spawns
real worker processes.
"""

import time

import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import Request
from repro.serving.runtime import ServingRuntime
from repro.shard.manager import ShardManager
from repro.shard.messages import ShardSpec
from repro.shard.worker import _exact_query_fn, build_graph, serialize_result

WALK_CAP = 64
NUM_NODES = 30
ROUNDS = 5
SOURCES = (0, 3, 7, 11, 18, 25)
UPDATES = ((0, 9), (3, 14), (7, 21), (11, 2), (18, 5))


def base_graph():
    edges = [(u, (u + 1) % NUM_NODES) for u in range(NUM_NODES)]
    edges += [(u, (u + 7) % NUM_NODES) for u in range(0, NUM_NODES, 2)]
    return DynamicGraph.from_edges(sorted(set(edges)))


def wait_until(predicate, timeout_s=60.0, interval_s=0.002):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval_s)
    return True


def reference_answers(spec_edges, num_nodes):
    """Replay the schedule through ONE ServingRuntime, exact executor.

    Returns ``{(graph_version, source): serialized_values}`` — the
    ground truth the sharded fleet must reproduce bit-for-bit.  The
    graph is built exactly the way a worker builds its replica
    (:func:`build_graph` on the same sorted edge tuple), so the version
    counters line up too.
    """
    spec = ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=num_nodes,
        edges=spec_edges,
        walk_cap=WALK_CAP,
        query_mode="exact",
    )
    graph = build_graph(spec)
    algorithm = build_algorithm("FORA", graph, WALK_CAP, seed=0)
    records = []
    runtime = ServingRuntime(
        algorithm,
        workers=1,
        queue_capacity=256,
        query_fn=_exact_query_fn(algorithm.params.alpha),
        on_complete=records.append,
        metrics=MetricsRegistry(),
    )
    expected = {}
    with runtime:
        for round_index in range(ROUNDS):
            for source in SOURCES:
                done = len(records)
                assert runtime.submit(
                    Request(time.perf_counter(), QUERY, source=source)
                )
                assert wait_until(lambda: len(records) > done)
                record = records[-1]
                assert record.status == "ok", record
                expected[(record.version, source)] = serialize_result(
                    record.result, None
                )
            if round_index < len(UPDATES):
                done = len(records)
                u, v = UPDATES[round_index]
                assert runtime.submit(
                    Request(
                        time.perf_counter(), UPDATE, update=EdgeUpdate(u, v)
                    )
                )
                # epsilon_r=0: the record is emitted at apply time, so
                # this barrier means the graph moved to the new version
                assert wait_until(lambda: len(records) > done)
                assert records[-1].status == "ok", records[-1]
    return expected


@pytest.mark.stress
@pytest.mark.parametrize("num_shards", [2, 3])
def test_sharded_fleet_matches_single_runtime(num_shards):
    graph = base_graph()
    spec_edges = tuple(sorted(graph.edges()))
    expected = reference_answers(spec_edges, NUM_NODES)

    observed = {}
    manager = ShardManager(
        graph,
        num_shards,
        backend="process",
        walk_cap=WALK_CAP,
        query_mode="exact",
        metrics=MetricsRegistry(),
    )
    try:
        for round_index in range(ROUNDS):
            for source in SOURCES:
                outcome = manager.query_sync(source, timeout_s=120.0)
                assert outcome.ok, outcome
                observed[(outcome.version, source)] = outcome.values
            if round_index < len(UPDATES):
                u, v = UPDATES[round_index]
                result = manager.update(u, v)
                assert len(result.acked_shards) == num_shards
                # barrier: every worker has APPLIED (not just admitted)
                # this version before the next round's queries, so each
                # answer is attributable to exactly one graph version
                target = result.version

                def converged():
                    health = manager.healthz()
                    return all(
                        shard["applied_broadcasts"] == target
                        and shard["pending_updates"] == 0
                        and shard["queue_depth"] == 0
                        for shard in health["shards"]
                    )

                assert wait_until(converged)
        counters = manager.metrics.snapshot()["counters"]
        assert counters.get("shard.order_faults", 0) == 0
    finally:
        manager.stop()

    # ZERO violations tolerated: same versions answered, and every
    # (version, source) cell bit-for-bit equal to the single runtime
    assert set(observed) == set(expected)
    mismatches = [
        key for key in expected if observed[key] != expected[key]
    ]
    assert mismatches == [], f"equivalence violated at {mismatches}"
