"""A worker holds only the graph its algorithm reads.

FORA and FORA+inc run forward push and random walks, which read
out-rows only: a shard serving them must never build the graph's
in-rows, and must not keep the spec's packed edge buffer once the graph
is built (the manager keeps the copy a respawn ships).
"""

import gc
import sys

import pytest

from repro.graph import adjacency
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.csr import csr_view
from repro.shard.backend import InprocShard
from repro.shard.messages import ShardSpec, UpdateCommand
from repro.shard.worker import ShardServer


def make_spec(graph: DynamicGraph, algorithm: str) -> ShardSpec:
    return ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=graph.num_nodes,
        edges=tuple(sorted(graph.edges())),
        algorithm=algorithm,
        walk_cap=64,
    )


@pytest.mark.parametrize("algorithm", ["FORA", "FORA+inc"])
def test_forward_algorithms_never_build_in_rows(algorithm, monkeypatch):
    transposes = []
    transpose = adjacency.transpose
    monkeypatch.setattr(
        adjacency, "transpose", lambda rows: transposes.append(1) or transpose(rows)
    )
    graph = barabasi_albert_graph(120, attach=3, seed=4)
    handle = InprocShard(make_spec(graph, algorithm))
    try:
        for version in range(1, 41):
            u, v = version % 120, (7 * version + 3) % 120
            update = handle.submit(
                lambda rid, u=u, v=v, version=version: UpdateCommand(
                    rid, version, u, v, "toggle"
                )
            )
            assert update.result(30.0).ok
            reply = handle.query(version % 120).result(30.0)
            assert reply.ok and reply.payload["status"] == "ok"
    finally:
        handle.stop()
    served = handle.server.runtime.algorithm.graph
    assert served.version > graph.version
    assert transposes == []
    assert csr_view(served).in_deg is None


def test_the_server_keeps_no_spec_and_no_edge_buffer():
    spec = make_spec(barabasi_albert_graph(60, attach=2, seed=1), "FORA")
    held = sys.getrefcount(spec), sys.getrefcount(spec.edges)
    server = ShardServer(spec, reply=lambda reply: None)
    try:
        gc.collect()
        assert (sys.getrefcount(spec), sys.getrefcount(spec.edges)) == held
        assert server.shard_id == 0
    finally:
        server.runtime.stop()
