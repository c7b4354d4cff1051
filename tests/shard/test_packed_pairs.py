"""PackedPairs: a query answer as two little-endian buffers on the pipe."""

import pickle
import struct

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard.manager import ShardManager
from repro.shard.messages import PackedPairs, ShardReply


def test_iterates_the_pairs_it_was_packed_from():
    nodes = np.array([4, 0, 2**31 - 1], dtype=np.int64)
    values = np.array([0.5, 1 / 3, 2.5e-07])
    packed = PackedPairs.from_arrays(nodes, values)
    assert packed.nodes == struct.pack("<3i", 4, 0, 2**31 - 1)
    assert packed.values == struct.pack("<3d", 0.5, 1 / 3, 2.5e-07)
    assert len(packed) == 3
    assert list(packed) == [(4, 0.5), (0, 1 / 3), (2**31 - 1, 2.5e-07)]
    assert not PackedPairs(b"", b"") and list(PackedPairs(b"", b"")) == []


def test_equality_is_on_the_bytes():
    one = PackedPairs.from_arrays(np.array([1, 2]), np.array([0.5, 0.25]))
    assert one == PackedPairs(one.nodes, one.values)
    assert one != PackedPairs.from_arrays(np.array([2, 1]), np.array([0.5, 0.25]))
    assert one != [(1, 0.5), (2, 0.25)]


def test_mismatched_buffers_are_refused():
    with pytest.raises(ValueError):
        PackedPairs(b"\0" * 8, b"\0" * 8)
    with pytest.raises(ValueError):
        PackedPairs(b"\0" * 3, b"\0" * 6)


def test_a_reply_pickles_to_twelve_bytes_per_pair_and_back():
    count = 2_000
    packed = PackedPairs.from_arrays(
        np.arange(count), np.random.default_rng(0).random(count)
    )
    reply = ShardReply(1, 0, True, {"status": "ok", "values": packed})
    wire = pickle.dumps(reply)
    assert len(wire) < 12 * count + 300
    assert pickle.loads(wire).payload["values"] == packed


def test_update_ids_outside_int32_are_refused():
    graph = DynamicGraph.from_edges([(u, (u + 1) % 8) for u in range(8)])
    with ShardManager(
        graph, 1, backend="inproc", query_mode="exact", metrics=MetricsRegistry()
    ) as manager:
        with pytest.raises(ValueError, match="int32"):
            manager.update(0, 2**31)
        assert manager.fabric_version == 0
        assert manager.update(0, 2).version == 1
