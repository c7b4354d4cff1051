"""ShardSpec carries the graph as one packed buffer, whatever it was given."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.evaluation.datasets import get_dataset
from repro.shard import ShardSpec
from repro.shard.worker import build_graph


def make_spec(num_nodes, edges, **overrides):
    return ShardSpec(
        shard_id=0, num_shards=1, num_nodes=num_nodes, edges=edges, **overrides
    )


def test_any_iterable_of_pairs_normalises_to_the_same_spec():
    pairs = [(2, 0), (0, 1), (1, 2), (0, 2)]
    from_tuple = make_spec(3, tuple(sorted(pairs)))
    assert isinstance(from_tuple.edges, bytes)
    assert from_tuple.edge_array().tolist() == sorted(map(list, pairs))
    for other in (
        make_spec(3, pairs),  # unsorted list
        make_spec(3, iter(pairs)),  # one-shot iterator
        make_spec(3, np.array(pairs, dtype=np.int64)),
        make_spec(3, from_tuple.edges),  # already packed
        dataclasses.replace(from_tuple, shard_id=0),
    ):
        assert other == from_tuple and hash(other) == hash(from_tuple)
    assert make_spec(3, pairs[:3]) != from_tuple
    assert make_spec(3, ()).edge_array().shape == (0, 2)


def test_edge_array_is_a_read_only_view():
    spec = make_spec(3, [(0, 1), (1, 2)])
    view = spec.edge_array()
    assert view.dtype == np.dtype("<i4") and not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 2


def test_repr_does_not_print_the_graph():
    spec = make_spec(200, [(u, (u + 1) % 200) for u in range(200)])
    assert "edges" not in repr(spec) and len(repr(spec)) < 400


@pytest.mark.parametrize(
    "num_nodes, edges",
    [
        (3, [(0, 1), (0, 1)]),
        (3, [(0, 3)]),
        (3, [(-1, 0)]),
        (3, [(0, 2**40)]),
        (3, b"\x00" * 12),  # not whole pairs
        (3, np.array([[0, 1], [0, 1]], dtype="<i4").tobytes()),
        (3, np.array([[0, 7]], dtype="<i4").tobytes()),
    ],
)
def test_rejects_edges_a_bulk_build_would_miscount(num_nodes, edges):
    with pytest.raises(ValueError):
        make_spec(num_nodes, edges)


def test_lj_spec_pickles_at_under_ten_bytes_per_edge():
    dataset = get_dataset("lj")
    graph = dataset.build(seed=0)
    spec = make_spec(
        graph.num_nodes, tuple(sorted(graph.edges())), walk_cap=dataset.walk_cap
    )
    wire = pickle.dumps(spec)
    assert len(wire) <= 10 * graph.num_edges
    received = pickle.loads(wire)
    assert received == spec and received.edges == spec.edges
    rebuilt = build_graph(received)
    assert rebuilt == graph and rebuilt.version == graph.version
