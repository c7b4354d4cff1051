"""``DynamicGraph.from_edge_array`` builds what the ``add_edge`` loop builds.

Shard workers bulk-build their replica; everything downstream was
written against the edge-by-edge build and depends on three things it
produced: adjacency-list *order* (seeded walks pick the k-th neighbour),
``version == m`` (replies are checked against a generator-built graph's
version plus acks) and the derived CSR arrays.  The loop stays here as
the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.datasets import get_dataset
from repro.graph import DynamicGraph
from repro.ppr import csr_view


def loop_build(num_nodes, pairs):
    graph = DynamicGraph(num_nodes)
    for u, v in pairs:
        assert graph.add_edge(u, v)
    return graph


def assert_same_build(num_nodes, pairs):
    bulk = DynamicGraph.from_edge_array(num_nodes, pairs)
    loop = loop_build(num_nodes, pairs)
    # dict equality ignores key order; the node order is checked apart
    assert list(bulk.nodes()) == list(loop.nodes())
    assert bulk._out == loop._out
    assert bulk._in == loop._in
    assert bulk.version == loop.version == len(pairs)
    assert bulk.num_edges == loop.num_edges == len(pairs)
    assert bulk == loop
    # nobody can replay a build they did not see
    assert bulk.updates_since(bulk.version) == []
    assert bulk._log == []
    if pairs:
        assert bulk.updates_since(0) is None
    ours, theirs = csr_view(bulk), csr_view(loop)
    assert ours.version == theirs.version and (ours.n, ours.m) == (theirs.n, theirs.m)
    for name in ("out_deg", "in_deg"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    for packed in ("packed_out", "packed_in"):
        for mine, other in zip(getattr(ours, packed)(), getattr(theirs, packed)()):
            assert np.array_equal(mine, other)
    return bulk


@pytest.mark.parametrize("name", ["lj", "dblp"])
def test_bulk_equals_loop_on_dataset(name):
    source = get_dataset(name).build(seed=0)
    pairs = sorted(source.edges())
    bulk = assert_same_build(source.num_nodes, pairs)
    assert bulk == source
    # sorted pairs give ascending lists in both directions
    for v in bulk.nodes():
        assert bulk.out_neighbors(v) == sorted(bulk.out_neighbors(v))
        assert bulk.in_neighbors(v) == sorted(bulk.in_neighbors(v))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                unique=True,
                max_size=40,
            ),
        )
    )
)
def test_bulk_equals_loop_in_any_row_order(case):
    num_nodes, pairs = case
    assert_same_build(num_nodes, pairs)


def test_bulk_built_graph_takes_updates_like_any_other():
    graph = DynamicGraph.from_edge_array(4, [(0, 1), (1, 2), (2, 3)])
    view = csr_view(graph)
    assert not graph.toggle_edge(1, 2) and graph.toggle_edge(3, 0)
    assert graph.add_edge(4, 0)  # a node the build did not know
    assert len(graph.updates_since(view.version)) == 4
    assert graph == DynamicGraph.from_edges([(0, 1), (2, 3), (3, 0), (4, 0)])


@pytest.mark.parametrize(
    "num_nodes, pairs",
    [
        (3, [(0, 1), (1, 2), (0, 1)]),  # duplicate: add_edge would skip it
        (3, [(0, 3)]),  # endpoint past num_nodes
        (3, [(-1, 0)]),
        (3, [(0, 2**31)]),  # not an int32
        (2**31 + 2, [(0, 2**31)]),  # in range, still not an int32
        (3, [(0.0, 1.0)]),  # not integers
        (3, [(0, 1, 2)]),  # not pairs
    ],
)
def test_bulk_build_rejects_what_it_cannot_count(num_nodes, pairs):
    with pytest.raises(ValueError):
        DynamicGraph.from_edge_array(num_nodes, pairs)
