"""``DynamicGraph.from_edge_array`` builds what the ``add_edge`` loop builds.

Shard workers bulk-build their replica; everything downstream was
written against the edge-by-edge build and depends on three things it
produced: row *order* (seeded walks pick the k-th neighbour),
``version == m`` (replies are checked against a generator-built graph's
version plus acks) and the CSR arrays.  The loop stays here as the
reference, and the pairs themselves as the reference order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.datasets import get_dataset
from repro.graph.digraph import DynamicGraph
from repro.ppr.csr import csr_view


def loop_build(num_nodes, pairs):
    graph = DynamicGraph(num_nodes)
    for u, v in pairs:
        assert graph.add_edge(u, v)
    return graph


def assert_same_build(num_nodes, pairs):
    bulk = DynamicGraph.from_edge_array(num_nodes, pairs)
    loop = loop_build(num_nodes, pairs)
    assert list(bulk.nodes()) == list(loop.nodes()) == list(range(num_nodes))
    # each row lists its targets in the order the pairs name them
    expected = {u: [] for u in range(num_nodes)}
    for u, v in pairs:
        expected[u].append(v)
    for u in range(num_nodes):
        assert bulk.out_neighbors(u) == loop.out_neighbors(u) == expected[u]
    assert bulk.version == loop.version == len(pairs)
    assert bulk.num_edges == loop.num_edges == len(pairs)
    assert bulk == loop
    ours, theirs = csr_view(bulk, reverse=True), csr_view(loop, reverse=True)
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
    # sorted pairs give ascending out-rows; fresh in-rows are ascending always
    for v in bulk.nodes():
        assert bulk.out_neighbors(v) == sorted(bulk.out_neighbors(v))
    view = csr_view(bulk, reverse=True)
    for i in range(view.n):
        row = view.in_neighbors_of(i)
        assert np.all(row[1:] > row[:-1])


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
    version = csr_view(graph).version
    assert not graph.toggle_edge(1, 2) and graph.toggle_edge(3, 0)
    assert graph.add_edge(4, 0)  # a node the build did not know
    assert graph.version == version + 4
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


def test_sorted_and_shuffled_pairs_build_the_same_graph():
    """Sorted pairs skip both sorts; grouped-by-source pairs skip the
    argsort only; shuffled pairs take both.  Each build keeps its input's
    row order, and all hold the same edges at the same version."""
    rng = np.random.default_rng(7)
    keys = np.sort(rng.choice(40 * 40, size=300, replace=False))
    pairs = [(int(k) // 40, int(k) % 40) for k in keys]
    grouped = sorted(pairs, key=lambda pair: (pair[0], -pair[1]))
    shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
    builds = [assert_same_build(40, order) for order in (pairs, grouped, shuffled)]
    for graph in builds:
        assert graph.version == len(pairs)
        assert graph == builds[0]
    for u in range(40):
        assert builds[0].out_neighbors(u) == sorted(builds[2].out_neighbors(u))
        assert builds[1].out_neighbors(u) == builds[0].out_neighbors(u)[::-1]


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1), (0, 1), (1, 2)],  # sorted, the repeat adjacent
        [(0, 1), (1, 2), (2, 0), (1, 2)],  # grouped order broken
        [(2, 0), (0, 1), (2, 0)],  # shuffled
    ],
)
def test_duplicates_raise_in_any_order(pairs):
    with pytest.raises(ValueError, match="duplicate edge"):
        DynamicGraph.from_edge_array(3, pairs)
