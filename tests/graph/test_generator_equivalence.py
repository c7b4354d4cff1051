"""The generators build, from a list of pairs, the graph the ``add_edge``
loop built.

``barabasi_albert_graph`` / ``erdos_renyi_graph`` are
``DynamicGraph.from_edge_array`` over ``barabasi_albert_edges`` /
``erdos_renyi_edges``.  Seeded walks pick the k-th neighbour and replies
are checked against a generated graph's ``version``, so adjacency-list
order and the version counter must be what the edge-by-edge build gave.
The loops stay here as the reference, and the graph image of every
registered dataset is pinned by hash to the bytes the loop-built graphs
packed to.
"""

import hashlib
import io
import random
import sys

import pytest

from repro.evaluation.datasets import DATASETS
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.shard.image import write_image


def reference_erdos_renyi(n, p=None, m=None, directed=True, seed=None):
    rng = random.Random(seed)
    graph = DynamicGraph(num_nodes=n)
    if p is not None:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    graph.add_edge(u, v)
                    if not directed:
                        graph.add_edge(v, u)
        return graph
    while graph.num_edges < (m if directed else 2 * m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        graph.add_edge(u, v)
        if not directed:
            graph.add_edge(v, u)
    return graph


def reference_barabasi_albert(n, attach=3, directed=True, seed=None):
    rng = random.Random(seed)
    graph = DynamicGraph(num_nodes=n)
    targets_pool = []
    for u in range(attach + 1):
        for v in range(attach + 1):
            if u != v:
                graph.add_edge(u, v)
        targets_pool.extend([u] * attach)
    for u in range(attach + 1, n):
        chosen = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(targets_pool))
        for v in chosen:
            graph.add_edge(u, v)
            targets_pool.extend([u, v])
            if not directed or rng.random() < 0.5:
                graph.add_edge(v, u)
    return graph


def assert_same_graph(ours, reference):
    assert list(ours.nodes()) == list(reference.nodes())
    assert ours._out == reference._out
    assert ours._in == reference._in
    assert ours.version == reference.version
    assert ours.num_edges == reference.num_edges


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize(
    "n, attach, seed", [(5, 1, 0), (40, 2, 1), (300, 3, 7), (610, 6, 0)]
)
def test_barabasi_albert_is_the_add_edge_loop(n, attach, directed, seed):
    assert_same_graph(
        barabasi_albert_graph(n, attach=attach, directed=directed, seed=seed),
        reference_barabasi_albert(n, attach, directed, seed),
    )


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize(
    "n, m, seed",
    # the last one asks for most of K_n: many repeated draws to skip
    [(16, 20, 0), (50, 200, 3), (280, 2300, 0), (12, 60, 5)],
)
def test_erdos_renyi_m_mode_is_the_add_edge_loop(n, m, directed, seed):
    m = m if directed else m // 2
    assert_same_graph(
        erdos_renyi_graph(n, m=m, directed=directed, seed=seed),
        reference_erdos_renyi(n, m=m, directed=directed, seed=seed),
    )


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n, p, seed", [(10, 0.3, 0), (40, 0.1, 2), (25, 0.6, 9)])
def test_erdos_renyi_p_mode_is_the_add_edge_loop(n, p, directed, seed):
    assert_same_graph(
        erdos_renyi_graph(n, p=p, directed=directed, seed=seed),
        reference_erdos_renyi(n, p=p, directed=directed, seed=seed),
    )


#: sha256 of what ``write_image(name, seed)`` wrote when the builder
#: generated a ``DynamicGraph`` edge by edge and packed it with numpy
IMAGE_SHA256 = {
    ("webs", 0): "e8371b144f53056a557b0194e4e07bf85a562e9784ecb85d5954bc4203f97140",
    ("dblp", 0): "3c924e617f1e16c1359c65cf54130b3d4bc37f6fac2e5748a818f51322132e2f",
    ("pokec", 0): "c1a1c8c39cd71a506c4f26e0f3ce88fa939f00159fec7b54d4df93a0a2cb4c56",
    ("lj", 0): "7b0f6b529ebe4a1132f25402f1a745de88a36bb943cc2f6766fa9c72ae4d7d2f",
    ("orkut", 0): "d08a742c4f15c6fc33781cc2914ef72e1fa6c0d4ffb70deee85c8546ef0b9fb5",
    ("twitter", 0): "cb58f8e6b666793700174588ec2c326129c9c2c81906ecae25ea24cc5e897e5d",
    ("webs", 1): "97463bee540a7bc366fe61d319859c486b9fe3670dee7d9a152dbddec8d00f02",
    ("dblp", 1): "1cf645c705787b647472a4c3c590852c4169a28ad01b25f2b0d42bd3129c4da5",
    ("pokec", 1): "4767044c2f42dcad869da4dcf2b0d1d8a9f514703a852096c2e40757063233cd",
    ("lj", 1): "bdf130cea1b78308e985fe3a11e1307ec86ff97af2e63a3b647c0981498ae3a3",
    ("orkut", 1): "72418bc7042ae0e71a3d81a6bae9f8186e019e01898033ab43b5f1cd01579a53",
    ("twitter", 1): "e076935a448e442a28737f3b66ca36478afa047380ff90494a4d26f21830753d",
}


def test_every_dataset_image_is_pinned():
    assert {name for name, _ in IMAGE_SHA256} == set(DATASETS)


@pytest.mark.parametrize("name, seed", sorted(IMAGE_SHA256))
def test_dataset_image_bytes_are_unchanged(name, seed, monkeypatch):
    sink = io.TextIOWrapper(io.BytesIO())
    monkeypatch.setattr(sys, "stdout", sink)
    write_image(name, seed)
    digest = hashlib.sha256(sink.buffer.getvalue()).hexdigest()
    assert digest == IMAGE_SHA256[name, seed]
