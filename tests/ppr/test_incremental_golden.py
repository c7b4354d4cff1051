"""Golden bit-identity of incremental index maintenance.

The digests below were recorded at the commit *before* the edge→walk
map became array-backed (dict/set/tuple ``EdgeWalkMap``).  The map is
bookkeeping only: which walks an update affects, in which order they
are repaired and how many generator draws each repair consumes must not
depend on how the bookkeeping is stored.  So after 500 seeded mixed
insert / delete / toggle updates the stored terminals and the next
query answers are required to be *bit-for-bit* what the parent
produced — on ``lj`` (the serving benchmark's graph) and on a BA graph
with dangling nodes, node-count growth and a delete-to-dangling /
insert-from-dangling churn.

The FORA+inc ``queries`` digests were re-recorded when its push phase
moved from the deque ``forward_push`` to ``frontier_push`` (different
residues, so different walk draws); ``total_walks``, ``rows`` and every
SpeedPPR+inc digest stayed byte-identical, because all updates are
applied before the first query and SpeedPPR does not push.

Re-record (only when a change is *meant* to alter the draws) with
``PYTHONPATH=src python tests/ppr/test_incremental_golden.py``.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.evaluation.datasets import get_dataset
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.ppr.registry import build_algorithm

NUM_UPDATES = 500
NUM_QUERIES = 5


def lj_graph():
    return get_dataset("lj").build(seed=0)


def dangling_ba_graph():
    """Directed BA n = 400 with every 7th node stripped of out-edges."""
    graph = barabasi_albert_graph(400, attach=3, directed=True, seed=5)
    for node in range(0, 400, 7):
        for neighbor in list(graph.out_neighbors(node)):
            graph.remove_edge(node, neighbor)
    return graph


GRAPHS = {"lj": (lj_graph, 6000), "ba_dangling": (dangling_ba_graph, 1500)}


def mixed_updates(graph, count, seed, grow_nodes):
    """Yield ``count`` applicable updates, one third of each kind.

    Generated against the live graph (each update is applied by the
    caller before the next is drawn), so explicit inserts and deletes
    are always legal.  Deletes favour low-degree sources (they go
    dangling), inserts favour dangling sources, and when ``grow_nodes``
    is set every 50th update inserts an edge to a brand-new node id.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    next_node = max(nodes) + 1
    for step in range(count):
        if grow_nodes and step % 50 == 49:
            yield EdgeUpdate(rng.choice(nodes), next_node, "insert")
            nodes.append(next_node)
            next_node += 1
            continue
        kind = ("insert", "delete", "toggle")[step % 3]
        if kind == "delete":
            candidates = rng.sample(nodes, 8)
            with_edges = [u for u in candidates if graph.out_degree(u) > 0]
            if with_edges:
                u = min(with_edges, key=graph.out_degree)
                v = rng.choice(sorted(graph.out_neighbors(u)))
                yield EdgeUpdate(u, v, "delete")
                continue
            kind = "insert"
        if kind == "insert":
            candidates = rng.sample(nodes, 8)
            u = min(candidates, key=graph.out_degree)
            v = rng.choice(nodes)
            if u != v and not graph.has_edge(u, v):
                yield EdgeUpdate(u, v, "insert")
                continue
        u, v = rng.sample(nodes, 2)
        yield EdgeUpdate(u, v, "toggle")


def sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digests(graph_name: str, algorithm_name: str) -> dict[str, object]:
    factory, walk_cap = GRAPHS[graph_name]
    graph = factory()
    algorithm = build_algorithm(algorithm_name, graph, walk_cap, seed=7)
    for update in mixed_updates(
        graph, NUM_UPDATES, seed=13, grow_nodes=graph_name != "lj"
    ):
        algorithm.apply_update(update)
    index = algorithm.index
    view = algorithm.view
    rows = hashlib.sha256()
    for i in range(view.n):
        row = index.terminals_for(i, int(index.counts[i]))
        rows.update(sha(row).encode())
    sources = sorted(graph.nodes())
    queries = [
        sha(algorithm.query(sources[(k * 977) % len(sources)]).values)
        for k in range(NUM_QUERIES)
    ]
    assert index.validate_edge_map(view) == []
    return {
        "total_walks": index.total_walks,
        "rows": rows.hexdigest(),
        "queries": queries,
    }


GOLDEN: dict[tuple[str, str], dict[str, object]] = {
    ("ba_dangling", "FORA+inc"): {
        "total_walks": 4029,
        "rows": "09aa13ca24667961b1d19d01f8723c812e033daeb77a6f8be2ae0836a2b10fcb",
        "queries": [
            "5da38abbfaeaf477e5f1890405f21e9b93c1b44719c3908b3c1d9eb74eb4bfd9",
            "efdc481759343e34ee5d89b678d72bf9b17d71fee0a8cdc6269afe210eaf3538",
            "ac36f9fe17642c25008b4da9a073a07d849cfd4bc9ca50a53abd0d6cd54084e7",
            "4caf3606505bf94e1dc576c41048d6fb948c184948d34f8df7f8c8e5a939b66f",
            "dd7852f38b775478ac4c0cebc45614f36c97b243245504477834d58a6aa00c32",
        ],
    },
    ("ba_dangling", "SpeedPPR+inc"): {
        "total_walks": 1730,
        "rows": "ef761f9e128fc9c6ecec88e92d6b7104ff04663599babca21746931ca54a170a",
        "queries": [
            "ef243c3d2890390a639ca90208c45d4efcf8a2fe7b12569aae97aa42d2829d4b",
            "c68e904f154579145f8b876d09bcefe1047179f9b832bcda6ae0f61737d889b8",
            "30f0520b7670cb37bd15482b9f53533c13226c9374950ec4db84c4f9e2fcfb0f",
            "3a5c0bc076882829417da02bf313ce585c6962710f5c412e5c5d8be0abd01817",
            "7ff625c843b2b35e640da589261d1cbfa62611294fb204f5a28e796bb88fc96e",
        ],
    },
    ("lj", "FORA+inc"): {
        "total_walks": 49368,
        "rows": "00dbfa74d3aeaeaccba6c7fe0ef6099c8c9febb226d21afc0f9e4155561b6d81",
        "queries": [
            "6a413ef1574e6f75c88635aa6996227463285776e5522dad20b1e07cbc904ccf",
            "de35dd5edb74ce74203d791222a06d2c6c960f667179898dab5e43fe9237d019",
            "cb0410cc35c1c6dca285de63ade98bffebe36e74349056bb60f58b7562378a1e",
            "c90f8f1a0b13599ff4e0c369de42584d638a61ae9733e73d011e01d2284358a7",
            "f5736e04105ac6507e02d9b953ff057350c0e50f0bc8dc2e817aee61ed935633",
        ],
    },
    ("lj", "SpeedPPR+inc"): {
        "total_walks": 23186,
        "rows": "ba08bd5ddb2b026a0df7f70f29b23ffc6722bc48e0d4994624deb2fa6b529f73",
        "queries": [
            "b12256e12e52b129f75a2c2da33c05e04776f9ae2749c37815635dd8e8b3389c",
            "b1580e00b119923d9fcd6b41f54112e441423017497132dd6fbe9c568fb86385",
            "9bd86263d3d134cfdd0d1ec1cff146554b58ca1a5487c7c78d7bc08661a3a15e",
            "bc22d277daa1e289dc738c22b2c3816a5a1f4d204224fb6e5b4158d92c33bb63",
            "30c51e55524c08f2535858964f2f6e7d11a27790ee159d5335c7c2519271dada",
        ],
    },
}


@pytest.mark.parametrize("algorithm_name", ["FORA+inc", "SpeedPPR+inc"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_seeded_answers_match_the_recorded_parent(graph_name, algorithm_name):
    assert digests(graph_name, algorithm_name) == GOLDEN[
        (graph_name, algorithm_name)
    ]


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {
            (g, a): digests(g, a)
            for g in sorted(GRAPHS)
            for a in ("FORA+inc", "SpeedPPR+inc")
        },
        width=100,
    )
