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
            "cd790ef06599401f1e3d60b3d73d34b8ba62a3e264881b4536f0526fdf9a7946",
            "3670936e53c2814fff63ab8e00053704d5bfbf3344e235b53eb55dd21d22ee1c",
            "db88ecac14f7eff510c0730f0836b499c832c8ace72d7c1a8f57e2347763451b",
            "8e67060514e89a556f3c66e9d24d58457de4248071851e7fe84bdcbb0c8cdd7a",
            "73b4bc77eb1741ee5719ff8d686fd3b9c24ea69f64a3603737480250e59aaea3",
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
            "5d8d3f298e7f811f7ff7a8d84d8ed1c7e2fb6496bce8462f750b2982fb46be8d",
            "7421d95e6f129b0fb2f288d8ba13c5a28ccb6ad3f154ed15fef931730cee0190",
            "dbfd0d6dd93db05a9ed0083e92593c212122c32eb06a7e3ab66ae28ca2367fb3",
            "f638eeff5865904fd1524b929efedd53302e2130b1c3bd7984b35a58b0e2d01d",
            "5e3e017b9112d9d242687f73f054661fe035e635310376522ab0d2964a6ca5c4",
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
