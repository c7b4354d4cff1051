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

Every ``rows`` and ``queries`` digest was re-recorded when the graph's
rows became its only adjacency: a delete used to swap-remove within the
CSR row (the last neighbour moved into the hole) while the graph's
out-list kept its order, and walks pick the k-th neighbour of the row.
A row now keeps the out-list's order after a delete; the new digests
are what the parent produced with its CSR rows rebuilt from the
out-lists at every graph version.  ``total_walks`` did not move.

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
        row = index.terminals_for(i, int(index.rows.lens[i]))
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
        "rows": "24db412413c36f9eb94d9cf0598aa5b21161f7f0302fef5a9cf031aaffb257ff",
        "queries": [
            "1b2f901010499d750053754d69ceaea1dc2c145ca2522f2aca538c392e645828",
            "59d6ba806e7be1c5fb69d3facee48ce641b15370915e39f60c46b9b357f0ee3e",
            "1fb79a66f1dccb1c79f208dee64779728e798ec797c00e569ea2df94224835cc",
            "cabc807c7a67606d046ca9dd7dcfb33e252a48cc6ac46ec898e40b19dd6c4a74",
            "0e38ba508b283f644888e3bfd93b3454e1d8217290a9f1073fc21a05380ea776",
        ],
    },
    ("ba_dangling", "SpeedPPR+inc"): {
        "total_walks": 1730,
        "rows": "7ff098ef557d9209c382a60b8549527e1d346fcb0fb21e91912678f235986a2a",
        "queries": [
            "febd22a9e98a18e981ba0d1b2b1e79129cede82732ab7893fb9342bdf1e3ac16",
            "6a22b7b598c0daec4a888522ae8390d4f4ab215726c68299e0dd0a376ddfac39",
            "53f86f04ee1e321d5c414b1bcacdd6f3b7d8f977dbe8bc6c3815f3eb78de9da3",
            "3b6043915a74f13542314b7b2e6325af78e7cb3cda16761d7a4fee783d4928c9",
            "11f3a961bc1ee7548fdd30978d5834c3bdf5ab8b046a5d9bca675809a2d2a567",
        ],
    },
    ("lj", "FORA+inc"): {
        "total_walks": 49368,
        "rows": "b13b62e0d08f78131c9a45f929ce0643bdd7e082563a8b65a487373d55db31af",
        "queries": [
            "aa92f6777507cfb25ad6636885c05308ddc201176d22d25692b6ebb59c1dc995",
            "092d09dfce9cc6d01222f6edcc998fe89e895a783ec2ad9cfd4a59cd5bfaf40e",
            "8b7f6301b1bd44fcb4a6d175899fc65d3c45c2ce0d60d16f597b723b4824c794",
            "9a5fca75a10bc33e4c421fc7ed72da3310aae4c4e0c83993d1792a8e79a792ec",
            "ec5e7a48444b275094b9c290a9efe679d2cc42bcb4e47795141cf29f2adb6bc8",
        ],
    },
    ("lj", "SpeedPPR+inc"): {
        "total_walks": 23186,
        "rows": "b21e724ea247248286d48132d30047d2e1336541002485e5683cc106249befcc",
        "queries": [
            "3490a324274aa17dab3ab729d2dce532438f0252b1f07fcd6d8cfaa5e09ab8ed",
            "5f5fe95e09af113fa640db5712271acef8556f497b2f5d05105ef371ed88af29",
            "b10d58568cfa84744af8bb836b0dc3972c37a28fa8b6a082da6ae5c2fbd97d7f",
            "0f9d95d4c587f180c5b4319ea0b3d12353c219908cbead4a68790bdb1691fb03",
            "d454c46d69a83235c452c4c6a762825d79c322b1a235e8a3526db634952fcb0a",
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
