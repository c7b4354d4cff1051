"""Synthetic graph generators.

The paper evaluates on six real graphs (Webs … Twitter, Table II).
Those datasets are not redistributable here, so the benchmarks use a
ladder of synthetic graphs with matching *relative* properties:

* ``barabasi_albert_graph`` — heavy-tailed degree distribution, the
  dominant shape of the paper's social/web graphs;
* ``erdos_renyi_graph`` — homogeneous control;
* ``watts_strogatz_graph`` — high clustering, small world;
* plus tiny deterministic graphs (star, ring, grid, complete) used by
  unit tests where exact PPR values are known or easy to reason about.

All generators are deterministic given a seed.  The two random ones
the datasets use are recipes for a list of ``(u, v)`` pairs
(``barabasi_albert_edges``, ``erdos_renyi_edges``) that
``DynamicGraph.from_edge_array`` turns into the graph the ``add_edge``
loop over those pairs would build, so a process that only needs the
edges (the fleet's image builder) never builds a graph.
"""

from __future__ import annotations

import random

from repro.graph.digraph import DynamicGraph


def erdos_renyi_edges(
    n: int,
    p: float | None = None,
    m: int | None = None,
    directed: bool = True,
    seed: int | None = None,
) -> list[tuple[int, int]]:
    """The pairs of :func:`erdos_renyi_graph`, in insertion order.

    ``edges`` is an ordered set: a pair drawn again keeps its first
    place, as ``add_edge`` skips an edge that is already there.
    """
    if (p is None) == (m is None):
        raise ValueError("specify exactly one of p or m")
    rng = random.Random(seed)
    edges: dict[tuple[int, int], None] = {}
    if p is not None:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    edges[u, v] = None
                    if not directed:
                        edges[v, u] = None
        return list(edges)
    max_edges = n * (n - 1)
    if m > max_edges:
        raise ValueError(f"m={m} exceeds the maximum {max_edges}")
    while len(edges) < (m if directed else 2 * m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges[u, v] = None
        if not directed:
            edges[v, u] = None
    return list(edges)


def erdos_renyi_graph(
    n: int,
    p: float | None = None,
    m: int | None = None,
    directed: bool = True,
    seed: int | None = None,
) -> DynamicGraph:
    """G(n, p) or G(n, m) random graph.

    Exactly one of ``p`` (edge probability) or ``m`` (edge count) must
    be given.  ``m``-mode samples edges without replacement, which is
    the natural way to hit a target |E| for a benchmark dataset.
    """
    return DynamicGraph.from_edge_array(
        n, erdos_renyi_edges(n, p, m, directed, seed)
    )


def barabasi_albert_edges(
    n: int,
    attach: int = 3,
    directed: bool = True,
    seed: int | None = None,
) -> list[tuple[int, int]]:
    """The pairs of :func:`barabasi_albert_graph`, in insertion order.

    None repeats: a new node's out-edges and the reverse edges into it
    are all born in its own step, to distinct targets.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n <= attach:
        raise ValueError("n must exceed attach")
    rng = random.Random(seed)
    # Seed clique among the first attach+1 nodes.
    clique = range(attach + 1)
    pairs = [(u, v) for u in clique for v in clique if u != v]
    targets_pool = [u for u in clique for _ in range(attach)]
    for u in range(attach + 1, n):
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(targets_pool))
        for v in chosen:
            pairs.append((u, v))
            targets_pool.extend([u, v])
            if not directed or rng.random() < 0.5:
                pairs.append((v, u))
    return pairs


def barabasi_albert_graph(
    n: int,
    attach: int = 3,
    directed: bool = True,
    seed: int | None = None,
) -> DynamicGraph:
    """Preferential-attachment graph with ``attach`` edges per new node.

    Produces the power-law out/in-degree mix characteristic of the
    paper's datasets.  Directed mode points each new node at ``attach``
    existing nodes chosen preferentially and also adds the reverse edge
    with probability 0.5, giving a realistic (partially reciprocal)
    social-network shape.
    """
    return DynamicGraph.from_edge_array(
        n, barabasi_albert_edges(n, attach, directed, seed)
    )


def watts_strogatz_graph(
    n: int,
    k: int = 4,
    rewire_p: float = 0.1,
    seed: int | None = None,
) -> DynamicGraph:
    """Small-world ring lattice with random rewiring (undirected edges)."""
    if k % 2 or k >= n:
        raise ValueError("k must be even and < n")
    rng = random.Random(seed)
    graph = DynamicGraph(num_nodes=n)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < rewire_p:
                v = rng.randrange(n)
                while v == u or graph.has_edge(u, v):
                    v = rng.randrange(n)
            graph.add_edge(u, v)
            graph.add_edge(v, u)
    return graph


def complete_graph(n: int) -> DynamicGraph:
    """K_n with both directions of every edge."""
    graph = DynamicGraph(num_nodes=n)
    for u in range(n):
        for v in range(n):
            if u != v:
                graph.add_edge(u, v)
    return graph


def star_graph(n: int) -> DynamicGraph:
    """Hub node 0 with spokes 1..n-1 (bidirectional)."""
    graph = DynamicGraph(num_nodes=n)
    for v in range(1, n):
        graph.add_edge(0, v)
        graph.add_edge(v, 0)
    return graph


def ring_graph(n: int, directed: bool = True) -> DynamicGraph:
    """Cycle 0 -> 1 -> ... -> n-1 -> 0."""
    graph = DynamicGraph(num_nodes=n)
    for u in range(n):
        graph.add_edge(u, (u + 1) % n)
        if not directed:
            graph.add_edge((u + 1) % n, u)
    return graph


def grid_graph(rows: int, cols: int) -> DynamicGraph:
    """rows x cols 4-neighbor lattice with bidirectional edges."""
    graph = DynamicGraph(num_nodes=rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                graph.add_edge(u, u + 1)
                graph.add_edge(u + 1, u)
            if r + 1 < rows:
                graph.add_edge(u, u + cols)
                graph.add_edge(u + cols, u)
    return graph
