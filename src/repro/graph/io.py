"""Plain-text edge-list I/O (SNAP-style).

Format: one ``u v`` pair per line, ``#``-prefixed comment lines
ignored — the format of the public datasets in Table II of the paper,
so a user with access to e.g. soc-Pokec can drop it straight in.
"""

from __future__ import annotations

import os

from repro.graph.digraph import DynamicGraph


def load_edge_stream(
    path: str | os.PathLike[str],
) -> list[tuple[int, int]]:
    """Read a whitespace-separated edge list, preserving line order.

    Columns past the first two (SNAP weights, timestamps) are ignored.
    """
    stream: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{line_no}: expected 'u v', got {line!r}")
            stream.append((int(parts[0]), int(parts[1])))
    return stream


def load_edge_list(
    path: str | os.PathLike[str], directed: bool = True
) -> DynamicGraph:
    """Load a graph from a whitespace-separated edge list.

    Parameters
    ----------
    path:
        Text file with one ``u v`` integer pair per line.
    directed:
        When False every line also inserts the reverse edge, the way the
        paper treats its undirected datasets (DBLP, Orkut).
    """
    graph = DynamicGraph()
    for u, v in load_edge_stream(path):
        graph.add_edge(u, v)
        if not directed:
            graph.add_edge(v, u)
    return graph


def save_edge_list(graph: DynamicGraph, path: str | os.PathLike[str]) -> None:
    """Write ``graph`` as a sorted edge list with a size header comment."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
        for u, v in sorted(graph.edges()):
            handle.write(f"{u} {v}\n")
