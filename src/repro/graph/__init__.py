"""Dynamic directed graph substrate.

This subpackage implements the graph model of the paper: a directed graph
subject to a stream of edge updates, where an arriving edge ``(u, v)`` is
an *insert* if absent and a *delete* if present (Section II-B of the
paper).  It also provides synthetic generators used as stand-ins for the
paper's real datasets, and plain-text edge-list I/O.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graph.digraph import DynamicGraph
    from repro.graph.generators import (
        barabasi_albert_graph,
        complete_graph,
        erdos_renyi_graph,
        grid_graph,
        ring_graph,
        star_graph,
        watts_strogatz_graph,
    )
    from repro.graph.io import load_edge_list, save_edge_list
    from repro.graph.updates import EdgeUpdate, UpdateStream, random_update_stream

__all__ = [
    "DynamicGraph",
    "EdgeUpdate",
    "UpdateStream",
    "random_update_stream",
    "barabasi_albert_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "ring_graph",
    "star_graph",
    "watts_strogatz_graph",
    "load_edge_list",
    "save_edge_list",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "digraph": ["DynamicGraph"],
        "generators": [
            "barabasi_albert_graph",
            "complete_graph",
            "erdos_renyi_graph",
            "grid_graph",
            "ring_graph",
            "star_graph",
            "watts_strogatz_graph",
        ],
        "io": ["load_edge_list", "save_edge_list"],
        "updates": ["EdgeUpdate", "UpdateStream", "random_update_stream"],
    },
)
