"""The fleet's graph image, and the throwaway child that builds it.

A :class:`GraphImage` is ``num_nodes`` plus the packed edge buffer of
:func:`~repro.shard.messages.pack_edges`: what a
:class:`~repro.shard.messages.ShardSpec` carries and what a worker's
:func:`~repro.shard.worker.build_graph` decodes.  ``repro serve`` gets
one from an :class:`ImageBuild`, which generates the dataset graph in a
child process that exits — the front door itself never holds a graph or
loads numpy.  Code that already has a
:class:`~repro.graph.digraph.DynamicGraph` (tests, scenarios, benches)
hands it to :class:`~repro.shard.manager.ShardManager`, which packs it
through :func:`graph_image`.
"""

from __future__ import annotations

import struct
import subprocess
import sys
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from repro.shard.launch import python_child
from repro.shard.messages import pack_edges

if TYPE_CHECKING:
    from repro.graph.digraph import DynamicGraph

#: stdout of the builder child: node count, byte count, then the bytes
_HEADER = struct.Struct("<qq")


class GraphImage(NamedTuple):
    """A graph as the control plane handles it: never decoded."""

    num_nodes: int
    edges: bytes

    @property
    def num_edges(self) -> int:
        return len(self.edges) // 8


def graph_image(graph: "DynamicGraph | GraphImage | ImageBuild") -> GraphImage:
    """Pack ``graph``; an image passes through, a build is waited for."""
    if isinstance(graph, GraphImage):
        return graph
    if isinstance(graph, ImageBuild):
        return graph.result()
    import numpy as np

    # straight from the adjacency lists, no tuple per edge kept
    flat = np.fromiter(
        chain.from_iterable(graph.edges()),
        dtype=np.int64,
        count=2 * graph.num_edges,
    )
    return GraphImage(
        graph.num_nodes, pack_edges(graph.num_nodes, flat.reshape(-1, 2))
    )


def write_image(dataset: str, seed: int) -> None:
    """Builder-child body: the dataset's image on stdout."""
    from repro.evaluation.datasets import get_dataset

    image = graph_image(get_dataset(dataset).build(seed=seed))
    out = sys.stdout.buffer
    out.write(_HEADER.pack(image.num_nodes, len(image.edges)))
    out.write(image.edges)
    out.flush()


class ImageBuild:
    """A registered dataset's image, being built in a throwaway child.

    The child starts with the object; :meth:`result` waits for it.  A
    :class:`~repro.shard.manager.ShardManager` handed an ``ImageBuild``
    launches its worker processes before it asks for the result, so the
    workers import while the graph is generated and packed.
    """

    def __init__(self, dataset: str, seed: int) -> None:
        self.dataset = dataset
        self._child = python_child(
            "from repro.shard.image import write_image; "
            f"write_image({dataset!r}, {seed!r})",
            stdout=subprocess.PIPE,
        )

    def result(self) -> GraphImage:
        """The finished image (call once).

        Raises RuntimeError when the child fails or its output is short;
        the bytes are validated again wherever a ``ShardSpec`` is made
        of them.
        """
        child = self._child
        # two reads, not communicate(): its chunk list and the slice
        # after the header would leave this long-lived process ~1 MB
        # heavier
        with child:
            stream = child.stdout
            if stream is None:  # pragma: no cover - stdout=PIPE was asked for
                raise RuntimeError("graph-image builder has no stdout pipe")
            header = stream.read(_HEADER.size)
            edges = stream.read()
        if child.returncode != 0:
            raise RuntimeError(
                f"graph-image builder for {self.dataset!r} exited with "
                f"{child.returncode}"
            )
        if len(header) != _HEADER.size:
            raise RuntimeError("graph-image builder wrote no header")
        num_nodes, size = _HEADER.unpack(header)
        if len(edges) != size:
            raise RuntimeError(
                f"graph-image builder wrote {len(edges)} of {size} edge bytes"
            )
        return GraphImage(num_nodes, edges)
