"""The row-order oracle: the adjacency lists a graph's rows must equal.

``DynamicGraph`` stores each node's neighbours as slack-slot rows.
:class:`ReferenceRows` holds what plain Python lists would hold under
the same mutations — an insert appends, a delete removes the entry in
place, a node removal strips the node from every list and its own —
and :meth:`ReferenceRows.check` compares a CSR view with them, order
included.  In-lists exist once a reverse view has asked for them: they
start as each node's in-neighbours in node order (the transpose) and
follow the same rules; a copy or a restore starts without them.
"""

from __future__ import annotations

import numpy as np


class ReferenceRows:
    def __init__(self, nodes=(), edges=()):
        self.out: dict[int, list[int]] = {v: [] for v in nodes}
        self.inc: dict[int, list[int]] | None = None
        for u, v in edges:
            self.link(u, v)

    @classmethod
    def of(cls, graph) -> "ReferenceRows":
        """The lists of ``graph`` as it stands (trusting its rows now)."""
        return cls(graph.nodes(), graph.edges())

    def copy(self) -> "ReferenceRows":
        clone = ReferenceRows()
        clone.out = {v: list(nbrs) for v, nbrs in self.out.items()}
        return clone

    # ------------------------------------------------------------------
    def add_node(self, v: int) -> None:
        if v not in self.out:
            self.out[v] = []
            if self.inc is not None:
                self.inc[v] = []

    def link(self, u: int, v: int) -> None:
        self.add_node(u)
        self.add_node(v)
        self.out[u].append(v)
        if self.inc is not None:
            self.inc[v].append(u)

    def unlink(self, u: int, v: int) -> None:
        self.out[u].remove(v)
        if self.inc is not None:
            self.inc[v].remove(u)

    def toggle(self, u: int, v: int) -> None:
        if v in self.out.get(u, ()):
            self.unlink(u, v)
        else:
            self.link(u, v)

    def apply(self, resolved) -> None:
        """Follow an applied :class:`~repro.graph.updates.EdgeUpdate`."""
        if resolved.kind == "insert":
            self.link(resolved.u, resolved.v)
        else:
            self.unlink(resolved.u, resolved.v)

    def remove_node(self, v: int) -> None:
        for w in list(self.out[v]):
            self.unlink(v, w)
        for u in [u for u, nbrs in self.out.items() if v in nbrs]:
            self.unlink(u, v)
        del self.out[v]
        if self.inc is not None:
            del self.inc[v]

    def hold_in(self) -> None:
        """A reverse view asked: in-lists from now on."""
        if self.inc is None:
            self.inc = {v: [] for v in self.out}
            for u, nbrs in self.out.items():
                for v in nbrs:
                    self.inc[v].append(u)

    # ------------------------------------------------------------------
    def check(self, view) -> None:
        """``view`` lists every row exactly as these lists do."""
        nodes = list(self.out)
        assert view.nodes.tolist() == nodes
        assert view.n == len(nodes)
        assert view.m == sum(map(len, self.out.values()))
        ids = np.asarray(view.nodes)
        for i, v in enumerate(nodes):
            row = ids[view.out_neighbors_of(i)].tolist()
            assert row == self.out[v], f"out-row of {v}: {row} != {self.out[v]}"
        assert (view.in_deg is None) == (self.inc is None)
        if self.inc is not None:
            for i, v in enumerate(nodes):
                row = ids[view.in_neighbors_of(i)].tolist()
                assert row == self.inc[v], f"in-row of {v}: {row} != {self.inc[v]}"
