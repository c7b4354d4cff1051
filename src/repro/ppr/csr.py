"""CSR views of a dynamic graph.

All inner loops of the PPR algorithms — forward/reverse push,
vectorized random walks, power iteration — run over flat numpy arrays
rather than Python adjacency structures.  :class:`CSRView` exposes a
graph as those arrays, and they are the graph's own: a
:class:`~repro.graph.digraph.DynamicGraph` stores its edges as the
slack-slot rows of :mod:`repro.graph.adjacency`, which every mutation
patches in O(deg) amortized, so the paper's update service time t̃u
(the quantity Quota's Table I cost model is calibrated against) pays
for one copy of the edges, not two.  :func:`csr_view` builds nothing
but an O(1) facade per graph version:

* Between updates, repeated calls return the same facade; after a
  mutation the next call returns a new one, so object identity remains
  a valid staleness probe for downstream caches such as walk indexes.
* **Row order** — an out-row lists its neighbours in insertion order; a
  delete removes the entry in place, and a repack (once slack exceeds
  ``REBUILD_SLACK_RATIO`` × live entries) keeps every row's order, so
  which seeded answer a query gets never depends on when a repack ran.
* **In-rows on demand** — a view holds out-rows always and in-rows
  only once a reverse-push caller asks (``csr_view(graph,
  reverse=True)``: Agenda, TopPPR).  The graph builds them as
  one vectorised transpose of its out-rows, listing each row's
  in-neighbours by ascending source index, and patches them on every
  mutation from then on.  A graph served by forward push and walks
  alone (FORA, FORA+inc) never holds them.

Array contract: the out-row of node index ``i`` occupies
``indices[indptr[i] : indptr[i] + out_deg[i]]`` (same for in-rows).
``indptr[i + 1]`` is **not** the end of row ``i`` unless
:attr:`CSRView.is_packed` is true; consumers needing strictly packed
arrays (e.g. scipy matrix construction) use :meth:`CSRView.packed_out`
/ :meth:`CSRView.packed_in`.

A facade is guaranteed consistent only until the graph's next
mutation, which patches the arrays it shares; after that, adjacency
reads through an old facade are undefined — only its node-id mapping
stays valid (node slots are append-only, and a node removal or a
restore replaces the id array), which is what
:class:`~repro.ppr.base.PPRVector` needs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import ragged_indices
from repro.graph.digraph import DynamicGraph


class UnknownNodeError(KeyError):
    """A node id the snapshot does not hold: a query's bad source."""

    def __str__(self) -> str:
        return str(self.args[0])


class CSRView:
    """Array view of a graph at one version.

    Attributes
    ----------
    nodes:
        Node ids in index order; ``nodes[i]`` is the id of index ``i``.
    index:
        Mapping node id -> dense index (None on the identity fast path).
    indptr, indices:
        Out-adjacency: the out-neighbors (as dense indices) of node
        index ``i`` are ``indices[indptr[i] : indptr[i] + out_deg[i]]``.
    in_indptr, in_indices:
        In-adjacency in the same form (for reverse push); None unless
        the view came from ``csr_view(graph, reverse=True)``.
    out_deg, in_deg:
        Degree arrays (``in_deg`` None with the in-adjacency).
    is_packed:
        True when the adjacency arrays are strictly packed (row ends
        coincide with the next row's start and ``indptr[n] == m``): rows
        as a bulk build, a copy or a repack leaves them.  Patched rows
        are not, even where they hold no slack.
    """

    __slots__ = (
        "nodes",
        "index",
        "indptr",
        "indices",
        "in_indptr",
        "in_indices",
        "out_deg",
        "in_deg",
        "n",
        "m",
        "version",
        "identity_ids",
        "is_packed",
    )

    def __init__(self, graph: DynamicGraph) -> None:
        """The facade of ``graph``'s arrays at its current version."""
        out = graph._out
        self.version = graph.version
        self.n = n = out.n
        self.m = out.live
        self.nodes = graph._ids[:n]
        self.index = graph._index
        self.identity_ids = graph._index is None
        self.indptr = out.starts[:n + 1]
        self.indices = out.data[:out.tail]
        self.out_deg = out.lens[:n]
        self.is_packed = out.is_packed
        self.in_indptr = self.in_indices = self.in_deg = None
        if graph._in is not None:
            self._hold_in_rows(graph)

    def _hold_in_rows(self, graph: DynamicGraph) -> None:
        """Take ``graph``'s in-rows (built on its first ask)."""
        inc = graph._in_rows()
        self.in_indptr = inc.starts[:self.n + 1]
        self.in_indices = inc.data[:inc.tail]
        self.in_deg = inc.lens[:self.n]
        self.is_packed = self.is_packed and inc.is_packed

    # ------------------------------------------------------------------
    def to_index(self, node: int) -> int:
        """Dense index of a node id."""
        if self.identity_ids:
            if 0 <= node < self.n:
                return node
        elif node in self.index:
            return self.index[node]
        raise UnknownNodeError(f"node {node} not in graph snapshot")

    def to_node(self, i: int) -> int:
        """Node id of a dense index."""
        return int(self.nodes[i])

    def out_neighbors_of(self, i: int) -> np.ndarray:
        """Out-neighbor indices of node index ``i``."""
        start = self.indptr[i]
        return self.indices[start:start + self.out_deg[i]]

    def in_neighbors_of(self, i: int) -> np.ndarray:
        """In-neighbor indices of node index ``i`` (a view with
        in-adjacency only)."""
        start = self.in_indptr[i]
        return self.in_indices[start:start + self.in_deg[i]]

    # ------------------------------------------------------------------
    def packed_out(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-adjacency as strictly packed ``(indptr, indices)``.

        Zero-copy when :attr:`is_packed`; otherwise a vectorized gather
        producing fresh arrays of exactly ``m`` entries.
        """
        if self.is_packed:
            return self.indptr, self.indices
        return _pack_rows(self.indptr, self.indices, self.out_deg, self.n)

    def packed_in(self) -> tuple[np.ndarray, np.ndarray]:
        """In-adjacency as strictly packed ``(indptr, indices)`` (a view
        with in-adjacency only)."""
        if self.is_packed:
            return self.in_indptr, self.in_indices
        return _pack_rows(self.in_indptr, self.in_indices, self.in_deg, self.n)


def _pack_rows(
    starts: np.ndarray, data: np.ndarray, lens: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather slack-slot rows into packed (indptr, indices) arrays."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr, data[ragged_indices(starts[:n], lens)]


def csr_view(graph: DynamicGraph, reverse: bool = False) -> CSRView:
    """Return the CSR view of ``graph`` at its current version.

    An O(1) facade over the graph's own rows, cached on the graph until
    its next mutation: repeated calls between updates return the same
    object.

    ``reverse=True`` is for reverse push: the view then carries the
    in-adjacency, which the graph builds the first time it is asked
    (an O(m log m) transpose, taken in place by the current view so its
    identity holds) and patches from then on.
    """
    view = graph._view
    if view is None or view.version != graph.version:
        view = graph._view = CSRView(graph)
    if reverse and view.in_deg is None:
        view._hold_in_rows(graph)
    return view
