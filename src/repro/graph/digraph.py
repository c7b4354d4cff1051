"""A dynamic directed graph with O(degree) edge inserts and deletes.

The graph is the substrate every PPR algorithm in this repository runs
on.  Nodes are integer ids, each at a dense index (``0 .. n - 1`` in
insertion order); the edges are stored once, as the slack-slot rows of
:mod:`repro.graph.adjacency` — one out-row of neighbour indices per
node, in insertion order, patched in O(out-degree) per insert or
delete.  Those rows are what forward push and random walks read:
:func:`repro.ppr.csr.csr_view` hands them out as arrays without copying
them.  ``has_edge(u, v)`` scans ``u``'s row and ``num_edges`` is the
rows' entry count.  In-rows are built only when a reverse-push caller
first asks (``csr_view(graph, reverse=True)``), as the transpose of the
out-rows, and every mutation patches them from then on;
:meth:`DynamicGraph.in_neighbors` is an O(m) scan of the out-rows.
This mirrors the compressed adjacency arrays of the reference C++
implementations of FORA / Agenda.

Importing this module loads no numpy (the graph-image builder imports
it through the generators and never builds a graph); constructing a
graph does.

Conventions
-----------
* Self loops are allowed; parallel edges are not (the edge-arrival model
  of the paper toggles an edge's existence, so multiplicity is never
  needed).
* A *dangling* node (out-degree zero) is treated as if it had an
  implicit self loop.  For random walks this means the walk terminates
  at the node; for forward push the alpha-fraction of the residue is
  converted to reserve and the rest stays on the node.  All algorithms
  and the power-iteration ground truth share this convention so their
  outputs are comparable.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.graph.adjacency import Adjacency


def as_edge_array(
    num_nodes: int, pairs: "np.ndarray | Iterable[tuple[int, int]]"
) -> np.ndarray:
    """``pairs`` as an ``(m, 2)`` int32 array of distinct edges.

    Accepts an array or any iterable of ``(u, v)`` pairs.  Raises
    ValueError for non-integer ids, ids outside ``[0, num_nodes)`` or
    the int32 range, and repeated pairs: ``add_edge`` ignores a
    duplicate, a consumer that counts rows would count it.
    """
    # numpy is loaded by the three bulk-build helpers only: the graph-image
    # builder imports this module through the generators and never calls them
    import numpy as np

    arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError(
            f"edges must be (m, 2) integers, got shape {arr.shape} "
            f"of {arr.dtype}"
        )
    limit = min(num_nodes, np.iinfo(np.int32).max + 1)
    if arr.min() < 0 or arr.max() >= limit:
        raise ValueError(
            f"edge endpoints must lie in [0, {limit}), got "
            f"[{arr.min()}, {arr.max()}]"
        )
    keys = arr[:, 0].astype(np.int64) * num_nodes + arr[:, 1]
    # strictly increasing keys (the sorted pairs a ShardSpec ships) are
    # distinct already: only other orders pay for the sort
    if not (keys[1:] > keys[:-1]).all():
        keys.sort()
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            u, v = divmod(int(keys[repeated[0]]), num_nodes)
            raise ValueError(f"duplicate edge ({u}, {v})")
    return arr.astype(np.int32, copy=False)


def _id_index(ids: np.ndarray) -> dict[int, int] | None:
    """Node id -> dense index, or None when ``ids[i] == i`` throughout
    (the identity fast path: no dict lookups)."""
    import numpy as np

    if np.array_equal(ids, np.arange(ids.size)):
        return None
    return dict(zip(ids.tolist(), range(ids.size)))


class DynamicGraph:
    """Directed graph supporting dynamic edge inserts and deletes.

    Parameters
    ----------
    num_nodes:
        If given, pre-creates nodes ``0 .. num_nodes - 1``.  Nodes are
        also created implicitly by :meth:`add_edge` / :meth:`add_node`.

    Examples
    --------
    >>> g = DynamicGraph()
    >>> g.add_edge(0, 1)
    True
    >>> g.add_edge(1, 2)
    True
    >>> g.out_degree(1)
    1
    >>> sorted(g.out_neighbors(0))
    [1]
    """

    __slots__ = ("_ids", "_index", "_out", "_in", "_version", "_view", "__weakref__")

    def __init__(self, num_nodes: int = 0) -> None:
        import numpy as np

        from repro.graph.adjacency import Adjacency

        self._take(
            np.arange(num_nodes, dtype=np.int64),
            None,
            Adjacency(np.zeros(num_nodes, dtype=np.int64), np.empty(0, np.int64)),
        )
        self._version = 0
        # the current version's CSRView (owned by repro.ppr.csr; opaque
        # here so the graph layer stays view-free)
        self._view: object | None = None

    def _take(
        self, ids: np.ndarray, index: dict[int, int] | None, out: Adjacency
    ) -> None:
        """Hold ``out`` as the out-rows of the nodes ``ids`` (index
        order; ``index`` maps them back, None on the identity path)."""
        self._ids = ids
        self._index = index
        self._out = out
        self._in: Adjacency | None = None

    @classmethod
    def _of(
        cls,
        ids: np.ndarray,
        index: dict[int, int] | None,
        out: Adjacency,
        version: int,
    ) -> "DynamicGraph":
        graph = cls.__new__(cls)
        graph._take(ids, index, out)
        graph._version = version
        graph._view = None
        return graph

    @property
    def version(self) -> int:
        """Monotonic structure-change counter.

        Incremented by every mutation (a no-op is not one); used by
        cached derived views (e.g. the CSR facades of
        :mod:`repro.ppr.csr`) to detect staleness without holding
        references into the graph.  Never decreases — :meth:`restore`
        moves it strictly forward, so a (graph, version) pair always
        denotes one unique structure.
        """
        return self._version

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], directed: bool = True
    ) -> "DynamicGraph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        When ``directed`` is False each pair inserts both directions,
        matching how the paper's undirected datasets (DBLP, Orkut) are
        handled by directed PPR algorithms.
        """
        graph = cls()
        for u, v in edges:
            graph.add_edge(u, v)
            if not directed:
                graph.add_edge(v, u)
        return graph

    @classmethod
    def from_edge_array(
        cls, num_nodes: int, pairs: "np.ndarray | Iterable[tuple[int, int]]"
    ) -> "DynamicGraph":
        """Bulk-build the graph that ``DynamicGraph(num_nodes)`` followed
        by ``add_edge(u, v)`` for every row of ``pairs`` would be.

        Same rows (each in row order of ``pairs``, so lexicographically
        sorted pairs give ascending rows) and the same ``version ==
        len(pairs)``, but packed with one stable sort instead of ``m``
        calls, and none when ``pairs`` is already grouped by source.
        ``pairs`` is validated by :func:`as_edge_array`.
        """
        import numpy as np

        from repro.graph.adjacency import Adjacency

        pairs = as_edge_array(num_nodes, pairs)
        src = pairs[:, 0]
        dst = pairs[:, 1]
        if not (src[1:] >= src[:-1]).all():
            dst = dst[np.argsort(src, kind="stable")]
        out = Adjacency(
            np.bincount(src, minlength=num_nodes), dst.astype(np.int64)
        )
        return cls._of(
            np.arange(num_nodes, dtype=np.int64), None, out, len(pairs)
        )

    def copy(self) -> "DynamicGraph":
        """Return an independent deep copy of this graph: the same rows,
        packed, at the same version, without in-rows or cached views."""
        index = None if self._index is None else dict(self._index)
        ids = self._ids[:self._out.n].copy()
        return DynamicGraph._of(ids, index, self._out.packed(), self._version)

    def snapshot(self) -> "DynamicGraph":
        """Capture the current structure for a later :meth:`restore`."""
        return self.copy()

    def restore(self, snap: "DynamicGraph") -> None:
        """Replace this graph's structure with ``snap``'s.

        The version counter moves strictly *forward* past both graphs'
        counters instead of rewinding to the snapshot's value, so a
        derived view cached at some version can never be wrongly
        revalidated after the structure is rolled back (the classic
        stale-window bug of wrap-around version schemes).  In-rows are
        dropped until a reverse-push caller asks again.
        """
        clone = snap.copy()
        self._take(clone._ids, clone._index, clone._out)
        self._version = max(self._version, snap._version) + 1

    def _in_rows(self) -> Adjacency:
        """The in-rows: the transpose of the out-rows, built on the
        first call and patched by every mutation from then on."""
        if self._in is None:
            from repro.graph.adjacency import transpose

            self._in = transpose(self._out)
        return self._in

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def _dense(self, v: int) -> int | None:
        """Dense index of node ``v``; None if ``v`` is not a node."""
        if self._index is not None:
            return self._index.get(v)
        return v if 0 <= v < self._out.n else None

    def _at(self, v: int) -> int:
        """Dense index of node ``v``; KeyError if ``v`` is not a node."""
        i = self._dense(v)
        if i is None:
            raise KeyError(v)
        return i

    def add_node(self, v: int) -> bool:
        """Ensure node ``v`` exists.  Returns True if it was created."""
        if self._dense(v) is not None:
            return False
        import numpy as np

        from repro.graph.adjacency import reserved

        n = self._out.n
        self._ids = reserved(self._ids, n, 1)
        self._ids[n] = v
        if self._index is None and v != n:
            # an id off the 0 .. n - 1 sequence ends the identity path
            self._index = dict(zip(self._ids[:n].tolist(), range(n)))
        if self._index is not None:
            self._index[v] = n
        for rows in (self._out, self._in):
            if rows is not None:
                rows.append_rows(np.zeros(1, dtype=np.int64))
        self._version += 1
        return True

    def remove_node(self, v: int) -> None:
        """Remove ``v`` and all its incident edges; every later node
        moves down one dense index."""
        import numpy as np

        i = self._dense(v)
        if i is None:
            raise KeyError(f"node {v} not in graph")
        for j in self._out.row(i).tolist():
            self._unlink(i, j, self._out.find(i, j))
        for u in self.in_neighbors(v):
            k = self._dense(u)
            self._unlink(k, i, self._out.find(k, i))
        self._ids = np.delete(self._ids[:self._out.n], i)
        self._out.drop_row(i)
        if self._in is not None:
            self._in.drop_row(i)
        self._index = _id_index(self._ids)
        self._version += 1

    def has_node(self, v: int) -> bool:
        return self._dense(v) is not None

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids (insertion order)."""
        return iter(self._ids[:self._out.n].tolist())

    @property
    def num_nodes(self) -> int:
        return self._out.n

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``.  Returns False if it already exists.

        Endpoints are created on demand, matching the paper's model
        where "the insert of a new node u is linked with an update
        ``(u, v)``".
        """
        if self.has_edge(u, v):
            return False
        self._link(u, v)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``.  Raises KeyError if absent."""
        i, j, pos = self._find(u, v)
        if pos < 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._unlink(i, j, pos)

    def toggle_edge(self, u: int, v: int) -> bool:
        """Apply the paper's edge-arrival semantics.

        If ``(u, v)`` exists it is deleted, otherwise inserted
        (Section II-B).  Returns True if the edge was inserted, False
        if it was deleted.
        """
        i, j, pos = self._find(u, v)
        if pos >= 0:
            self._unlink(i, j, pos)
            return False
        self._link(u, v)
        return True

    def _link(self, u: int, v: int) -> None:
        """Insert ``(u, v)``, which the caller checked is absent."""
        self.add_node(u)
        self.add_node(v)
        i, j = self._dense(u), self._dense(v)
        self._out.insert(i, j)
        if self._in is not None:
            self._in.insert(j, i)
        self._edge_changed()

    def _unlink(self, i: int, j: int, pos: int) -> None:
        """Delete the edge from dense index ``i`` to ``j``, found at
        ``pos`` of ``i``'s out-row."""
        self._out.remove(i, pos)
        if self._in is not None:
            self._in.remove(j, self._in.find(j, i))
        self._edge_changed()

    def _edge_changed(self) -> None:
        """Repack rows whose slack grew too large; bump the version."""
        self._out = self._out.compacted()
        if self._in is not None:
            self._in = self._in.compacted()
        self._version += 1

    def _find(self, u: int, v: int) -> tuple[int | None, int | None, int]:
        """Dense indices of ``u`` and ``v`` and the position of ``v`` in
        ``u``'s out-row (-1 when ``(u, v)`` is not an edge)."""
        i, j = self._dense(u), self._dense(v)
        if i is None or j is None:
            return i, j, -1
        return i, j, self._out.find(i, j)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is an edge: a scan of ``u``'s out-row."""
        return self._find(u, v)[2] >= 0

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over directed edges, grouped by source node (node
        order), each source's in out-row order."""
        import numpy as np

        out = self._out
        ids = self._ids[:out.n]
        sources = np.repeat(ids, out.lens[:out.n])
        return zip(sources.tolist(), ids[out.entries()].tolist())

    @property
    def num_edges(self) -> int:
        return self._out.live

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> list[int]:
        """The out-neighbors of ``v``, in insertion order."""
        return self._ids[self._out.row(self._at(v))].tolist()

    def in_neighbors(self, v: int) -> list[int]:
        """The in-neighbors of ``v``, in node order: an O(m) scan of
        the out-rows."""
        import numpy as np

        j = self._at(v)
        out = self._out
        sources = np.repeat(self._ids[:out.n], out.lens[:out.n])
        return sources[out.entries() == j].tolist()

    def out_degree(self, v: int) -> int:
        return int(self._out.lens[self._at(v)])

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``: an O(m) scan, like :meth:`in_neighbors`."""
        return len(self.in_neighbors(v))

    def average_degree(self) -> float:
        """Mean out-degree m/n; the d-bar of the Reverse Push bound."""
        if not self.num_nodes:
            return 0.0
        return self.num_edges / self.num_nodes

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(*item)
        if isinstance(item, int):
            return self.has_node(item)
        return False

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_nodes}, m={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        """Same node set and edge set, in whatever order either holds."""
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return (
            (self.num_nodes, self.num_edges) == (other.num_nodes, other.num_edges)
            and set(self.nodes()) == set(other.nodes())
            and set(self.edges()) == set(other.edges())
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash only
        return id(self)
