"""A dynamic directed graph with O(degree) edge inserts and deletes.

The graph is the substrate every PPR algorithm in this repository runs
on.  It is deliberately simple: integer node ids and one out-list per
node, nothing else — the out-lists are the only copy of the edge set,
so ``has_edge(u, v)`` scans ``u``'s out-list (O(out-degree), like
inserts and deletes) and ``num_edges`` is a counter.  No in-lists are
kept: forward push and random walks read out-edges only, reverse push
reads the in-rows :mod:`repro.ppr.csr` transposes from the out-rows on
demand, and :meth:`DynamicGraph.in_neighbors` is an O(m) scan for tests
and :meth:`DynamicGraph.remove_node`.  This mirrors the in-memory
representation used by the reference C++ implementations of FORA /
Agenda (compressed adjacency arrays), while staying idiomatic Python.

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

#: log entries kept before the oldest half is discarded, a cap that only
#: a graph no view catches up on reaches (:meth:`DynamicGraph.release_log`
#: drops what the CSR store applied); derived views older than the
#: retained window fall back to a full rebuild
MAX_UPDATE_LOG = 65_536

# Update-log opcodes.  Each logged entry corresponds to exactly one
# version increment, so a consumer at version v catches up by replaying
# the entries for versions v+1 .. current.
ADD_EDGE = "+e"
REMOVE_EDGE = "-e"
ADD_NODE = "+n"
REMOVE_NODE = "-n"
RESET = "!"  # structure replaced wholesale (restore); forces rebuild


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
    keys = np.sort(arr[:, 0].astype(np.int64) * num_nodes + arr[:, 1])
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        u, v = divmod(int(keys[repeated[0]]), num_nodes)
        raise ValueError(f"duplicate edge ({u}, {v})")
    return arr.astype(np.int32, copy=False)


def _adjacency(
    nodes: list[int], table: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> dict[int, list[int]]:
    """``{node: [values[i] for i where keys[i] == node]}``, each list in
    row order, its entries drawn from the object array ``table``."""
    import numpy as np

    order = np.argsort(keys, kind="stable")
    flat = table[values[order]].tolist()
    ends = np.cumsum(np.bincount(keys, minlength=len(nodes))).tolist()
    return {
        node: flat[start:end]
        for node, start, end in zip(nodes, [0] + ends, ends)
    }


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

    __slots__ = (
        "_out",
        "_num_edges",
        "_version",
        "_log",
        "_log_base",
        "_csr_cache",
        "__weakref__",
    )

    def __init__(self, num_nodes: int = 0) -> None:
        self._out: dict[int, list[int]] = {v: [] for v in range(num_nodes)}
        self._num_edges = 0
        self._version = 0
        # structural update log: entry k records the mutation that took
        # the graph from version _log_base + k to _log_base + k + 1
        self._log: list[tuple[str, int, int]] = []
        self._log_base = 0
        # per-graph cache slot for the incremental CSR store (owned by
        # repro.ppr.csr; opaque here so the graph layer stays view-free)
        self._csr_cache: object | None = None

    @property
    def version(self) -> int:
        """Monotonic structure-change counter.

        Incremented by every mutation; used by cached derived views
        (e.g. the CSR arrays in :mod:`repro.ppr.csr`) to detect
        staleness without holding references into the graph.  Never
        decreases — :meth:`restore` moves it strictly forward, so a
        (graph, version) pair always denotes one unique structure.
        """
        return self._version

    def _record(self, op: str, u: int, v: int) -> None:
        """Append one update-log entry and bump the version counter."""
        self._log.append((op, u, v))
        self._version += 1
        if len(self._log) > MAX_UPDATE_LOG:
            drop = len(self._log) // 2
            del self._log[:drop]
            self._log_base += drop

    def updates_since(self, version: int) -> list[tuple[str, int, int]] | None:
        """Log entries taking the graph from ``version`` to the present.

        Returns None when ``version`` predates the retained log window
        (or lies in the future), in which case an incremental consumer
        must fall back to a full rebuild.
        """
        if version == self._version:
            return []
        if version < self._log_base or version > self._version:
            return None
        return self._log[version - self._log_base:]

    def release_log(self, version: int) -> None:
        """Drop the entries up to ``version``: their one reader, the CSR
        store of :mod:`repro.ppr.csr`, has applied them.  A later
        :meth:`updates_since` of an older version returns None."""
        drop = min(version, self._version) - self._log_base
        if drop > 0:
            del self._log[:drop]
            self._log_base += drop

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

        Same out-list order (each list in row order of ``pairs``, so
        lexicographically sorted pairs give ascending lists) and the
        same ``version == len(pairs)``, but built with one stable sort
        instead of ``m`` calls, and with an empty update log: nobody can
        have seen an earlier version of a graph that did not exist.
        ``pairs`` is validated by :func:`as_edge_array`.
        """
        import numpy as np

        pairs = as_edge_array(num_nodes, pairs)
        nodes = list(range(num_nodes))
        # every list entry references these int objects instead of
        # holding its own copy of the id
        table = np.empty(num_nodes, dtype=object)
        table[:] = nodes
        src, dst = pairs[:, 0], pairs[:, 1]
        graph = cls()
        graph._out = _adjacency(nodes, table, src, dst)
        graph._num_edges = graph._version = graph._log_base = len(pairs)
        return graph

    def copy(self) -> "DynamicGraph":
        """Return an independent deep copy of this graph."""
        clone = DynamicGraph()
        clone._out = {v: list(nbrs) for v, nbrs in self._out.items()}
        clone._num_edges = self._num_edges
        clone._version = self._version
        # the clone starts with a fresh log window and no cached views:
        # cached CSR state is per-graph-object and never shared
        clone._log_base = clone._version
        return clone

    def snapshot(self) -> "DynamicGraph":
        """Capture the current structure for a later :meth:`restore`."""
        return self.copy()

    def restore(self, snap: "DynamicGraph") -> None:
        """Replace this graph's structure with ``snap``'s.

        The version counter moves strictly *forward* past both graphs'
        counters instead of rewinding to the snapshot's value, so a
        derived view cached at some version can never be wrongly
        revalidated after the structure is rolled back (the classic
        stale-window bug of wrap-around version schemes).
        """
        self._out = {v: list(nbrs) for v, nbrs in snap._out.items()}
        self._num_edges = snap._num_edges
        self._version = max(self._version, snap._version) + 1
        self._log = [(RESET, 0, 0)]
        self._log_base = self._version - 1
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, v: int) -> bool:
        """Ensure node ``v`` exists.  Returns True if it was created."""
        if v in self._out:
            return False
        self._out[v] = []
        self._record(ADD_NODE, v, v)
        return True

    def remove_node(self, v: int) -> None:
        """Remove ``v`` and all its incident edges."""
        if v not in self._out:
            raise KeyError(f"node {v} not in graph")
        for w in list(self._out[v]):
            self._unlink(v, w)
        for u in self.in_neighbors(v):
            self._unlink(u, v)
        del self._out[v]
        self._record(REMOVE_NODE, v, v)

    def has_node(self, v: int) -> bool:
        return v in self._out

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids (insertion order)."""
        return iter(self._out)

    @property
    def num_nodes(self) -> int:
        return len(self._out)

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
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._unlink(u, v)

    def toggle_edge(self, u: int, v: int) -> bool:
        """Apply the paper's edge-arrival semantics.

        If ``(u, v)`` exists it is deleted, otherwise inserted
        (Section II-B).  Returns True if the edge was inserted, False
        if it was deleted.
        """
        if self.has_edge(u, v):
            self._unlink(u, v)
            return False
        self._link(u, v)
        return True

    def _link(self, u: int, v: int) -> None:
        """Insert ``(u, v)``, which the caller checked is absent."""
        self.add_node(u)
        self.add_node(v)
        self._out[u].append(v)
        self._num_edges += 1
        self._record(ADD_EDGE, u, v)

    def _unlink(self, u: int, v: int) -> None:
        """Delete ``(u, v)``, which the caller checked is present."""
        self._out[u].remove(v)
        self._num_edges -= 1
        self._record(REMOVE_EDGE, u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is an edge: a scan of ``u``'s out-list."""
        return v in self._out.get(u, ())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over directed edges, grouped by source node."""
        for u, nbrs in self._out.items():
            for v in nbrs:
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> list[int]:
        """The list of out-neighbors of ``v`` (do not mutate)."""
        return self._out[v]

    def in_neighbors(self, v: int) -> list[int]:
        """The in-neighbors of ``v``, in node order: an O(m) scan of
        every out-list, since the graph keeps no in-lists."""
        if v not in self._out:
            raise KeyError(v)
        return [u for u, nbrs in self._out.items() if v in nbrs]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``: an O(m) scan, like :meth:`in_neighbors`."""
        return len(self.in_neighbors(v))

    def average_degree(self) -> float:
        """Mean out-degree m/n; the d-bar of the Reverse Push bound."""
        if not self._out:
            return 0.0
        return self._num_edges / len(self._out)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(*item)
        if isinstance(item, int):
            return item in self._out
        return False

    def __len__(self) -> int:
        return len(self._out)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_nodes}, m={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        if (
            self._num_edges != other._num_edges
            or self._out.keys() != other._out.keys()
        ):
            return False
        # equal edge sets may sit in the lists in different orders
        return all(
            nbrs == theirs or set(nbrs) == set(theirs)
            for nbrs, theirs in zip(
                self._out.values(), map(other._out.get, self._out)
            )
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash only
        return id(self)
