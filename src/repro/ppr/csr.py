"""Incrementally maintained CSR views of a dynamic graph.

All inner loops of the PPR algorithms — forward/reverse push,
vectorized random walks, power iteration — run over flat numpy arrays
rather than Python adjacency dicts.  :class:`CSRView` exposes a graph
as those arrays.

The seed implementation rebuilt the whole snapshot in pure-Python
loops on *every* version bump, so the paper's update service time t̃u
(the quantity Quota's Table I cost model is calibrated against) was
dominated by an O(n + m) artifact of the reproduction.  This module
instead keeps one mutable :class:`_CSRStore` per graph and patches it
in O(deg) amortized per edge arrival, consuming the structural update
log :class:`~repro.graph.digraph.DynamicGraph` publishes:

* **Slack-slot layout** — each adjacency row owns a capacity ≥ its
  degree inside one flat array.  An insert appends into the row's
  spare slots; a full row is relocated to the array tail with doubled
  capacity (classic amortized growth), abandoning its old slots as
  *slack*; the array itself grows by an eighth (:func:`growth`).  A
  delete swap-removes within the row.
* **Lazy catch-up** — :func:`csr_view` replays only the log entries
  since the store's version, at query (or update) time.  Between
  updates, repeated calls are pure cache hits.
* **Threshold rebuild** — when accumulated slack exceeds
  ``REBUILD_SLACK_RATIO`` × live entries the store compacts via a full
  rebuild, as do rare non-incremental events (node removal,
  :meth:`~repro.graph.digraph.DynamicGraph.restore`, log-window overflow).
* **Spent log released** — once caught up, the store tells the graph
  to drop the log entries it applied
  (:meth:`~repro.graph.digraph.DynamicGraph.release_log`).
* **In-rows on demand** — the store holds out-rows always and in-rows
  only once a reverse-push caller asks (``csr_view(graph,
  reverse=True)``: Agenda, TopPPR, BiPPR).  They are one
  vectorised transpose of the live out-rows, listing each row's
  in-neighbours by ascending source index, and every catch-up after
  that patches them too.  A graph served by forward push and walks
  alone (FORA, FORA+inc) never holds them; its store keeps only the
  in-direction's degrees and row capacities (16 B per node), so the
  compaction rule — and with it every seeded answer — reads the same
  slack whether or not the in-rows exist.

Array contract: the out-row of node index ``i`` occupies
``indices[indptr[i] : indptr[i] + out_deg[i]]`` (same for in-rows).
``indptr[i + 1]`` is **not** the end of row ``i`` unless
:attr:`CSRView.is_packed` is true; consumers needing strictly packed
arrays (e.g. scipy matrix construction) use :meth:`CSRView.packed_out`
/ :meth:`CSRView.packed_in`.

Every :func:`csr_view` call returns a *new lightweight facade* when
the graph changed (so object identity remains a valid staleness probe
for downstream caches such as walk indexes), but facades share the
store's arrays.  A facade is guaranteed consistent only until the
graph's next mutation is caught up; after that, adjacency reads
through an old facade are undefined — only its node-id mapping stays
valid (node slots are append-only between full rebuilds), which is
what :class:`~repro.ppr.base.PPRVector` needs.

Instrumentation: the module records ``csr_cache_hits``,
``csr_cache_misses``, ``csr_delta_applies``, ``csr_rebuilds`` and
``csr_compactions`` in the default :mod:`repro.obs` registry.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.graph import digraph as _digraph
from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import get_metrics

#: compact (full rebuild) once slack exceeds this fraction of the live
#: entries in either direction's adjacency array
REBUILD_SLACK_RATIO = 0.5

#: slack is never considered excessive below this absolute floor, so
#: small graphs do not thrash rebuilds
SLACK_FLOOR = 256

_hits = get_metrics().counter("csr_cache_hits")
_misses = get_metrics().counter("csr_cache_misses")
_delta_applies = get_metrics().counter("csr_delta_applies")
_rebuilds = get_metrics().counter("csr_rebuilds")
_compactions = get_metrics().counter("csr_compactions")


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
        coincide with the next row's start and ``indptr[n] == m``).
        Fresh builds are packed; delta-patched views generally are not.
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

    def __init__(self, graph: DynamicGraph | None = None) -> None:
        self.in_indptr = self.in_indices = self.in_deg = None
        if graph is not None:
            _build_packed(graph, self)

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


def ragged_indices(
    starts: np.ndarray, lens: np.ndarray, dtype: type = np.int64
) -> np.ndarray:
    """Flat indices of the rows ``[starts[i], starts[i] + lens[i])``,
    row after row — the gather every slack-row layout here needs.

    ``dtype=np.int32`` halves the result (and the temporary beside it)
    for callers whose positions are known to stay below 2**31.
    """
    ends = np.cumsum(lens)
    flat = np.repeat((starts - (ends - lens)).astype(dtype, copy=False), lens)
    flat += np.arange(flat.size, dtype=dtype)
    return flat


def growth(size: int, need: int) -> int:
    """Entries to add to a ``size``-entry backing array that must take
    ``need`` more: an eighth of it at least, so appends stay O(1)
    amortised, where doubling would pin a second copy of the whole
    store (the old array lives on in the snapshot being replaced) the
    first time one row outgrows a packed build."""
    return max(size // 8, need, 64)


def _pack_rows(
    starts: np.ndarray, data: np.ndarray, lens: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather slack-slot rows into packed (indptr, indices) arrays."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr, data[ragged_indices(starts[:n], lens)]


def _build_packed(graph: DynamicGraph, view: CSRView) -> None:
    """Populate ``view`` with a packed snapshot of ``graph``."""
    view.version = graph.version
    view.nodes = np.fromiter(
        graph.nodes(), dtype=np.int64, count=graph.num_nodes
    )
    view.n = int(view.nodes.size)
    view.m = graph.num_edges
    view.is_packed = True
    # Fast path: contiguous ids 0..n-1 need no dict lookups.
    view.identity_ids = bool(
        view.n == 0
        or (
            view.nodes[0] == 0
            and view.nodes[-1] == view.n - 1
            and np.all(np.diff(view.nodes) == 1)
        )
    )
    if view.identity_ids:
        view.index = None
    else:
        view.index = {int(v): i for i, v in enumerate(view.nodes)}

    # No Python-level loop over nodes or edges: this runs at every boot,
    # respawn, restore and slack compaction.  Rows keep the out-lists'
    # own order, which seeded answers depend on.
    view.indptr, view.indices, view.out_deg = _pack_lists(
        list(map(graph.out_neighbors, view.nodes.tolist())), view.index
    )


def _transpose(view: CSRView) -> np.ndarray:
    """The in-rows of ``view``'s live out-rows, packed one after another
    in node-index order, each listing its in-neighbours by ascending
    source index (one stable sort of the sources by target)."""
    sources = np.repeat(np.arange(view.n, dtype=np.int64), view.out_deg)
    targets = view.packed_out()[1][: sources.size]
    return sources[np.argsort(targets, kind="stable")]


def _pack_lists(
    rows: list[list[int]], index: dict[int, int] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed ``(indptr, indices, degrees)`` of per-node neighbor-id
    lists; ids go through ``index`` unless they are dense already."""
    degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    flat = chain.from_iterable(rows)
    indices = np.fromiter(
        flat if index is None else map(index.__getitem__, flat),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return indptr, indices, degrees


class _Adjacency:
    """One direction's slack-slot adjacency: rows with spare capacity
    inside a flat array, O(deg) amortized insert and delete.

    Without rows (``starts`` and ``data`` None) it is the direction's
    ledger alone: the degree and capacity each row would have and the
    slot high-water mark, kept in step by the same inserts and deletes.
    So its :attr:`slack`, which the compaction rule reads, does not
    depend on whether the rows were ever held, and :meth:`hold` can lay
    them out later in the slots the ledger counts.
    """

    __slots__ = ("starts", "lens", "caps", "data", "tail", "live")

    def __init__(
        self,
        starts: np.ndarray | None,
        data: np.ndarray | None,
        lens: np.ndarray,
    ) -> None:
        # from packed rows (or their degrees): capacity == length, no slack
        self.starts = starts
        self.lens = lens
        self.caps = lens.copy()
        self.data = data
        self.tail = self.live = int(lens.sum())

    @property
    def slack(self) -> int:
        """Dead + spare slots below the high-water mark."""
        return self.tail - self.live

    def hold(self, rows: np.ndarray) -> None:
        """Take the rows, packed one after another in ``rows`` with this
        ledger's degrees, each into a slot of the capacity it counts."""
        n = self.lens.size
        self.starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.caps, out=self.starts[1:])
        self.data = np.empty(self.tail, dtype=np.int64)
        self.data[ragged_indices(self.starts[:n], self.lens)] = rows

    def insert(self, i: int, j: int) -> None:
        if self.lens[i] == self.caps[i]:
            self._relocate(i)
        if self.data is not None:
            self.data[self.starts[i] + self.lens[i]] = j
        self.lens[i] += 1
        self.live += 1

    def _relocate(self, i: int) -> None:
        """Move row ``i`` to the tail with doubled capacity."""
        new_cap = max(4, 2 * int(self.caps[i]))
        if self.data is not None:
            if self.tail + new_cap > self.data.size:
                grow = growth(self.data.size, new_cap)
                self.data = np.concatenate(
                    [self.data, np.empty(grow, dtype=np.int64)]
                )
            start, length = int(self.starts[i]), int(self.lens[i])
            self.data[self.tail:self.tail + length] = self.data[
                start:start + length
            ]
            self.starts[i] = self.tail
        self.caps[i] = new_cap
        self.tail += new_cap

    def remove(self, i: int, j: int) -> None:
        if self.data is not None:
            start, length = int(self.starts[i]), int(self.lens[i])
            row = self.data[start:start + length]
            pos = int(np.nonzero(row == j)[0][0])
            row[pos] = row[length - 1]
        self.lens[i] -= 1
        self.live -= 1

    def append_row(self) -> None:
        """Add an empty row (capacity 0; first insert relocates it)."""
        n = self.lens.size
        if self.starts is not None:
            starts = np.empty(n + 2, dtype=np.int64)
            starts[:n] = self.starts[:n]
            starts[n] = self.tail
            starts[n + 1] = self.tail
            self.starts = starts
        self.lens = np.append(self.lens, 0)
        self.caps = np.append(self.caps, 0)


class _CSRStore:
    """Per-graph mutable CSR state plus the facade-view factory."""

    __slots__ = (
        "nodes",
        "index",
        "identity",
        "n",
        "m",
        "out",
        "inc",
        "packed",
        "version",
        "view",
    )

    def __init__(self, graph: DynamicGraph) -> None:
        self._full_build(graph, reverse=False)

    # ------------------------------------------------------------------
    def _full_build(self, graph: DynamicGraph, reverse: bool) -> None:
        _rebuilds.inc()
        view = CSRView(graph)
        self.nodes = view.nodes
        self.index = view.index
        self.identity = view.identity_ids
        self.n = view.n
        self.m = view.m
        self.out = _Adjacency(view.indptr, view.indices, view.out_deg)
        # the in-direction's ledger; its rows once a reverse push asked
        self.inc = _Adjacency(
            None, None, np.bincount(view.indices, minlength=view.n)
        )
        self.packed = True
        self.version = graph.version
        self.view = view
        if reverse:
            self.add_in_rows()

    def add_in_rows(self) -> CSRView:
        """Transpose the live out-rows into the in-direction's slots,
        which every catch-up patches from now on; the current view
        gains them."""
        view = self.view
        self.inc.hold(_transpose(view))
        view.in_indptr = self.inc.starts
        view.in_indices = self.inc.data
        view.in_deg = self.inc.lens
        return view

    def _make_view(self) -> CSRView:
        """O(1) facade over the store's current arrays."""
        view = CSRView()
        view.nodes = self.nodes
        view.index = self.index
        view.identity_ids = self.identity
        view.n = self.n
        view.m = self.m
        view.indptr = self.out.starts
        view.indices = self.out.data
        view.out_deg = self.out.lens
        if self.inc.data is not None:
            view.in_indptr = self.inc.starts
            view.in_indices = self.inc.data
            view.in_deg = self.inc.lens
        view.version = self.version
        view.is_packed = self.packed
        return view

    # ------------------------------------------------------------------
    def catch_up(self, graph: DynamicGraph) -> CSRView:
        """Bring the store to ``graph.version`` and return a fresh view."""
        if graph.version == self.version:
            _hits.inc()
            return self.view
        _misses.inc()
        entries = graph.updates_since(self.version)
        ok = entries is not None
        applied = 0
        if ok:
            for op, u, v in entries:
                if not self._apply_entry(op, u, v):
                    ok = False
                    break
                applied += 1
        if ok and self._excess_slack():
            _compactions.inc()
            ok = False
        if ok:
            _delta_applies.inc(applied)
            self.version = graph.version
            self.view = self._make_view()
        else:
            self._full_build(graph, reverse=self.inc.data is not None)
        return self.view

    def _excess_slack(self) -> bool:
        floor = max(int(REBUILD_SLACK_RATIO * max(self.m, 1)), SLACK_FLOOR)
        return self.out.slack > floor or self.inc.slack > floor

    # ------------------------------------------------------------------
    def _dense(self, node: int) -> int | None:
        if self.identity:
            return node if 0 <= node < self.n else None
        return self.index.get(node)

    def _apply_entry(self, op: str, u: int, v: int) -> bool:
        """Patch one logged mutation; False forces a full rebuild."""
        if op == _digraph.ADD_EDGE:
            ui = self._dense(u)
            vi = self._dense(v)
            if ui is None or vi is None:
                return False
            self.out.insert(ui, vi)
            self.inc.insert(vi, ui)
            self.m += 1
            self.packed = False
            return True
        if op == _digraph.REMOVE_EDGE:
            ui = self._dense(u)
            vi = self._dense(v)
            if ui is None or vi is None:
                return False
            self.out.remove(ui, vi)
            self.inc.remove(vi, ui)
            self.m -= 1
            self.packed = False
            return True
        if op == _digraph.ADD_NODE:
            return self._append_node(u)
        # REMOVE_NODE / RESET (and anything unknown): not incremental
        return False

    def _append_node(self, node: int) -> bool:
        new_index = self.n
        if self.identity and node != new_index:
            # non-contiguous id breaks the identity fast path; fall back
            # to an explicit mapping built once
            self.index = {int(x): i for i, x in enumerate(self.nodes)}
            self.identity = False
        if self.index is not None:
            if node in self.index:
                return False
            self.index[node] = new_index
        self.nodes = np.append(self.nodes, np.int64(node))
        self.out.append_row()
        self.inc.append_row()
        self.n += 1
        return True


def csr_view(graph: DynamicGraph, reverse: bool = False) -> CSRView:
    """Return the (incrementally maintained) CSR view of ``graph``.

    The per-graph store catches up lazily on the graph's update log:
    repeated calls between updates are cache hits, a call after k edge
    arrivals patches the arrays in O(sum of the touched degrees), and
    only node removals, restores, log overflows, or slack past
    :data:`REBUILD_SLACK_RATIO` trigger a full O(n + m) rebuild.

    ``reverse=True`` is for reverse push: the view then carries the
    in-adjacency, which the store builds the first time it is asked
    (an O(m log m) transpose, in place on the current view so its
    identity holds) and keeps patched from then on.
    """
    store = graph._csr_cache
    if isinstance(store, _CSRStore):
        view = store.catch_up(graph)
    else:
        _misses.inc()
        store = graph._csr_cache = _CSRStore(graph)
        view = store.view
    # the store is the log's one reader: what it applied is spent
    graph.release_log(store.version)
    if reverse and store.inc.data is None:
        view = store.add_in_rows()
    return view
