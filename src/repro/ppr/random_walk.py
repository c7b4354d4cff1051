"""Alpha-decay random walks and the precomputed walk index.

The Monte-Carlo half of the Push+Walk framework: a walk starts at a
node, terminates with probability alpha at each step, and otherwise
moves to a uniform out-neighbor; its terminal node is a sample from the
PPR distribution of its start node.

Two facilities live here:

* :func:`sample_walk_terminals` — vectorized batch simulation over the
  CSR arrays (the performance-critical primitive of the repository).
* :class:`WalkIndex` — the per-node precomputed walk store used by the
  index-based algorithms (FORA+, SpeedPPR+, Agenda).  The index stores
  ceil(r_max * K * d_out(v)) terminals per node — exactly the budget a
  forward push with threshold r_max can consume, which is why the
  index (re)build cost is O(m * r_max * K), the update cost in Table I.

Storage layout: node ``i``'s walk terminals are row ``i`` of an
:class:`~repro.graph.adjacency.Adjacency` (``WalkIndex.rows``), the
slack-row store the graph keeps its edges in.  Fresh builds are packed;
incremental maintenance (:mod:`repro.ppr.incremental`) resizes rows in
place and relocates a row that outgrows its capacity to the array tail
with twice the room it needs.  Once the slots relocations abandoned pass
the graph rows' repack rule (:func:`~repro.graph.adjacency.excessive`)
the rows are repacked, each keeping its capacity and slot order.  A
walk row never loses capacity and never reorders, so a stored walk is
addressed by the stable id ``(node << 32) | slot`` and neither
relocation nor repack invalidates the edge→walk map's postings.

When ``track_edges`` is set, every sampling pass also records which
edges each stored walk traversed (:class:`~repro.ppr.incremental.
EdgeWalkMap`: a path arena whose per-walk offsets run parallel to the
rows' data and move with a relocated row), enabling
:meth:`WalkIndex.apply_edge_update` to resample only the walks a single
edge mutation actually affects.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.adjacency import Adjacency, excessive, ragged_indices
from repro.ppr.csr import CSRView

if TYPE_CHECKING:
    from repro.ppr.incremental import EdgeWalkMap, WalkTrace


def sample_walk_terminals(
    view: CSRView,
    starts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    max_steps: int = 10_000,
    trace: "WalkTrace | None" = None,
) -> np.ndarray:
    """Simulate one alpha-decay walk per entry of ``starts``.

    Parameters
    ----------
    view:
        CSR snapshot of the graph.
    starts:
        Array of dense start indices (one walk each).
    alpha:
        Termination probability per step.
    rng:
        Numpy random generator.
    max_steps:
        Safety bound; walks still alive after this many steps are
        terminated in place (probability (1-alpha)^max_steps, i.e.
        never in practice).
    trace:
        Optional step recorder (a plain list).  When given, every
        iteration appends ``(walk_positions, src, dst)`` arrays for the
        walks that moved, plus a ``(positions, node, node)`` pseudo-step
        for walks retired *in place at a dangling node* (survived the
        coin, nowhere to go) — the event an edge insert at that node
        would have changed.  Columns are int32, the width the edge→walk
        map stores them at: a full build's recorder is the build's
        largest transient.  Tracing consumes the generator identically
        to the untraced path, so seeded runs are bit-for-bit equal
        either way.

    Returns
    -------
    numpy.ndarray
        Terminal node index per walk, same shape as ``starts``.

    Notes
    -----
    All walks advance in lock-step: per iteration we draw termination
    coins for the still-active walks, retire dangling-node walks (the
    implicit-self-loop convention makes them terminate where they are),
    and move the rest to a uniformly chosen out-neighbor via pure array
    indexing.  Expected iterations = 1/alpha, so the cost is
    O(len(starts) / alpha) numpy-vectorized steps.
    """
    terminals = np.asarray(starts, dtype=np.int64).copy()
    if terminals.size == 0:
        return terminals
    indptr = view.indptr
    indices = view.indices
    out_deg = view.out_deg

    active = np.arange(terminals.size)
    for _ in range(max_steps):
        if active.size == 0:
            break
        current = terminals[active]
        survive = rng.random(active.size) >= alpha
        degs = out_deg[current]
        moving = survive & (degs > 0)
        if trace is not None:
            held = survive & (degs == 0)
            if held.any():
                spots = current[held].astype(np.int32)
                trace.append((active[held].astype(np.int32), spots, spots))
        if not moving.any():
            active = active[np.zeros(active.size, dtype=bool)]
            break
        movers = active[moving]
        cur = current[moving]
        offsets = (rng.random(movers.size) * out_deg[cur]).astype(np.int64)
        dest = indices[indptr[cur] + offsets]
        terminals[movers] = dest
        if trace is not None:
            trace.append(
                (
                    movers.astype(np.int32),
                    cur.astype(np.int32),
                    dest.astype(np.int32),
                )
            )
        active = movers
    return terminals


def walk_steps_estimate(num_walks: int, alpha: float) -> float:
    """Expected total walk steps for ``num_walks`` alpha-decay walks."""
    return num_walks * (1.0 - alpha) / alpha


def _first_occurrences(nodes: np.ndarray) -> np.ndarray:
    """``nodes`` without repeats, each kept where it first appears.

    A strictly increasing array (Agenda's dirty holders) comes back as
    it is.  Sort plus a neighbour compare, not ``np.unique``, which
    imports ``numpy.ma`` on first call.
    """
    if (nodes[1:] > nodes[:-1]).all():
        return nodes
    order = np.argsort(nodes, kind="stable")
    ordered = nodes[order]
    first = np.ones(nodes.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return nodes[np.sort(order[first])]


class WalkIndex:
    """Per-node store of precomputed walk terminals.

    Parameters
    ----------
    view:
        CSR snapshot the walks are sampled on.
    alpha:
        Walk termination probability.
    walks_per_unit:
        The product r_max * K: node v stores
        ceil(walks_per_unit * max(d_out(v), 1)) terminals.
    rng:
        Numpy generator used for sampling.
    track_edges:
        Record edge traversals during sampling so the index supports
        :meth:`apply_edge_update` without paying a lazy traced rebuild
        on the first incremental update.

    The index is valid only for the graph version it was built on; its
    one owner, :class:`~repro.ppr.base.WalkIndexOwner`, rebuilds,
    refreshes or incrementally patches it after updates — that is
    precisely the update cost Quota models.
    """

    def __init__(
        self,
        view: CSRView,
        alpha: float,
        walks_per_unit: float,
        rng: np.random.Generator,
        track_edges: bool = False,
    ) -> None:
        self.alpha = alpha
        self.walks_per_unit = walks_per_unit
        self._rng = rng
        self.track_edges = track_edges
        self.edge_map: "EdgeWalkMap | None" = None
        self.rebuild(view)

    # ------------------------------------------------------------------
    @property
    def total_walks(self) -> int:
        """Total stored walks — the O(m r_max K) quantity of Table I."""
        return self.rows.live

    def _target_counts(self, out_deg: np.ndarray) -> np.ndarray:
        """The per-node walk budget ceil(wpu * max(d_out, 1)), min 1."""
        return np.maximum(
            np.ceil(
                self.walks_per_unit * np.maximum(out_deg, 1)
            ).astype(np.int64),
            1,
        )

    def rebuild(self, view: CSRView) -> int:
        """Re-sample every stored walk on a fresh snapshot, into packed
        rows sized to its degrees.

        Returns the number of walks sampled (the update cost driver for
        FORA+/SpeedPPR+ in ``rebuild`` maintenance mode, which
        regenerate the whole index per update).
        """
        self.view = view
        counts = self._target_counts(view.out_deg)
        self.rows = Adjacency(counts, np.empty(int(counts.sum()), np.int64))
        #: slots relocated rows left behind since the last (re)pack
        self.abandoned = 0
        if self.track_edges:
            from repro.ppr.incremental import EdgeWalkMap

            self.edge_map = EdgeWalkMap(self.rows, self.alpha)
        else:
            self.edge_map = None
        return self._resample_full_rows(
            view, np.arange(view.n, dtype=np.int64)
        )

    def _resample_full_rows(
        self, view: CSRView, node_indices: np.ndarray
    ) -> int:
        """Freshly sample every stored walk of the given rows in place.

        Rows must already be sized.  Registers traversals in the edge
        map when tracking.  Returns the number of walks sampled.
        """
        rows = self.rows
        counts = rows.lens[node_indices]
        total = int(counts.sum())
        if total == 0:
            return 0
        starts = np.repeat(node_indices, counts)
        slots = ragged_indices(np.zeros_like(counts), counts)
        if self.edge_map is None:
            sampled = sample_walk_terminals(
                view, starts, self.alpha, self._rng
            )
        else:
            trace: "WalkTrace" = []
            sampled = sample_walk_terminals(
                view, starts, self.alpha, self._rng, trace=trace
            )
            self.edge_map.register(starts, slots, trace)
        rows.data[np.repeat(rows.starts[node_indices], counts) + slots] = (
            sampled
        )
        return total

    def _resize_row(self, i: int, count: int) -> None:
        """Make row ``i`` hold ``count`` walks.  A row that outgrows its
        capacity moves to the tail with room for twice ``count``, and
        the edge map's paths of its walks move with it; once the slots
        moves abandoned are excessive, every row is repacked (capacity
        slack is kept: a rule on it would repack rows relocated with
        twice their room at every move)."""
        rows = self.rows
        if count > rows.caps[i]:
            self.abandoned += int(rows.caps[i])
            lo = rows.relocate(i, 2 * count)
            if self.edge_map is not None:
                self.edge_map.move(lo, int(rows.starts[i]), int(rows.lens[i]))
        rows.resize(i, count)
        if excessive(self.abandoned, rows.live):
            self._repack()

    def _repack(self) -> None:
        """Drop the slots relocated rows abandoned
        (:meth:`~repro.graph.adjacency.Adjacency.repack`); the edge
        map's per-walk arrays move with them."""
        moved = self.rows.repack()
        if self.edge_map is not None:
            self.edge_map.repacked(moved)
        self.abandoned = 0

    def _ensure_node_rows(self, view: CSRView) -> int:
        """Append (and sample) rows for nodes the snapshot gained.

        Returns the number of walks sampled for the fresh rows.
        """
        fresh = np.arange(self.rows.n, view.n, dtype=np.int64)
        if fresh.size == 0:
            return 0
        self.rows.append_rows(self._target_counts(view.out_deg[fresh]))
        return self._resample_full_rows(view, fresh)

    # ------------------------------------------------------------------
    def refresh_nodes(self, view: CSRView, node_indices: np.ndarray) -> int:
        """Re-sample only the walks of ``node_indices`` (Agenda's lazy fix).

        The stored walk counts are re-derived from the snapshot's
        out-degrees — ``ceil(walks_per_unit * max(d_out, 1))`` — so the
        per-node budget tracks degree churn instead of drifting at its
        build-time value; rows whose budget grew past their capacity
        are relocated to the tail of the rows' array.  When the counts
        are unchanged the refresh is a pure in-place overwrite.  A node
        listed twice is refreshed once (registering its walks twice
        would corrupt the edge→walk map).  Returns the number of walks
        re-sampled.
        """
        self.view = view
        self._ensure_node_rows(view)
        node_indices = _first_occurrences(
            np.asarray(node_indices, dtype=np.int64)
        )
        if node_indices.size == 0:
            return 0
        new_counts = self._target_counts(view.out_deg[node_indices])
        if self.edge_map is not None:
            self.edge_map.unregister(
                ragged_indices(
                    self.rows.starts[node_indices],
                    self.rows.lens[node_indices],
                )
            )
        for i, count in zip(node_indices.tolist(), new_counts.tolist()):
            self._resize_row(i, count)
        return self._resample_full_rows(view, node_indices)

    def apply_edge_update(
        self, view: CSRView, u: int, v: int, kind: str
    ) -> int:
        """Incrementally patch the index for one applied edge update.

        ``view`` is the post-update snapshot, ``u``/``v`` dense indices
        and ``kind`` the resolved operation ("insert"/"delete").  Only
        the walks whose trajectory the mutation actually affects are
        resampled (suffix resampling from ``u``), and node ``u``'s walk
        budget grows/shrinks with its new out-degree.  See
        :mod:`repro.ppr.incremental` for the scheme and its exactness
        argument.  Returns the number of walks (re)sampled.
        """
        from repro.ppr.incremental import apply_edge_update

        return apply_edge_update(self, view, u, v, kind)

    def validate_edge_map(self, view: CSRView) -> list[str]:
        """Consistency audit of the edge→walk map (tests/bench oracle)."""
        from repro.ppr.incremental import validate_edge_map

        return validate_edge_map(self, view)

    # ------------------------------------------------------------------
    def terminals_for(self, node_index: int, count: int) -> np.ndarray:
        """Up to ``count`` stored terminals for walks starting at a node.

        The per-row statement of what the query path reads for all
        residue holders at once (:func:`~repro.ppr.pushwalk.
        add_walk_estimates`), kept as that gather's test oracle.
        If the caller needs more walks than stored (possible when the
        push left more residue than the index budget anticipated), the
        stored sample is recycled round-robin — a standard index-based
        implementation trick that keeps the estimator unbiased
        conditioned on the stored sample.
        """
        stored = self.rows.row(node_index)
        if count <= stored.size:
            return stored[:count]
        reps = int(math.ceil(count / stored.size))
        return np.tile(stored, reps)[:count]
