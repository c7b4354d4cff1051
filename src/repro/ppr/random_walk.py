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

Storage layout: node ``i``'s walk terminals occupy
``terminals[offsets[i] : offsets[i] + counts[i]]`` inside a row with
capacity ``caps[i]`` — the same slack-slot scheme the CSR store uses
for adjacency rows.  Fresh builds are packed (cap == count,
``offsets[i + 1]`` coincides with the next row); incremental
maintenance (:mod:`repro.ppr.incremental`) grows/shrinks rows in place
and relocates a row to the array tail when it outgrows its capacity.
A stored walk is addressed by the stable id ``(node << 32) | slot``,
so relocation never invalidates the edge→walk map's postings.

When ``track_edges`` is set, every sampling pass also records which
edges each stored walk traversed (:class:`~repro.ppr.incremental.
EdgeWalkMap`: a path arena whose per-walk offsets run parallel to
``terminals`` and move with a relocated row), enabling
:meth:`WalkIndex.apply_edge_update` to resample only the walks a single
edge mutation actually affects.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.ppr.csr import CSRView, growth, ragged_indices

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
        self.view = view
        self._reset_layout(view)
        self._build_all()

    # ------------------------------------------------------------------
    @property
    def total_walks(self) -> int:
        """Total stored walks — the O(m r_max K) quantity of Table I."""
        return int(self.counts.sum())

    def _target_counts(self, out_deg: np.ndarray) -> np.ndarray:
        """The per-node walk budget ceil(wpu * max(d_out, 1)), min 1."""
        return np.maximum(
            np.ceil(
                self.walks_per_unit * np.maximum(out_deg, 1)
            ).astype(np.int64),
            1,
        )

    def _reset_layout(self, view: CSRView) -> None:
        """Packed rows sized to the snapshot's degrees (cap == count)."""
        self.counts = self._target_counts(view.out_deg)
        self.offsets = np.zeros(view.n + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.caps = self.counts.copy()
        self._tail = int(self.offsets[-1])
        self.terminals = np.empty(self._tail, dtype=np.int64)

    def _build_all(self) -> None:
        if self.track_edges:
            from repro.ppr.incremental import EdgeWalkMap

            self.edge_map = EdgeWalkMap(self)
        else:
            self.edge_map = None
        self._resample_full_rows(
            self.view, np.arange(self.view.n, dtype=np.int64)
        )

    def _resample_full_rows(
        self, view: CSRView, node_indices: np.ndarray
    ) -> int:
        """Freshly sample every stored walk of the given rows in place.

        Rows must already be sized (``counts``/``caps``/``offsets``
        current).  Registers traversals in the edge map when tracking.
        Returns the number of walks sampled.
        """
        counts = self.counts[node_indices]
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
        dest = np.repeat(self.offsets[node_indices], counts) + slots
        self.terminals[dest] = sampled
        return total

    def rebuild(self, view: CSRView) -> int:
        """Re-sample every stored walk on a fresh snapshot.

        Returns the number of walks sampled (the update cost driver for
        FORA+/SpeedPPR+ in ``rebuild`` maintenance mode, which
        regenerate the whole index per update).
        """
        self.view = view
        self._reset_layout(view)
        self._build_all()
        return self.total_walks

    # ------------------------------------------------------------------
    # slack-row plumbing (shared by refresh_nodes and the incremental
    # maintenance in repro.ppr.incremental)
    # ------------------------------------------------------------------
    def _relocate_row(self, i: int, need: int) -> None:
        """Move row ``i`` to the tail with capacity >= ``need``."""
        new_cap = max(4, 2 * need, 2 * int(self.caps[i]))
        if self._tail + new_cap > self.terminals.size:
            grow = growth(self.terminals.size, new_cap)
            self.terminals = np.concatenate(
                [self.terminals, np.empty(grow, dtype=np.int64)]
            )
        lo, length = int(self.offsets[i]), int(self.counts[i])
        self.terminals[self._tail:self._tail + length] = self.terminals[
            lo:lo + length
        ]
        if self.edge_map is not None:
            self.edge_map.move(lo, self._tail, length)
        self.offsets[i] = self._tail
        self.caps[i] = new_cap
        self._tail += new_cap

    def _ensure_node_rows(self, view: CSRView) -> int:
        """Append (and sample) rows for nodes the snapshot gained.

        Returns the number of walks sampled for the fresh rows.
        """
        n_old = int(self.counts.size)
        if view.n <= n_old:
            return 0
        fresh = np.arange(n_old, view.n, dtype=np.int64)
        new_counts = self._target_counts(view.out_deg[fresh])
        row_starts = self._tail + np.concatenate(
            ([0], np.cumsum(new_counts)[:-1])
        )
        offsets = np.empty(view.n + 1, dtype=np.int64)
        offsets[:n_old] = self.offsets[:n_old]
        offsets[n_old:view.n] = row_starts
        offsets[view.n] = self._tail + int(new_counts.sum())
        self.offsets = offsets
        self.counts = np.concatenate([self.counts, new_counts])
        self.caps = np.concatenate([self.caps, new_counts])
        need = self._tail + int(new_counts.sum())
        if need > self.terminals.size:
            grow = growth(self.terminals.size, need - self.terminals.size)
            self.terminals = np.concatenate(
                [self.terminals, np.empty(grow, dtype=np.int64)]
            )
        self._tail = need
        return self._resample_full_rows(view, fresh)

    # ------------------------------------------------------------------
    def refresh_nodes(self, view: CSRView, node_indices: np.ndarray) -> int:
        """Re-sample only the walks of ``node_indices`` (Agenda's lazy fix).

        The stored walk counts are re-derived from the snapshot's
        out-degrees — ``ceil(walks_per_unit * max(d_out, 1))`` — so the
        per-node budget tracks degree churn instead of drifting at its
        build-time value; rows whose budget grew past their capacity
        are relocated to the terminals-array tail (slack-slot layout).
        When the counts are unchanged the refresh is a pure in-place
        overwrite.  Returns the number of walks re-sampled.
        """
        self.view = view
        self._ensure_node_rows(view)
        node_indices = np.asarray(node_indices, dtype=np.int64)
        if node_indices.size == 0:
            return 0
        new_counts = self._target_counts(view.out_deg[node_indices])
        if self.edge_map is not None:
            self.edge_map.unregister(
                ragged_indices(
                    self.offsets[node_indices], self.counts[node_indices]
                )
            )
        for pos in range(int(node_indices.size)):
            i = int(node_indices[pos])
            need = int(new_counts[pos])
            if need > int(self.caps[i]):
                self._relocate_row(i, need)
            self.counts[i] = need
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
        lo = int(self.offsets[node_index])
        stored = self.terminals[lo:lo + int(self.counts[node_index])]
        if count <= stored.size:
            return stored[:count]
        reps = int(math.ceil(count / stored.size))
        return np.tile(stored, reps)[:count]
