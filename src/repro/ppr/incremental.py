"""Incremental walk-index maintenance (FIRM-style suffix resampling).

The index-based methods (FORA+, SpeedPPR+) precompute
ceil(r_max * K * d_out(v)) alpha-decay walks per node.  The seed
implementation regenerates the *whole* index after every edge update —
the O(m * r_max * K) t_u of Table I that makes index-based methods lose
to index-free ones under churn.  This module implements the
incremental index-update scheme of "PPR on Evolving Graphs with an
Incremental Index-Update Scheme" (arXiv 2212.10288): resample only the
walks an edge mutation actually affects.

Affected sets (exactness argument)
----------------------------------
Write d for node u's *old* out-degree.

* ``delete (u, v)`` — affected = walks that traversed the edge (u, v).
  A walk that survived a coin at u but stepped to w != v drew uniform
  over d conditioned on "not v", which *is* uniform over the d-1
  surviving neighbors: already new-graph distributed, left alone.
* ``insert (u, v)`` — affected = walks that survived >= 1 termination
  coin at u.  That includes walks that *held* at a then-dangling u
  (survived the coin with nowhere to go and retired in place); the
  sampler records those holds as pseudo-edges ``(u, u)`` so the map can
  find them.  Walks whose coin failed at u terminate there under either
  graph and are untouched.

An affected walk is repaired by *suffix resampling* from its first
affected step: the termination coin there already survived (the prefix
conditions on it), so the new suffix is a forced uniform move over u's
*new* out-neighbors followed by a standard alpha-decay walk from the
hop — exactly the new-graph conditional law given the retained prefix.
If u is now dangling the walk retires at u (pseudo-edge re-recorded).
Resampling the *whole* walk instead would be biased: the affected set
is trajectory-selected, and replacing member walks with unconditional
fresh walks gives the resampled mass the unconditional law where the
mixture needs the conditional one.  (Whole-*row* refresh — Agenda's
``refresh_nodes`` — is unbiased precisely because row selection does
not condition on trajectories.)

Degree-driven budget changes ride along: deletes that shrink
ceil(r_max * K * d_out(u)) drop tail slots *before* the affected set is
computed (dropped walks need no repair), and inserts that grow it
append fresh full walks *after* repair (fresh walks are new-graph iid
and must not be re-resampled).

The edge→walk map
-----------------
:class:`EdgeWalkMap` is flat numpy arrays, no per-walk or per-edge
Python object.  Three pieces:

* a **path arena** — one int32 array of step destinations.  A stored
  walk's trajectory is the slice ``steps[path_off : path_off +
  path_len]``; step ``i`` leaves the previous step's destination (step
  0 leaves the row's node) and a dangling hold is ``dst == src``.
  ``path_off`` / ``path_len`` are per-walk arrays *parallel to*
  ``WalkIndex.terminals``, so relocating a slack row moves all three.
* **posting rows** — per source node, the walk ids that stepped out of
  (or held at) it, in the slack-row layout ``WalkIndex`` and
  ``repro.ppr.csr`` use.  Rows are append-only *hints*: a suffix
  resample or an unregister leaves the old postings behind, and every
  lookup re-checks its candidates against the arena (one vectorised
  gather), which is also where the first affected step comes from.
* a **compaction rule** — a repair writes the whole new path at the
  arena tail and abandons the old one; once the arena's dead slots
  exceed its live ones, or the posting rows' footprint (slack,
  leftovers and rows abandoned by relocation included) exceeds three
  times the live steps where a fresh build's is two (each plus
  ``SLACK_FLOOR``), the map repacks the arena and rebuilds the posting
  rows from it, so an unbounded update stream holds bounded memory.

Ordered paths are load-bearing: a suffix resample keeps the prefix's
traversals registered, so a later update touching a prefix edge still
finds the walk.  Walk ids are ``(node << SLOT_BITS) | slot`` — stable
under slack-row relocation, so postings never need remapping when the
terminals array is repacked.

Everything here mutates only the owning :class:`~repro.ppr.random_walk.
WalkIndex` and is called from algorithm ``apply_update`` paths, which
the serving runtime runs on its one thread — no query overlaps the
repair, by construction.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import get_metrics
from repro.ppr.csr import SLACK_FLOOR, CSRView, growth, ragged_indices
from repro.ppr.random_walk import (
    WalkIndex,
    sample_walk_terminals,
    walk_steps_estimate,
)

#: chronological step record emitted by ``sample_walk_terminals``:
#: per iteration ``(walk_positions, src_nodes, dst_nodes)`` (a hold at
#: a dangling node is recorded as src == dst).
WalkTrace = list[tuple[np.ndarray, np.ndarray, np.ndarray]]

#: walk id layout: ``wid = (node << SLOT_BITS) | slot``.  32 slot bits
#: comfortably exceed any per-node walk budget while keeping ids in
#: int64 range for graphs up to 2^31 nodes.
SLOT_BITS = 32
_SLOT_MASK = (1 << SLOT_BITS) - 1

# module-level pre-resolved counters: no registry lookup per update
_incremental_updates = get_metrics().counter("index.incremental_updates")
_walks_resampled = get_metrics().counter("index.walks_resampled")
_map_builds = get_metrics().counter("index.map_builds")

_EMPTY = np.zeros(0, dtype=np.int64)


def _reserve(data: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``data`` with room for ``extra`` more entries past ``used``."""
    if used + extra <= data.size:
        return data
    return _fit(data, data.size + growth(data.size, used + extra - data.size))


def _position_dtype(array: np.ndarray) -> type:
    """Narrowest index type addressing every slot of ``array``: the
    walk-sized position temporaries are most of a compaction's peak."""
    return np.int32 if array.size < 2**31 else np.int64


def _fit(data: np.ndarray, size: int) -> np.ndarray:
    """``data`` zero-padded to at least ``size`` entries."""
    if data.size >= size:
        return data
    return np.concatenate([data, np.zeros(size - data.size, dtype=data.dtype)])


def _flatten(trace: WalkTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace's ``(batch position, src, dst)`` columns, in step order.

    Empties ``trace``: a full build's recorder is several times the
    size of the map it becomes, and holding both is the build's peak.
    """
    if not trace:
        return _EMPTY, _EMPTY, _EMPTY
    batch, src, dst = (
        np.concatenate(column, dtype=np.int32, casting="same_kind")
        for column in zip(*trace)
    )
    trace.clear()
    return batch, src, dst


class EdgeWalkMap:
    """Array-backed inverted edge→walk index over the stored walks.

    ``rows`` is the owning :class:`WalkIndex`; the map reads its slack
    row layout (``offsets`` / ``counts`` / ``terminals.size``) to turn
    walk ids into terminal positions and never writes to it.  A walk
    whose very first coin terminated it has ``path_len == 0`` and no
    postings.  See the module docstring for the layout.
    """

    __slots__ = (
        "_rows",
        "steps",
        "path_off",
        "path_len",
        "posts",
        "post_off",
        "post_cnt",
        "post_cap",
        "_steps_tail",
        "_steps_live",
        "_posts_tail",
    )

    def __init__(self, rows: WalkIndex) -> None:
        self._rows = rows
        self.steps = np.zeros(self._expected_steps(), dtype=np.int32)
        self.path_off = np.zeros(0, dtype=np.int64)
        self.path_len = np.zeros(0, dtype=np.int32)
        self._steps_tail = 0
        self._steps_live = 0
        self._reset_postings()

    def _expected_steps(self) -> int:
        """Arena size a full build of the owner's rows will need (+5%).

        The long-lived arrays are allocated at this size *before* the
        walks are sampled: allocated after, they would sit above the
        build's temporaries on the heap and pin several times their
        own size in freed memory.
        """
        rows = self._rows
        return int(1.05 * walk_steps_estimate(rows.total_walks, rows.alpha))

    def _reset_postings(self) -> None:
        # drop the old rows before their replacement is allocated
        self.posts = _EMPTY
        self.posts = np.zeros(2 * self._expected_steps(), dtype=np.int64)
        self.post_off = np.zeros(0, dtype=np.int64)
        self.post_cnt = np.zeros(0, dtype=np.int64)
        self.post_cap = np.zeros(0, dtype=np.int64)
        self._posts_tail = 0
        self._sync()

    # -- accounting ------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return sum(
            array.nbytes
            for array in (
                self.steps, self.path_off, self.path_len,
                self.posts, self.post_off, self.post_cnt, self.post_cap,
            )
        )

    @property
    def live_steps(self) -> int:
        return self._steps_live

    @property
    def dead_steps(self) -> int:
        return self._steps_tail - self._steps_live

    # -- layout plumbing -------------------------------------------------
    def _sync(self) -> None:
        """Size the per-walk / per-node arrays to the owner's layout."""
        walks = int(self._rows.terminals.size)
        self.path_off = _fit(self.path_off, walks)
        self.path_len = _fit(self.path_len, walks)
        nodes = int(self._rows.counts.size)
        self.post_off = _fit(self.post_off, nodes)
        self.post_cnt = _fit(self.post_cnt, nodes)
        self.post_cap = _fit(self.post_cap, nodes)

    def move(self, lo: int, new_lo: int, length: int) -> None:
        """Row relocation: the walks at ``lo..`` now live at ``new_lo..``."""
        self._sync()
        self.path_off[new_lo:new_lo + length] = self.path_off[lo:lo + length]
        self.path_len[new_lo:new_lo + length] = self.path_len[lo:lo + length]
        self.path_len[lo:lo + length] = 0

    def _gather(
        self, positions: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(lens, firsts, src, dst)``: the stored steps of the given
        walks, walk after walk — walk ``i``'s are ``[firsts[i],
        firsts[i] + lens[i])`` (``nodes`` are the walks' start nodes)."""
        lens = self.path_len[positions]
        firsts = np.cumsum(lens) - lens
        flat = ragged_indices(
            self.path_off[positions], lens, _position_dtype(self.steps)
        )
        dst = self.steps[flat]
        flat -= 1
        src = self.steps[flat]
        del flat
        stepped = lens > 0
        src[firsts[stepped]] = nodes[stepped]
        return lens, firsts, src, dst

    # -- lookups ---------------------------------------------------------
    def affected(
        self, u: int, v: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walks with a step out of ``u`` (to ``v`` when given).

        Returns ``(wids, positions, split)`` in ascending walk id —
        the repair order — where ``split`` is the index of each walk's
        *first* such step.
        """
        lo = int(self.post_off[u])
        # sort + neighbor compare, not np.unique: that one imports
        # numpy.ma on first use (~20 ms inside the first update)
        wids = np.sort(self.posts[lo:lo + int(self.post_cnt[u])])
        wids = wids[np.flatnonzero(np.diff(wids, prepend=-1))]
        nodes = wids >> SLOT_BITS
        # a leftover posting may name a slot its row has since dropped:
        # rows never lose capacity, so that position is still the row's
        # own and holds no path
        positions = self._rows.offsets[nodes] + (wids & _SLOT_MASK)
        lens, firsts, src, dst = self._gather(positions, nodes)
        hit = src == u
        if v is not None:
            hit &= dst == v
        hits = np.flatnonzero(hit)
        owner = np.repeat(np.arange(wids.size), lens)[hits]
        first = np.ones(hits.size, dtype=bool)
        first[1:] = owner[1:] != owner[:-1]
        found = owner[first]
        split = hits[first] - firsts[found]
        return wids[found], positions[found], split

    def walks_from(self, u: int) -> np.ndarray:
        """Walk ids that survived a coin at u (stepped out or held)."""
        return self.affected(u)[0]

    def walks_through(self, u: int, v: int) -> np.ndarray:
        """Walk ids that traversed edge (u, v)."""
        return self.affected(u, v)[0]

    def path(self, wid: int) -> list[tuple[int, int]]:
        """One walk's ordered ``(src, dst)`` steps (audit / tests)."""
        node, slot = wid >> SLOT_BITS, wid & _SLOT_MASK
        position = np.array([int(self._rows.offsets[node]) + slot])
        _, _, src, dst = self._gather(position, np.array([node]))
        return list(zip(src.tolist(), dst.tolist()))

    # -- mutation --------------------------------------------------------
    def register(
        self, starts: np.ndarray, slots: np.ndarray, trace: WalkTrace
    ) -> None:
        """Record a freshly sampled batch of whole walks.

        ``starts``/``slots`` identify each batch position's walk, which
        must lie inside the owner's rows (``counts`` covers it);
        ``trace`` is the recorder ``sample_walk_terminals`` filled.
        """
        self.replace_suffix(
            (starts << SLOT_BITS) | slots,
            self._rows.offsets[starts] + slots,
            np.zeros_like(starts),
            None,
            trace,
        )

    def unregister(self, positions: np.ndarray) -> None:
        """Forget the walks at ``positions`` (their postings go stale)."""
        self._steps_live -= int(self.path_len[positions].sum())
        self.path_len[positions] = 0

    def replace_suffix(
        self,
        wids: np.ndarray,
        positions: np.ndarray,
        keep: np.ndarray,
        hops: np.ndarray | None,
        trace: WalkTrace,
    ) -> None:
        """Rewrite the walks' paths: each keeps its first ``keep``
        steps, then steps to its ``hops`` entry (when given) and goes
        on as ``trace`` recorded.  The new path is written whole at the
        arena tail and the old one abandoned; ``trace`` is consumed.
        """
        self._sync()
        batch, src, dst = _flatten(trace)
        traced = np.bincount(batch, minlength=wids.size)
        hop = 0 if hops is None else 1
        new_len = keep + hop + traced
        total = int(new_len.sum())
        self.steps = _reserve(self.steps, self._steps_tail, total)
        narrow = _position_dtype(self.steps)
        new_off = self._steps_tail + np.cumsum(new_len) - new_len
        self.steps[ragged_indices(new_off, keep, narrow)] = self.steps[
            ragged_indices(self.path_off[positions], keep, narrow)
        ]
        if hops is not None:
            self.steps[new_off + keep] = hops
        # one stable sort puts every walk's traced steps in step order;
        # each walk-step-sized temporary dies before the next is born
        dst = dst[np.argsort(batch, kind="stable")]
        self.steps[ragged_indices(new_off + keep + hop, traced, narrow)] = dst
        del dst, traced
        self._steps_tail += total
        self._steps_live += total - int(self.path_len[positions].sum())
        self.path_off[positions] = new_off
        self.path_len[positions] = new_len
        del new_off, new_len
        # the kept prefix and the hop's source are already posted
        self._post(src, batch, wids)
        live = self._steps_live
        if (
            self._steps_tail > 2 * live + SLACK_FLOOR
            or self._posts_tail > 3 * live + SLACK_FLOOR
        ):
            self._compact()

    def _post(
        self, srcs: np.ndarray, walks: np.ndarray, wids: np.ndarray
    ) -> None:
        """Append walk id ``wids[walks[i]]`` to posting row ``srcs[i]``,
        all at once (a step names its walk by batch position, so no
        step-sized array of 8-byte ids exists until the final store)."""
        if srcs.size == 0:
            return
        order = np.argsort(srcs, kind="stable")
        grouped = srcs[order]
        walks = walks[order]
        del order
        firsts = np.flatnonzero(np.diff(grouped, prepend=-1))
        nodes = grouped[firsts]
        add = np.diff(firsts, append=grouped.size)
        del grouped
        need = self.post_cnt[nodes] + add
        full = need > self.post_cap[nodes]
        if full.any():
            self._relocate_posts(nodes[full], need[full])
        slots = ragged_indices(
            self.post_off[nodes] + self.post_cnt[nodes],
            add,
            _position_dtype(self.posts),
        )
        self.posts[slots] = wids[walks]
        self.post_cnt[nodes] = need

    def _relocate_posts(self, nodes: np.ndarray, need: np.ndarray) -> None:
        """Move the given posting rows to the tail at twice the room
        they need (a fresh row included: a compaction cycle roughly
        doubles a row, so packed rows would all move at once)."""
        caps = 2 * need
        total = int(caps.sum())
        self.posts = _reserve(self.posts, self._posts_tail, total)
        narrow = _position_dtype(self.posts)
        new_off = self._posts_tail + np.cumsum(caps) - caps
        held = self.post_cnt[nodes]
        self.posts[ragged_indices(new_off, held, narrow)] = self.posts[
            ragged_indices(self.post_off[nodes], held, narrow)
        ]
        self.post_off[nodes] = new_off
        self.post_cap[nodes] = caps
        self._posts_tail += total

    def _stored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(wids, positions, nodes)`` of every walk in the rows."""
        rows = self._rows
        counts = rows.counts
        nodes = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        slots = ragged_indices(np.zeros_like(counts), counts)
        return (
            (nodes << SLOT_BITS) | slots,
            rows.offsets[nodes] + slots,
            nodes,
        )

    def _compact(self) -> None:
        """Repack the arena and rebuild the posting rows from it."""
        wids, positions, nodes = self._stored()
        lens, firsts, src, dst = self._gather(positions, nodes)
        self.steps = dst
        self.path_off[positions] = firsts
        self._steps_tail = self._steps_live = int(dst.size)
        del dst, firsts, positions, nodes
        self._reset_postings()
        # an unnamed argument: `_post` drops it as soon as it has sorted it
        self._post(
            src, np.repeat(np.arange(wids.size, dtype=np.int32), lens), wids
        )


def apply_edge_update(
    index: WalkIndex, view: CSRView, u: int, v: int, kind: str
) -> int:
    """Patch ``index`` in place for one applied edge update.

    ``view`` must be the post-update snapshot and ``kind`` the resolved
    operation (``"insert"`` or ``"delete"`` — toggles are resolved by
    ``EdgeUpdate.apply`` before the index ever sees them).  Returns the
    number of walks (re)sampled, the incremental analogue of the full
    rebuild's ``total_walks`` cost.

    The first call on an index built without ``track_edges`` pays one
    traced full rebuild to materialize the edge→walk map (lazy per the
    module contract); every subsequent call is O(affected).

    Generator draws are a function of the affected set alone — one
    uniform per affected walk (ascending walk id) for the forced hop,
    then the standard walk draws — never of how the map stores it, so
    seeded runs do not depend on the map's layout.
    """
    if kind not in ("insert", "delete"):
        raise ValueError(f"unknown edge-update kind: {kind!r}")
    _incremental_updates.inc()
    if index.edge_map is None:
        # lazy map build: the snapshot already reflects the update, so
        # a plain traced rebuild on it is both the repair and the map.
        index.track_edges = True
        resampled = index.rebuild(view)
        _map_builds.inc()
    else:
        resampled = _repair(index, index.edge_map, view, u, v, kind)
    _walks_resampled.inc(resampled)
    return resampled


def _repair(
    index: WalkIndex,
    emap: EdgeWalkMap,
    view: CSRView,
    u: int,
    v: int,
    kind: str,
) -> int:
    index.view = view
    resampled = index._ensure_node_rows(view)
    deg = int(view.out_deg[u])
    current = int(index.counts[u])
    target = int(index._target_counts(view.out_deg[u:u + 1])[0])
    lo = int(index.offsets[u])

    # shrink first: dropped tail walks need no repair and must not
    # appear in the affected set.
    if target < current:
        emap.unregister(np.arange(lo + target, lo + current))
        index.counts[u] = target

    wids, positions, split = emap.affected(
        u, v if kind == "delete" else None
    )
    if wids.size:
        trace: WalkTrace = []
        if deg == 0:
            # u lost its last out-edge: every affected walk now holds
            # at u (coin survived, nowhere to go).
            hops = terms = np.full(wids.size, u, dtype=np.int64)
        else:
            # forced uniform move over u's new out-neighbors, then a
            # standard walk from the hop (traced, so the new suffixes
            # are registered).
            hops = view.out_neighbors_of(u)[
                (index._rng.random(wids.size) * deg).astype(np.int64)
            ]
            terms = sample_walk_terminals(
                view, hops, index.alpha, index._rng, trace=trace
            )
        emap.replace_suffix(wids, positions, split, hops, trace)
        index.terminals[positions] = terms
        resampled += int(wids.size)

    # grow last: fresh walks are already new-graph iid.
    if target > current:
        if target > int(index.caps[u]):
            index._relocate_row(u, target)
            lo = int(index.offsets[u])
        index.counts[u] = target
        extra = target - current
        starts = np.full(extra, u, dtype=np.int64)
        grow_trace: WalkTrace = []
        index.terminals[lo + current:lo + target] = sample_walk_terminals(
            view, starts, index.alpha, index._rng, trace=grow_trace
        )
        emap.register(
            starts, np.arange(current, target, dtype=np.int64), grow_trace
        )
        resampled += extra
    return resampled


def validate_edge_map(index: WalkIndex, view: CSRView) -> list[str]:
    """Audit the edge→walk map against the index and a snapshot.

    Returns a list of human-readable violations (empty = consistent):
    the accounting matches the stored rows, every recorded step is a
    snapshot edge or a dangling hold, and every step's source row posts
    the walk.  Leftover postings are legal (lookups re-check them).
    Used as the oracle by the property tests and the benchmark; not a
    hot path.
    """
    emap = index.edge_map
    if emap is None:
        return ["edge map not built (track_edges off and never updated)"]
    violations: list[str] = []
    wids, positions, nodes = emap._stored()
    lens, _, src32, dst32 = emap._gather(positions, nodes)
    src, dst = src32.astype(np.int64), dst32.astype(np.int64)
    step_wids = np.repeat(wids, lens)
    if int(emap.path_len.sum()) != int(lens.sum()):
        violations.append("a walk outside the stored rows is registered")
    if int(lens.sum()) != emap.live_steps:
        violations.append(
            f"live-step count {emap.live_steps} != {int(lens.sum())} "
            f"steps registered"
        )

    n = view.n
    edges = np.repeat(np.arange(n), view.out_deg) * n + view.indices[
        ragged_indices(view.indptr[:n], view.out_deg)
    ]
    hold = (src == dst) & (view.out_deg[src] == 0)
    for i in np.flatnonzero(~hold & ~np.isin(src * n + dst, edges))[:5]:
        violations.append(
            f"walk {step_wids[i]} traverses ({src[i]}, {dst[i]}) absent "
            f"from the snapshot"
        )

    posted = emap.posts[ragged_indices(emap.post_off, emap.post_cnt)]
    universe, dense = np.unique(
        np.concatenate([step_wids, posted]), return_inverse=True
    )
    step_keys = src * universe.size + dense[:step_wids.size]
    post_keys = (
        np.repeat(np.arange(emap.post_cnt.size), emap.post_cnt)
        * universe.size
        + dense[step_wids.size:]
    )
    for i in np.flatnonzero(~np.isin(step_keys, post_keys))[:5]:
        violations.append(
            f"walk {step_wids[i]} steps out of {src[i]} but that row "
            f"does not post it"
        )
    return violations
