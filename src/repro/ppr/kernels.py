"""Vectorized frontier-batched push kernels.

The scalar :func:`~repro.ppr.forward_push.forward_push` pops one node
at a time off a FIFO deque — a Gauss–Seidel schedule whose inner loop
is pure Python.  The kernels here instead process the **whole active
frontier per sweep** (a Jacobi/synchronous schedule): gather every
active row with ``np.repeat``/``indptr`` arithmetic (honoring the
slack-slot row extents of delta-patched :class:`~repro.ppr.csr.CSRView`
arrays, where ``indptr[t + 1]`` is *not* the end of row ``t``), scatter
all shares with one ``np.add.at`` per sweep, and recompute the active
mask vectorally.  Both schedules terminate with every residue below
``r_max * d_out`` and both satisfy the FORA invariant

    pi(s, t) = reserve(t) + sum_v residue(v) * pi(v, t)

but they are *different* push orders, so their results agree only up
to the r_max-scale approximation slack — not bit-for-bit.  What **is**
bit-for-bit reproducible is the synchronous schedule itself:
:func:`reference_frontier_push` executes it with per-node Python loops
in ascending index order, and :func:`frontier_push` /
:func:`batched_frontier_push` perform the exact same IEEE-754
operations in the exact same order (``np.add.at`` applies its updates
sequentially in index-array order).  The property tests exploit this:
the pure-Python reference is the scalar oracle the vectorized kernels
must match to the last bit, on packed and slack-patched views alike.

Batched mode runs B sources as a ``(B, n)`` residue/reserve matrix over
one shared scan of the graph arrays, which is how the serving runtime
coalesces same-snapshot queries arriving within a dispatch window.
Row ``b`` of a batched push is bit-for-bit identical to
``frontier_push`` from ``sources[b]``: sweeps in which a row has no
active node touch none of its entries, so each row's trajectory is its
single-source trajectory with idle sweeps interleaved.

:func:`power_phase` is the same machinery applied to SpeedPPR's
PowerPush stage: whole-graph Jacobi sweeps straight over the (possibly
slack) CSR rows, so the frontier engine never pays the packed-matrix
rebuild that the scipy path needs after every graph delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ppr.csr import CSRView
from repro.ppr.forward_push import PushResult

#: kernel engines selectable on Push+Walk algorithms and the CLI.
#: ``scalar`` is the deque-based reference path (the property-test
#: oracle for algorithm-level behavior), ``frontier`` the vectorized
#: whole-frontier kernel, ``batched`` the multi-source (B, n) kernel.
ENGINES = ("scalar", "frontier", "batched")


def resolve_engine(engine: str, allowed: tuple[str, ...] = ENGINES) -> str:
    """Validate an engine name against ``allowed`` (default :data:`ENGINES`).

    The one engine-name validator: :mod:`repro.ppr.dispatch` binds it to
    ``ENGINE_CHOICES`` (``"auto"`` plus the kernels) as
    ``resolve_engine_choice``.
    """
    if engine not in allowed:
        raise ValueError(
            f"unknown kernel engine {engine!r}; choose one of {allowed}"
        )
    return engine


@dataclass(slots=True)
class BatchPushResult:
    """Outcome of a multi-source batched push.

    Attributes
    ----------
    reserve, residue:
        ``(B, n)`` matrices; row ``b`` is the state of source ``b``.
    pushes:
        Total node-pushes across the batch (cost proxy).
    sweeps:
        Number of synchronous sweeps until every row went inactive.
    """

    reserve: np.ndarray
    residue: np.ndarray
    pushes: int
    sweeps: int


def _gather_targets(
    indptr: np.ndarray,
    indices: np.ndarray,
    nodes: np.ndarray,
    degs: np.ndarray,
) -> np.ndarray:
    """Concatenated out-neighbors of ``nodes`` honoring slack rows.

    Row ``t`` occupies ``indices[indptr[t] : indptr[t] + degs]`` —
    patched views carry slack, so ``indptr[t + 1]`` is not the row end.
    """
    total = int(degs.sum())
    prefix = np.zeros(nodes.size, dtype=np.int64)
    if nodes.size > 1:
        np.cumsum(degs[:-1], out=prefix[1:])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(prefix, degs)
    return indices[np.repeat(indptr[nodes], degs) + offsets]


def frontier_push(
    view: CSRView,
    source_index: int,
    alpha: float,
    r_max: float,
    residue: np.ndarray | None = None,
    reserve: np.ndarray | None = None,
) -> PushResult:
    """Whole-frontier (synchronous-schedule) forward push.

    Same contract as :func:`~repro.ppr.forward_push.forward_push`
    (including warm-start ``residue``/``reserve`` arrays, mutated in
    place) but each iteration pushes *every* currently active node at
    once.  Bit-for-bit equal to :func:`reference_frontier_push`.
    """
    n = view.n
    if n == 0:
        empty = np.zeros(0, dtype=np.float64)
        return PushResult(
            reserve if reserve is not None else empty,
            residue if residue is not None else empty.copy(),
            0,
        )
    if residue is None:
        residue = np.zeros(n, dtype=np.float64)
        residue[source_index] = 1.0
    if reserve is None:
        reserve = np.zeros(n, dtype=np.float64)

    indptr = view.indptr
    indices = view.indices
    out_deg = view.out_deg
    one_minus_alpha = 1.0 - alpha
    thresholds = r_max * np.maximum(out_deg, 1)

    pushes = 0
    while True:
        frontier = np.flatnonzero(residue > thresholds)
        if frontier.size == 0:
            break
        pushes += int(frontier.size)
        r = residue[frontier]
        reserve[frontier] += alpha * r
        residue[frontier] = 0.0
        degs = out_deg[frontier]
        dangling = degs == 0
        if dangling.any():
            # Implicit self loop: the non-teleport share stays put.
            residue[frontier[dangling]] = one_minus_alpha * r[dangling]
        spreading = ~dangling
        if spreading.any():
            nodes = frontier[spreading]
            d = degs[spreading]
            share = one_minus_alpha * r[spreading] / d
            targets = _gather_targets(indptr, indices, nodes, d)
            np.add.at(residue, targets, np.repeat(share, d))
    return PushResult(reserve, residue, pushes)


def batched_frontier_push(
    view: CSRView,
    source_indices: np.ndarray,
    alpha: float,
    r_max: float,
) -> BatchPushResult:
    """Push B sources simultaneously over one shared graph scan.

    Residue/reserve live in ``(B, n)`` matrices; every sweep gathers
    the active (row, node) pairs of the whole batch and scatters their
    shares with a single ``np.add.at`` on the flattened residue.  Row
    ``b`` is bit-for-bit the :func:`frontier_push` result for
    ``source_indices[b]`` (see module docstring).
    """
    src = np.asarray(source_indices, dtype=np.int64)
    n = view.n
    b_count = int(src.size)
    if b_count == 0 or n == 0:
        empty = np.zeros((b_count, n), dtype=np.float64)
        return BatchPushResult(empty, empty.copy(), 0, 0)

    # State lives NODE-major — (n, B), entry (t, b) is row b's value at
    # node t — so the B rows' entries for one node share cache lines: a
    # sweep in which several rows push (or receive mass at) the same
    # node touches one line instead of B distant ones, which is where
    # the batch's wall-clock win comes from.  Sorted flat indices are
    # (node, row)-ordered, whose per-row subsequence is ascending by
    # node — exactly the single-source push order, keeping every row
    # bit-for-bit equal to ``frontier_push``.
    residue_t = np.zeros((n, b_count), dtype=np.float64)
    reserve_t = np.zeros((n, b_count), dtype=np.float64)
    residue_t[src, np.arange(b_count)] = 1.0

    indptr = view.indptr
    indices = view.indices
    out_deg = view.out_deg
    one_minus_alpha = 1.0 - alpha
    flat_residue = residue_t.reshape(-1)
    flat_reserve = reserve_t.reshape(-1)
    flat_thresholds = np.repeat(r_max * np.maximum(out_deg, 1), b_count)

    pushes = 0
    sweeps = 0
    while True:
        active = np.flatnonzero(flat_residue > flat_thresholds)
        if active.size == 0:
            break
        sweeps += 1
        pushes += int(active.size)
        t_idx = active // b_count
        r = flat_residue[active]
        flat_reserve[active] += alpha * r
        flat_residue[active] = 0.0
        degs = out_deg[t_idx]
        dangling = degs == 0
        if dangling.any():
            # Implicit self loop: the non-teleport share stays put.
            flat_residue[active[dangling]] = one_minus_alpha * r[dangling]
        spreading = ~dangling
        if spreading.any():
            flat_spreading = active[spreading]
            nodes = t_idx[spreading]
            rows = flat_spreading - nodes * b_count
            d = degs[spreading]
            share = one_minus_alpha * r[spreading] / d
            # ``nodes`` is non-decreasing (node-major order), so runs of
            # rows pushing the same node gather its adjacency once and
            # fan it out, instead of re-reading it per row.
            first = np.empty(nodes.size, dtype=bool)
            first[0] = True
            np.not_equal(nodes[1:], nodes[:-1], out=first[1:])
            uniq_nodes = nodes[first]
            if uniq_nodes.size < nodes.size:
                uniq_degs = out_deg[uniq_nodes]
                uniq_targets = _gather_targets(
                    indptr, indices, uniq_nodes, uniq_degs
                )
                uniq_starts = np.zeros(uniq_nodes.size, dtype=np.int64)
                if uniq_nodes.size > 1:
                    np.cumsum(uniq_degs[:-1], out=uniq_starts[1:])
                starts = uniq_starts[np.cumsum(first) - 1]
                total = int(d.sum())
                prefix = np.zeros(nodes.size, dtype=np.int64)
                if nodes.size > 1:
                    np.cumsum(d[:-1], out=prefix[1:])
                within = np.arange(total, dtype=np.int64) - np.repeat(
                    prefix, d
                )
                targets = uniq_targets[np.repeat(starts, d) + within]
            else:
                targets = _gather_targets(indptr, indices, nodes, d)
            flat_targets = targets * b_count + np.repeat(rows, d)
            np.add.at(flat_residue, flat_targets, np.repeat(share, d))
    return BatchPushResult(
        np.ascontiguousarray(reserve_t.T),
        np.ascontiguousarray(residue_t.T),
        pushes,
        sweeps,
    )


def reference_frontier_push(
    view: CSRView,
    source_index: int,
    alpha: float,
    r_max: float,
    residue: np.ndarray | None = None,
    reserve: np.ndarray | None = None,
) -> PushResult:
    """Pure-Python scalar oracle of the synchronous push schedule.

    Executes exactly the operations of :func:`frontier_push`, one node
    at a time in ascending index order, with Python-float (IEEE-754
    double) arithmetic.  The vectorized kernels must match this
    function bit-for-bit — the property-test contract that pins the
    gather/scatter index arithmetic, including on slack-slot rows.
    """
    n = view.n
    if n == 0:
        empty = np.zeros(0, dtype=np.float64)
        return PushResult(
            reserve if reserve is not None else empty,
            residue if residue is not None else empty.copy(),
            0,
        )
    if residue is None:
        residue = np.zeros(n, dtype=np.float64)
        residue[source_index] = 1.0
    if reserve is None:
        reserve = np.zeros(n, dtype=np.float64)

    indptr = view.indptr
    indices = view.indices
    out_deg = view.out_deg
    one_minus_alpha = 1.0 - alpha

    pushes = 0
    while True:
        frontier = [
            t
            for t in range(n)
            if float(residue[t]) > r_max * max(int(out_deg[t]), 1)
        ]
        if not frontier:
            break
        pushes += len(frontier)
        r = {t: float(residue[t]) for t in frontier}
        for t in frontier:
            reserve[t] = float(reserve[t]) + alpha * r[t]
            residue[t] = 0.0
        for t in frontier:
            if int(out_deg[t]) == 0:
                residue[t] = one_minus_alpha * r[t]
        for t in frontier:
            deg = int(out_deg[t])
            if deg == 0:
                continue
            share = one_minus_alpha * r[t] / deg
            start = int(indptr[t])
            for v in indices[start:start + deg]:
                residue[v] = float(residue[v]) + share
    return PushResult(reserve, residue, pushes)


def power_phase(
    view: CSRView,
    residue: np.ndarray,
    reserve: np.ndarray,
    alpha: float,
    stop_mass: float,
    max_sweeps: int = 200,
) -> tuple[np.ndarray, np.ndarray, int]:
    """SpeedPPR's PowerPush stage on raw (possibly slack) CSR rows.

    Runs whole-graph Jacobi sweeps — ``reserve += alpha * residue;
    residue = (1 - alpha) * P^T residue`` with the repository-wide
    dangling-self-loop convention — until the residue mass drops below
    ``stop_mass`` or ``max_sweeps`` is hit.  Equivalent to the scipy
    ``transition_matrix`` path up to summation order, but needs no
    packed-matrix (re)build on delta-patched views.

    Returns ``(reserve, residue, sweeps)``; ``reserve`` is mutated in
    place, ``residue`` is replaced each sweep.
    """
    indptr = view.indptr
    indices = view.indices
    out_deg = view.out_deg
    one_minus_alpha = 1.0 - alpha

    sweeps = 0
    while float(residue.sum()) > stop_mass and sweeps < max_sweeps:
        reserve += alpha * residue
        next_residue = np.zeros_like(residue)
        holders = np.flatnonzero(residue > 0.0)
        degs = out_deg[holders]
        dangling = degs == 0
        if dangling.any():
            kept = holders[dangling]
            next_residue[kept] += residue[kept]
        spreading = ~dangling
        if spreading.any():
            nodes = holders[spreading]
            d = degs[spreading]
            share = residue[nodes] / d
            targets = _gather_targets(indptr, indices, nodes, d)
            np.add.at(next_residue, targets, np.repeat(share, d))
        residue = one_minus_alpha * next_residue
        sweeps += 1
    return reserve, residue, sweeps
