"""Vectorized whole-frontier push kernels and the engine names.

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
in ascending index order, and :func:`frontier_push` performs the exact
same IEEE-754 operations in the exact same order (``np.add.at`` applies
its updates sequentially in index-array order).  The property tests
exploit this: the pure-Python reference is the scalar oracle the
vectorized kernel must match to the last bit, on packed and
slack-patched views alike.

:func:`power_phase` is the same machinery applied to SpeedPPR's
PowerPush stage: whole-graph Jacobi sweeps straight over the (possibly
slack) CSR rows, so it never pays the packed-matrix rebuild that the
scipy path needs after every graph delta, and it is the only power
backend on a scipy-free install.

Engines
-------
``scalar`` and ``frontier`` name the two push schedules above.
``auto`` (:data:`AUTO`) picks per kernel family: a push is always
:func:`frontier_push` — never ``scalar``, whose answers differ in the
low-order bits — and a power phase is scipy's CSR matvec when
:func:`scipy_available` says so, else :func:`power_phase`.  The two
power backends sum in different orders, so which one a machine gets
can change low-order bits across environments (never within one).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.obs import get_metrics
from repro.ppr.csr import CSRView
from repro.ppr.forward_push import PushResult
# re-exported: the names live in a leaf a numpy-free process can import
from repro.ppr.names import AUTO as AUTO
from repro.ppr.names import ENGINE_CHOICES as ENGINE_CHOICES
from repro.ppr.names import ENGINES as ENGINES


def resolve_engine(engine: str, allowed: tuple[str, ...] = ENGINES) -> str:
    """Validate an engine name against ``allowed`` (default :data:`ENGINES`)."""
    if engine not in allowed:
        raise ValueError(
            f"unknown kernel engine {engine!r}; choose one of {allowed}"
        )
    return engine


def scipy_probe() -> bool:
    """Whether scipy's sparse kernels import (the optional dependency)."""
    try:
        from scipy import sparse  # noqa: F401
    except Exception:  # pragma: no cover - import environment dependent
        return False
    return True


@functools.cache
def scipy_available() -> bool:
    """:func:`scipy_probe`, run once per process.

    A failed probe is a degradation — every power phase then runs on
    :func:`power_phase` — and counts ``dispatch.fallbacks`` once.
    """
    available = scipy_probe()
    if not available:
        get_metrics().counter("dispatch.fallbacks").inc()
    return available


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
