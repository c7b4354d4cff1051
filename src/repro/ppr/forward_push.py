"""Forward Push (Algorithm 3 of the paper).

Local push computation of approximate PPR: maintain a *reserve* (the
estimate) and a *residue* (unpushed probability mass) per node; while
some node t has residue(t) / out_degree(t) > r_max, convert an alpha
fraction of its residue into reserve and spread the rest over its
out-neighbors.

The implementation is array-based over a :class:`~repro.ppr.csr.CSRView`
with a FIFO frontier, the standard linear-time formulation of
Andersen et al. [26].  Dangling nodes follow the repository-wide
implicit-self-loop convention (see ``repro.graph.digraph``).

Invariant (checked by property tests): at every moment

    pi(s, t) = reserve(t) + sum_v residue(v) * pi(v, t)

so total reserve + residue mass equals 1 for a fresh source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.ppr.csr import CSRView
from repro.ppr.names import ENGINE_CHOICES


@dataclass(slots=True)
class PushResult:
    """Outcome of a forward push.

    Attributes
    ----------
    reserve:
        Dense reserve array (the PPR estimate lower bound).
    residue:
        Dense residue array (unpushed mass).
    pushes:
        Number of push operations performed (cost proxy; the paper's
        Forward Push complexity is O(1 / (alpha * r_max)) pushes).
    """

    reserve: np.ndarray
    residue: np.ndarray
    pushes: int


def forward_push(
    view: CSRView,
    source_index: int,
    alpha: float,
    r_max: float,
    residue: np.ndarray | None = None,
    reserve: np.ndarray | None = None,
    engine: str = "scalar",
) -> PushResult:
    """Run Forward Push from ``source_index`` until no node is active.

    Parameters
    ----------
    view:
        CSR snapshot of the graph.
    source_index:
        Dense index of the source node (see ``CSRView.to_index``).
    alpha:
        Teleport probability.
    r_max:
        Push threshold: node t is active while residue(t)/d_out(t) > r_max.
    residue, reserve:
        Optional starting vectors (used by incremental callers such as
        SpeedPPR's power-iteration phase); fresh vectors with
        residue[source] = 1 when omitted.  Passed arrays are mutated in
        place.
    engine:
        ``"scalar"`` (this module's deque loop, the oracle path), or
        ``"frontier"`` / ``"auto"`` for the vectorized synchronous
        kernel of :mod:`repro.ppr.kernels` (``auto`` never means
        ``scalar``).  The scalar and synchronous schedules differ, so
        their results agree only up to the r_max approximation slack
        (see kernels module docstring).

    Returns
    -------
    PushResult
        Final reserve/residue arrays and push count.
    """
    if engine != "scalar":
        from repro.ppr import kernels

        kernels.resolve_engine(engine, ENGINE_CHOICES)
        return kernels.frontier_push(
            view, source_index, alpha, r_max, residue=residue, reserve=reserve
        )
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

    # Effective degree 1 for dangling nodes (implicit self loop).
    queue: deque[int] = deque()
    in_queue = np.zeros(n, dtype=bool)
    active = np.flatnonzero(residue > r_max * np.maximum(out_deg, 1))
    for i in active:
        queue.append(int(i))
        in_queue[i] = True

    pushes = 0
    while queue:
        t = queue.popleft()
        in_queue[t] = False
        r_t = residue[t]
        deg = out_deg[t]
        if r_t <= r_max * (deg if deg > 0 else 1):
            continue
        pushes += 1
        reserve[t] += alpha * r_t
        residue[t] = 0.0
        if deg == 0:
            # Implicit self loop: the non-teleport share stays on t.
            residue[t] = one_minus_alpha * r_t
            if residue[t] > r_max and not in_queue[t]:
                queue.append(t)
                in_queue[t] = True
            continue
        share = one_minus_alpha * r_t / deg
        # row extent is indptr[t] : indptr[t] + deg — patched views may
        # carry slack, so indptr[t + 1] is not the row end
        start = indptr[t]
        neighbors = indices[start:start + deg]
        # np.add.at handles repeated neighbors (parallel edges are not
        # allowed, but a node can appear from different frontier pops).
        np.add.at(residue, neighbors, share)
        for v in neighbors:
            if not in_queue[v]:
                deg_v = out_deg[v]
                if residue[v] > r_max * (deg_v if deg_v > 0 else 1):
                    queue.append(int(v))
                    in_queue[v] = True
    return PushResult(reserve, residue, pushes)
