"""Reverse Push (backward push toward a target node).

Computes, for a fixed target t, estimates of pi(s, t) for *all* sources
s simultaneously [28].  Agenda uses it during updates to find which
sources' random-walk indexes an edge change can affect, and TopPPR uses
it to refine candidate scores.

Push rule (mirror of forward push): while some node v has backward
residue rb(v) > r_max_b, move alpha * rb(v) into the backward reserve of
v and give every *in*-neighbor u of v an extra
(1 - alpha) * rb(v) / d_out(u).

Invariant: pi(s, t) = reserve_b(s) + sum_v pi(s, v) * residue_b(v).

Complexity: O(d_bar / (alpha * r_max_b)) pushes on average over targets,
the bound quoted in the paper's appendix (from FAST-PPR [61]).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.ppr.csr import CSRView


@dataclass(slots=True)
class ReversePushResult:
    """Backward reserve/residue arrays and push count for one target."""

    reserve: np.ndarray
    residue: np.ndarray
    pushes: int


def reverse_push(
    view: CSRView,
    target_index: int,
    alpha: float,
    r_max_b: float,
    max_pushes: int | None = None,
) -> ReversePushResult:
    """Run Reverse Push toward ``target_index``.

    Parameters
    ----------
    view:
        CSR snapshot with in-adjacency (``csr_view(graph, reverse=True)``).
    target_index:
        Dense index of the target node.
    alpha:
        Teleport probability.
    r_max_b:
        Backward residue threshold (the paper's r^b_max).
    max_pushes:
        Optional hard cap (defensive bound for pathological graphs).

    Returns
    -------
    ReversePushResult
        reserve[s] approximates pi(s, target) from below.
    """
    if view.in_deg is None:
        raise ValueError(
            "reverse push reads in-rows: pass csr_view(graph, reverse=True)"
        )
    n = view.n
    reserve = np.zeros(n, dtype=np.float64)
    residue = np.zeros(n, dtype=np.float64)
    if n == 0:
        return ReversePushResult(reserve, residue, 0)
    residue[target_index] = 1.0

    in_indptr = view.in_indptr
    in_indices = view.in_indices
    in_deg = view.in_deg
    out_deg = view.out_deg
    one_minus_alpha = 1.0 - alpha

    queue: deque[int] = deque([target_index])
    in_queue = np.zeros(n, dtype=bool)
    in_queue[target_index] = True

    pushes = 0
    while queue:
        v = queue.popleft()
        in_queue[v] = False
        r_v = residue[v]
        if r_v <= r_max_b:
            continue
        if max_pushes is not None and pushes >= max_pushes:
            break
        pushes += 1
        reserve[v] += alpha * r_v
        residue[v] = 0.0
        if out_deg[v] == 0:
            # Implicit self loop of a dangling node: it is its own
            # in-neighbor, so the non-teleport share returns to v.
            residue[v] += one_minus_alpha * r_v
            if residue[v] > r_max_b and not in_queue[v]:
                queue.append(v)
                in_queue[v] = True
        # row extent is in_indptr[v] : in_indptr[v] + in_deg[v] —
        # patched views may carry slack past the row end
        row_start = in_indptr[v]
        in_neighbors = in_indices[row_start:row_start + in_deg[v]]
        if in_neighbors.size == 0:
            continue
        degs = out_deg[in_neighbors]
        # Every in-neighbor u reaches v with probability 1/d_out(u) per
        # step, hence the per-u share below.  d_out(u) >= 1 because the
        # u -> v edge exists.
        shares = one_minus_alpha * r_v / degs
        np.add.at(residue, in_neighbors, shares)
        for u in in_neighbors:
            if not in_queue[u] and residue[u] > r_max_b:
                queue.append(int(u))
                in_queue[u] = True
    return ReversePushResult(reserve, residue, pushes)
