"""Fixed-source PPR tracking over edge updates (ApPPR lineage [11]).

Maintains a single source's PPR estimate *incrementally* as the graph
evolves, instead of recomputing per query — the "query-tracking in
dynamic graphs" setting of the paper's related work ([11], [19], [20]).

The tracker stores a reserve/residue pair (p, r) satisfying the exact
invariant  pi_s = p + sum_w r(w) * pi_w  on the *current* graph.  When
an edge update changes node u's out-distribution from P(u,:) to
P'(u,:), the invariant is restored by the exact, local correction

    r += (1 - alpha)/alpha * p(u) * (P'(u,:) - P(u,:)).

Corrections can drive residues negative, so the tracker's push and
Monte-Carlo machinery is *signed*.

Derivation: with M_G = alpha (I - (1-alpha) P_G)^(-1) (whose w-th row
is pi_w), validity of (p, r) on G means p + r M_G = e_s M_G, which
pins r uniquely: r = e_s - p/alpha + (1-alpha)/alpha * p P_G.  Holding
p fixed and differencing the expressions for G and G' leaves only the
changed row u of P — the single local term above.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams, PPRVector
from repro.ppr.csr import CSRView, csr_view
from repro.ppr.random_walk import sample_walk_terminals


def signed_forward_push(
    view: CSRView,
    residue: np.ndarray,
    reserve: np.ndarray,
    alpha: float,
    r_max: float,
) -> int:
    """Forward push generalized to signed residues (in place).

    A node is active while |residue| / max(out_degree, 1) > r_max; each
    push moves alpha * residue into the reserve and spreads the rest,
    identically to Algorithm 3 but without a sign assumption (the push
    operator is linear, so it is valid for any real residue vector).
    Returns the number of pushes.
    """
    n = view.n
    if n == 0:
        return 0
    indptr = view.indptr
    indices = view.indices
    out_deg = view.out_deg
    one_minus_alpha = 1.0 - alpha
    eff_deg = np.maximum(out_deg, 1)

    queue: deque[int] = deque(
        int(i) for i in np.flatnonzero(np.abs(residue) > r_max * eff_deg)
    )
    in_queue = np.zeros(n, dtype=bool)
    in_queue[list(queue)] = True

    pushes = 0
    while queue:
        t = queue.popleft()
        in_queue[t] = False
        r_t = residue[t]
        deg = out_deg[t]
        if abs(r_t) <= r_max * (deg if deg > 0 else 1):
            continue
        pushes += 1
        reserve[t] += alpha * r_t
        residue[t] = 0.0
        if deg == 0:
            residue[t] = one_minus_alpha * r_t
            if abs(residue[t]) > r_max and not in_queue[t]:
                queue.append(t)
                in_queue[t] = True
            continue
        share = one_minus_alpha * r_t / deg
        # row extent is indptr[t] : indptr[t] + deg (patched views may
        # carry slack past the row end)
        start = indptr[t]
        neighbors = indices[start:start + deg]
        np.add.at(residue, neighbors, share)
        for v in neighbors:
            if not in_queue[v] and abs(residue[v]) > r_max * max(
                out_deg[v], 1
            ):
                queue.append(int(v))
                in_queue[v] = True
    return pushes


class TrackedPPR:
    """Incrementally maintained single-source PPR.

    Parameters
    ----------
    graph:
        The dynamic graph (the tracker applies updates to it).
    source:
        The fixed source node.
    params:
        Accuracy configuration (alpha, walk budget).
    r_max:
        Push threshold for both the initial push and the post-update
        re-push.  Smaller keeps residues (and the signed-walk noise)
        small at higher maintenance cost.

    Limitations
    -----------
    * The node set must stay fixed (updates may only toggle edges among
      existing nodes); growing the graph requires :meth:`refresh`.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        source: int,
        params: PPRParams | None = None,
        r_max: float = 1e-4,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < r_max < 1.0:
            raise ValueError(f"r_max must be in (0, 1), got {r_max}")
        self.graph = graph
        self.source = source
        self.params = params or PPRParams()
        self.r_max = r_max
        self._rng = np.random.default_rng(seed)
        self.updates_applied = 0
        self.refresh()

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Rebuild the (p, r) pair from scratch on the current graph."""
        self._view = csr_view(self.graph)
        self._source_index = self._view.to_index(self.source)
        self.reserve = np.zeros(self._view.n, dtype=np.float64)
        self.residue = np.zeros(self._view.n, dtype=np.float64)
        self.residue[self._source_index] = 1.0
        signed_forward_push(
            self._view, self.residue, self.reserve, self.params.alpha,
            self.r_max,
        )

    # ------------------------------------------------------------------
    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        """Apply one edge update and restore the invariant exactly."""
        u = update.u
        if not self.graph.has_node(u) or not self.graph.has_node(update.v):
            raise ValueError(
                "TrackedPPR requires a fixed node set; call refresh() "
                "after adding nodes"
            )
        alpha = self.params.alpha
        old_view = self._view
        u_index = old_view.to_index(u)
        old_neighbors = old_view.out_neighbors_of(u_index).copy()
        old_deg = int(old_neighbors.size)

        resolved = update.apply(self.graph)
        self._view = csr_view(self.graph)
        if self._view.n != old_view.n:
            raise ValueError(
                "node set changed during update; call refresh()"
            )
        new_neighbors = self._view.out_neighbors_of(u_index)
        new_deg = int(new_neighbors.size)

        # delta = P'(u,:) - P(u,:) as a sparse accumulation; implicit
        # self loop stands in for a dangling node's row.
        delta: dict[int, float] = {}
        if old_deg == 0:
            delta[u_index] = delta.get(u_index, 0.0) - 1.0
        else:
            for w in old_neighbors:
                delta[int(w)] = delta.get(int(w), 0.0) - 1.0 / old_deg
        if new_deg == 0:
            delta[u_index] = delta.get(u_index, 0.0) + 1.0
        else:
            for w in new_neighbors:
                delta[int(w)] = delta.get(int(w), 0.0) + 1.0 / new_deg

        # The invariant pins r uniquely: r = e_s - p/alpha
        # + (1-alpha)/alpha * p P, so differencing the two graphs
        # leaves exactly this one term (no source special case).
        coefficient = (1.0 - alpha) / alpha * self.reserve[u_index]
        # exact-zero sentinel: reserve[u] stays exactly 0.0 until a push
        # writes it, so this only skips provably-no-op corrections; a
        # tolerance would wrongly drop small but real corrections.
        if coefficient != 0.0:
            for w, d in delta.items():
                self.residue[w] += coefficient * d

        signed_forward_push(
            self._view, self.residue, self.reserve, alpha, self.r_max
        )
        self.updates_applied += 1
        return resolved

    # ------------------------------------------------------------------
    def residual_mass(self) -> float:
        """L1 norm of the signed residue (tracking noise indicator)."""
        return float(np.abs(self.residue).sum())

    def estimate(self, num_walks_k: int | None = None) -> PPRVector:
        """Current PPR estimate: reserve + signed-walk residue folding."""
        values = self.reserve.copy()
        k = num_walks_k if num_walks_k is not None else self.params.num_walks(
            self._view.n
        )
        # exact-zero sparsity mask: push writes exactly 0.0 into settled
        # slots, so != 0.0 selects precisely the walk-needing residues.
        holders = np.flatnonzero(self.residue != 0.0)
        if holders.size:
            res = self.residue[holders]
            counts = np.maximum(
                np.ceil(np.abs(res) * k).astype(np.int64), 1
            )
            weights = res / counts
            starts = np.repeat(holders, counts)
            per_walk = np.repeat(weights, counts)
            terminals = sample_walk_terminals(
                self._view, starts, self.params.alpha, self._rng
            )
            np.add.at(values, terminals, per_walk)
        return PPRVector(values, self._view, self.source)

    def __repr__(self) -> str:
        return (
            f"TrackedPPR(source={self.source}, updates="
            f"{self.updates_applied}, |r|={self.residual_mass():.3g})"
        )
