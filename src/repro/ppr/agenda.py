"""Agenda (Mo & Luo, TKDE 2022) — dynamic PPR with lazy index update.

Agenda keeps the FORA+ walk index across updates instead of rebuilding
it.  Each edge update (u, v):

1. mutates the graph,
2. runs a *reverse push* from u to find which nodes' stored walks pass
   through the changed edge (those are the walks the update can bias),
3. charges every such node w an *index inaccuracy* increment
   proportional to pi(w, u) / (alpha * d_out(u)) — Theorem 1 of the
   Agenda paper, quoted as Eq. 16 in this paper's appendix.

A query then performs forward push and, *only if* the accumulated
inaccuracy reachable through its residues exceeds the error budget,
lazily re-samples the walks of the dirtiest nodes ("Lazy Index Update")
before the walk phase.  This gives the Table VI cost profile:

=====================  =========================================
Sub-process            Cost
=====================  =========================================
Forward Push           tau_1 / r_max
Lazy Index Update      tau_2 * lambda_u r_max (n r_max^b + 1) / lambda_q
Random Walk            tau_3 * r_max
Reverse Push           tau_4 / r_max^b
Index Inaccuracy Upd.  tau_5 (O(n))
=====================  =========================================
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import (
    PPRParams,
    PPRVector,
    QueryStats,
    WalkIndexOwner,
    clip_unit,
)
from repro.ppr.forward_push import forward_push
from repro.ppr.random_walk import WalkIndex
from repro.ppr.reverse_push import reverse_push

_NO_NODES = np.empty(0, dtype=np.int64)


class Agenda(WalkIndexOwner):
    """Dynamic PPR with inaccuracy-tracked lazy index maintenance.

    Hyperparameters
    ---------------
    r_max:
        Forward-push threshold (default 1/(alpha K), the paper's
        r-bar_max for Agenda).
    r_max_b:
        Reverse-push threshold used during updates (default 1/n).

    Parameters
    ----------
    theta:
        Fraction of the epsilon * delta error budget that stale walks
        may consume before a query forces a lazy refresh (default 0.5).
    """

    name = "Agenda"
    hyperparameter_names = ("r_max", "r_max_b")

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        r_max_b: float | None = None,
        theta: float = 0.5,
    ) -> None:
        super().__init__(graph, params)
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {theta}")
        self.theta = theta
        defaults = self.default_hyperparameters()
        self.r_max = r_max if r_max is not None else defaults["r_max"]
        self.r_max_b = r_max_b if r_max_b is not None else defaults["r_max_b"]
        self._sigma = np.zeros(self.view.n, dtype=np.float64)

    # ------------------------------------------------------------------
    def default_hyperparameters(self) -> dict[str, float]:
        """Paper defaults: r_max = 1/(alpha K), r_max_b = 1/n."""
        view = self.view
        k = self.params.num_walks(view.n)
        return {
            "r_max": clip_unit(1.0 / (self.params.alpha * k)),
            "r_max_b": clip_unit(1.0 / max(view.n, 2)),
        }

    @property
    def sigma(self) -> np.ndarray:
        """Per-node index inaccuracy upper bounds (dense index order)."""
        return self._sigma

    def inaccuracy_tolerance(self) -> float:
        """Stale-walk error budget theta * epsilon * delta of a query."""
        n = max(self.view.n, 2)
        return (
            self.theta * self.params.epsilon * self.params.resolved_delta(n)
        )

    def _build_index(self) -> WalkIndex:
        """A fresh index carries no inaccuracy: reset sigma with it."""
        self._sigma = np.zeros(self.view.n, dtype=np.float64)
        return super()._build_index()

    # ------------------------------------------------------------------
    def _maintain_index(self, resolved: EdgeUpdate) -> None:
        """Edge arrival: bound the index damage instead of repairing it."""
        view = self.view
        if self._index is not None:
            # adopt the snapshot (rows for any node it gained) without
            # resampling: staleness is what sigma accounts for
            self._index.refresh_nodes(view, _NO_NODES)
        if self._sigma.size != view.n:
            # Node set grew (update introduced a node): pad with zeros.
            padded = np.zeros(view.n, dtype=np.float64)
            padded[: min(self._sigma.size, view.n)] = self._sigma[: view.n]
            self._sigma = padded
        u_index = view.to_index(resolved.u)
        with self.timers.measure("Reverse Push"):
            back = reverse_push(
                view, u_index, self.params.alpha, self.r_max_b
            )
        with self.timers.measure("Index Inaccuracy Update"):
            # Truncated reverse push guarantees, for every source w,
            #   pi(w, u) = reserve_b(w) + sum_v pi(w, v) residue_b(v)
            #           <= reserve_b(w) + r_max_b,
            # and each stored walk of w crosses the changed edge with
            # probability at most pi(w, u) / (alpha * d_out(u))
            # (appendix Eq. 16).  The + r_max_b slack applied to all n
            # nodes is precisely the (n r_max_b + 1) driver of the
            # Lazy Index Update cost in Table VI.
            d_out = max(int(view.out_deg[u_index]), 1)
            contribution = (back.reserve + self.r_max_b) / (
                self.params.alpha * d_out
            )
            self._sigma += contribution

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        view = self.view
        stats = QueryStats()
        with self.timers.measure("Forward Push"):
            push = forward_push(
                view, view.to_index(source), self.params.alpha, self.r_max
            )
            stats.pushes = push.pushes
        with self.timers.measure("Lazy Index Update"):
            stats.refreshed_nodes = self._lazy_refresh(push.residue)
        self._walk_phase(view, push.reserve, push.residue, stats)
        self.last_query_stats = stats
        return PPRVector(push.reserve, view, source)

    def _lazy_refresh(self, residue: np.ndarray) -> int:
        """Refresh the walk sets whose staleness exceeds the budget.

        A query consumes the stored walks of its residue holders.  Any
        holder v whose accumulated inaccuracy sigma(v) exceeds the
        per-node budget theta * epsilon * delta gets its walks
        re-sampled (and sigma reset); the query's total stale error is
        then at most sum_v residue(v) * budget <= theta epsilon delta,
        preserving the Eq. 1 guarantee.

        The cost of this pass is what Table VI models: the number of
        refreshed nodes grows with the sigma inflow per update — the
        (n r_max_b + 1) truncation term — times the update/query ratio,
        and each refresh re-samples ceil(r_max K d_out(v)) walks, the
        r_max term.
        """
        holders = np.flatnonzero(residue > 0.0)
        if holders.size == 0:
            return 0
        tolerance = self.inaccuracy_tolerance()
        dirty = holders[self._sigma[holders] > tolerance]
        if dirty.size == 0:
            return 0
        self._walk_index().refresh_nodes(self.view, dirty)
        self._sigma[dirty] = 0.0
        return int(dirty.size)
