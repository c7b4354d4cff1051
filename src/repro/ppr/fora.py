"""FORA and FORA+ (Wang et al., KDD 2017) adapted to dynamic graphs.

Both answer SSPPR queries with the Push+Walk framework: forward push
with threshold ``r_max`` followed by K-scaled random walks on the
remaining residues.

* :class:`Fora` (index-free) simulates walks online; an edge update only
  mutates the graph, so its update cost is a small constant — the
  ``t_u = tau_3`` row of Table I.
* :class:`ForaPlus` (index-based) reads walk terminals from a
  precomputed :class:`~repro.ppr.random_walk.WalkIndex`; an edge update
  must regenerate the index (O(m r_max K) walks) — the
  ``t_u = r_max * tau_3`` row of Table I.
* :class:`ForaPlusIncremental` ("FORA+inc") patches the index instead
  (FIRM-style affected-walk resampling, :mod:`repro.ppr.incremental`).

The index lifecycle itself lives in
:class:`~repro.ppr.base.WalkIndexOwner`; the two ``+`` classes only
name a policy.

The paper's default threshold r_max = 1/sqrt(alpha m K) equalizes the
two complexity terms; Quota's whole point is that this is generally
*not* the response-time optimum.
"""

from __future__ import annotations

import math

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import (
    DynamicPPRAlgorithm,
    PPRParams,
    PPRVector,
    QueryStats,
    WalkIndexOwner,
    clip_unit,
)
from repro.ppr.kernels import frontier_push


class Fora(DynamicPPRAlgorithm):
    """Index-free FORA.

    Hyperparameters
    ---------------
    r_max:
        Forward-push threshold; smaller means more push work and fewer
        walks.  Default 1/sqrt(alpha m K).
    """

    name = "FORA"
    is_index_based = False
    hyperparameter_names = ("r_max",)

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
    ) -> None:
        super().__init__(graph, params)
        self.r_max = r_max if r_max is not None else self.default_r_max()

    def default_r_max(self) -> float:
        """The paper's complexity-balancing default 1/sqrt(alpha m K)."""
        view = self.view
        k = self.params.num_walks(view.n)
        m = max(view.m, 1)
        return clip_unit(1.0 / math.sqrt(self.params.alpha * m * k))

    def default_hyperparameters(self) -> dict[str, float]:
        return {"r_max": self.default_r_max()}

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        view = self.view
        stats = QueryStats()
        with self.timers.measure("Forward Push"):
            push = frontier_push(
                view, view.to_index(source), self.params.alpha, self.r_max
            )
            stats.pushes = push.pushes
        self._walk_phase(view, push.reserve, push.residue, stats)
        self.last_query_stats = stats
        return PPRVector(push.reserve, view, source)


class ForaPlus(WalkIndexOwner, Fora):
    """Index-based FORA+ — fast queries, index regenerated per update.

    The ``rebuild`` policy is the paper's O(m r_max K) update cost and
    the distributional oracle the incremental path is tested against.
    """

    name = "FORA+"


class ForaPlusIncremental(ForaPlus):
    """FORA+ with FIRM-style incremental walk-index maintenance.

    Registered as its own algorithm ("FORA+inc") so the Quota
    optimizer can weigh its much smaller t̃_u — charged through
    ``ForaPlusIncrementalCostModel`` — against plain FORA+ and the
    index-free methods.
    """

    name = "FORA+inc"
    index_maintenance = "incremental"
