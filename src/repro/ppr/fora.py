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
from collections.abc import Sequence

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import (
    DynamicPPRAlgorithm,
    PPRParams,
    PPRVector,
    QueryStats,
    WalkIndexOwner,
    clip_unit,
)
from repro.ppr.csr import CSRView
from repro.ppr.forward_push import forward_push
from repro.ppr.kernels import BatchPushResult, batched_frontier_push


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
    supported_engines = ("scalar", "frontier", "batched")

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        engine: str = "scalar",
    ) -> None:
        super().__init__(graph, params)
        self.r_max = r_max if r_max is not None else self.default_r_max()
        if engine != "scalar":
            self.set_engine(engine)

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
            push = forward_push(
                view,
                view.to_index(source),
                self.params.alpha,
                self.r_max,
                engine=self.engine,
            )
            stats.pushes = push.pushes
        self._walk_phase(view, push.reserve, push.residue, stats)
        self.last_query_stats = stats
        return PPRVector(push.reserve, view, source)

    def query_batch(self, sources: Sequence[int]) -> list[PPRVector]:
        """Same-snapshot batch through the batched push kernel.

        ``engine="batched"`` keeps the legacy single ``(B, n)`` sweep;
        ``engine="auto"`` asks the dispatcher, which splits the batch
        into locality-sorted cache-resident sub-batches when the whole
        ``(n, B)`` state would spill (the documented ``n >= 20k``
        losing cells), or falls back to sequential frontier pushes
        when batching cannot win.  Every split is bit-for-bit
        result-invariant: each batched row equals its single-source
        frontier push.
        """
        if self.engine not in ("batched", "auto") or len(sources) <= 1:
            return super().query_batch(sources)
        view = self.view
        source_indices = np.array(
            [view.to_index(s) for s in sources], dtype=np.int64
        )
        if self.engine == "auto":
            from repro.ppr.dispatch import get_dispatcher

            decision = get_dispatcher().route_push(
                view,
                len(sources),
                self.r_max,
                alpha=self.params.alpha,
                source_indices=source_indices,
            )
            if decision.backend != "batched":
                return super().query_batch(sources)
            chunks = decision.chunks
        else:
            decision = None
            chunks = None
        stats = QueryStats()
        with self.timers.measure("Forward Push"):
            if chunks is not None and len(chunks) > 1:
                push = self._chunked_batch_push(view, source_indices, chunks)
            else:
                push = batched_frontier_push(
                    view, source_indices, self.params.alpha, self.r_max
                )
            stats.pushes = push.pushes
        if decision is not None:
            stats.extra["backend"] = decision.backend
            stats.extra["effective_batch"] = decision.effective_batch
        self._walk_phase(view, push.reserve, push.residue, stats)
        stats.extra["batch_size"] = len(sources)
        stats.extra["sweeps"] = push.sweeps
        self.last_query_stats = stats
        return [
            PPRVector(push.reserve[b], view, source)
            for b, source in enumerate(sources)
        ]

    def _chunked_batch_push(
        self,
        view: "CSRView",
        source_indices: np.ndarray,
        chunks: Sequence[np.ndarray],
    ) -> BatchPushResult:
        """Run the batch as locality-sorted sub-batches.

        ``chunks`` holds positions into ``source_indices`` (from
        :func:`repro.ppr.dispatch.plan_chunks`); results scatter back
        to input order.  Bit-for-bit identical to one whole-batch call
        because every batched row equals its single-source push.
        """
        b = int(source_indices.size)
        reserve = np.zeros((b, view.n), dtype=np.float64)
        residue = np.zeros((b, view.n), dtype=np.float64)
        pushes = 0
        sweeps = 0
        for chunk in chunks:
            part = batched_frontier_push(
                view, source_indices[chunk], self.params.alpha, self.r_max
            )
            reserve[chunk] = part.reserve
            residue[chunk] = part.residue
            pushes += part.pushes
            sweeps = max(sweeps, part.sweeps)
        return BatchPushResult(reserve, residue, pushes, sweeps)


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
