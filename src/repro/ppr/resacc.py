"""ResAcc (Lin et al., ICDE 2020) — index-free residue accumulation.

ResAcc improves on plain FORA by *accumulating* residues over several
push rounds before spending random walks: each round pushes with a
progressively tighter threshold, letting probability mass concentrate
on fewer, heavier residue holders, so the final walk phase needs fewer
walks for the same accuracy.

This reproduction keeps that structure (multi-round push, then walks)
with geometrically decreasing thresholds r_max, r_max/2, ...,
r_max/2^(rounds-1).  As in the paper's experiments it is used as an
index-free baseline: updates only touch the graph.
"""

from __future__ import annotations

import math

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import (
    DynamicPPRAlgorithm,
    PPRParams,
    PPRVector,
    QueryStats,
    clip_unit,
)
from repro.ppr.kernels import frontier_push


class ResAcc(DynamicPPRAlgorithm):
    """Residue-accumulation SSPPR.

    Hyperparameters
    ---------------
    r_max:
        Threshold of the *first* push round; later rounds tighten it by
        powers of two.

    Parameters
    ----------
    rounds:
        Number of accumulation rounds (default 3, a typical setting).
    """

    name = "ResAcc"
    is_index_based = False
    hyperparameter_names = ("r_max",)

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        rounds: int = 3,
    ) -> None:
        super().__init__(graph, params)
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = rounds
        self.r_max = r_max if r_max is not None else self.default_r_max()

    def default_r_max(self) -> float:
        """Match FORA's balancing default, adjusted for the extra rounds."""
        view = self.view
        k = self.params.num_walks(view.n)
        m = max(view.m, 1)
        return clip_unit(
            2.0 ** (self.rounds - 1) / math.sqrt(self.params.alpha * m * k)
        )

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
            threshold = self.r_max
            for _ in range(1, self.rounds):
                threshold /= 2.0
                push = frontier_push(
                    view,
                    view.to_index(source),
                    self.params.alpha,
                    threshold,
                    residue=push.residue,
                    reserve=push.reserve,
                )
                stats.pushes += push.pushes
        self._walk_phase(view, push.reserve, push.residue, stats)
        self.last_query_stats = stats
        return PPRVector(push.reserve, view, source)
