"""Top-k PPR algorithms: FORA-TopK and TopPPR.

Top-k SSPPR returns the k nodes with the highest PPR w.r.t. the source
(Section VIII-G).  Both methods reuse the Push+Walk machinery:

* :class:`ForaTopK` — FORA's iterative-refinement scheme: run the
  Push+Walk estimator with a coarse r_max and keep halving it until the
  top-k *set* stabilizes between consecutive rounds (the practical
  variant of FORA's confidence-bound termination) or the refinement
  floor is reached.
* :class:`TopPPR` — the three-phase scheme of Wei et al.: forward push,
  random walks, then *reverse pushes from the top candidates* to refine
  the scores that decide the final ranking (its distinguishing
  ``1/r_max_b`` query-cost term in Table I).

Both are index-free in this reproduction (as benchmarked in the paper):
updates only touch the graph, so ``t_u`` is a constant.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import (
    DynamicPPRAlgorithm,
    PPRParams,
    PPRVector,
    QueryStats,
    clip_unit,
)
from repro.ppr.forward_push import forward_push
from repro.ppr.reverse_push import reverse_push


class ForaTopK(DynamicPPRAlgorithm):
    """FORA-TopK: Push+Walk with iterative r_max refinement.

    Hyperparameters
    ---------------
    r_max:
        Starting push threshold of the refinement schedule.

    Parameters
    ----------
    k:
        Number of results per query.
    max_rounds:
        Cap on refinement rounds (each round halves r_max).
    """

    name = "FORA-TopK"
    is_index_based = False
    hyperparameter_names = ("r_max",)

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        k: int = 10,
        max_rounds: int = 4,
    ) -> None:
        super().__init__(graph, params)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.max_rounds = max_rounds
        self.r_max = r_max if r_max is not None else self.default_r_max()

    def default_r_max(self) -> float:
        """Start coarse: 4x FORA's balancing threshold."""
        view = self.view
        num_walks = self.params.num_walks(view.n)
        m = max(view.m, 1)
        return clip_unit(4.0 / math.sqrt(self.params.alpha * m * num_walks))

    def default_hyperparameters(self) -> dict[str, float]:
        return {"r_max": self.default_r_max()}

    # ------------------------------------------------------------------
    def _estimate(self, source: int, r_max: float, stats: QueryStats) -> np.ndarray:
        view = self.view
        with self.timers.measure("Forward Push"):
            push = forward_push(
                view, view.to_index(source), self.params.alpha, r_max
            )
            stats.pushes += push.pushes
        self._walk_phase(view, push.reserve, push.residue, stats)
        return push.reserve

    def query(self, source: int) -> PPRVector:
        """Full SSPPR vector from the final refinement round."""
        view = self.view
        stats = QueryStats()
        r_max = self.r_max
        estimate = self._estimate(source, r_max, stats)
        previous_topk: list[int] | None = None
        for _ in range(1, self.max_rounds):
            topk = self._topk_nodes(estimate)
            if previous_topk == topk:
                break  # ranking stabilized
            previous_topk = topk
            r_max /= 2.0
            estimate = self._estimate(source, r_max, stats)
        stats.extra["final_r_max"] = r_max
        self.last_query_stats = stats
        return PPRVector(estimate, view, source)

    def query_topk(self, source: int) -> list[tuple[int, float]]:
        """The (node, score) list of the k best nodes."""
        return self.query(source).top_k(self.k)

    def _topk_nodes(self, estimate: np.ndarray) -> list[int]:
        k = min(self.k, estimate.size)
        idx = np.argpartition(-estimate, k - 1)[:k]
        idx = idx[np.argsort(-estimate[idx], kind="stable")]
        return [int(i) for i in idx]


class TopPPR(DynamicPPRAlgorithm):
    """TopPPR: forward push + walks + candidate reverse-push refinement.

    Hyperparameters
    ---------------
    r_max:
        Forward-push threshold.
    r_max_b:
        Reverse-push threshold used to refine candidate scores.

    Parameters
    ----------
    k:
        Number of results per query.
    candidate_factor:
        The refinement examines ``candidate_factor * k`` provisional
        winners (the paper's gamma-margin candidate set).
    """

    name = "TopPPR"
    is_index_based = False
    hyperparameter_names = ("r_max", "r_max_b")

    def __init__(
        self,
        graph: DynamicGraph,
        params: PPRParams | None = None,
        r_max: float | None = None,
        r_max_b: float | None = None,
        k: int = 10,
        candidate_factor: float = 2.0,
    ) -> None:
        super().__init__(graph, params)
        if k < 1:
            raise ValueError("k must be >= 1")
        if candidate_factor < 1.0:
            raise ValueError("candidate_factor must be >= 1")
        self.k = k
        self.candidate_factor = candidate_factor
        defaults = self.default_hyperparameters()
        self.r_max = r_max if r_max is not None else defaults["r_max"]
        self.r_max_b = r_max_b if r_max_b is not None else defaults["r_max_b"]

    def default_hyperparameters(self) -> dict[str, float]:
        view = self.view
        num_walks = self.params.num_walks(view.n)
        m = max(view.m, 1)
        return {
            "r_max": clip_unit(1.0 / math.sqrt(self.params.alpha * m * num_walks)),
            "r_max_b": clip_unit(
                math.sqrt(self.params.alpha / max(view.n, 2))
            ),
        }

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        """SSPPR vector whose top candidates carry refined scores."""
        view = self.view
        stats = QueryStats()
        with self.timers.measure("Forward Push"):
            push = forward_push(
                view, view.to_index(source), self.params.alpha, self.r_max
            )
            stats.pushes = push.pushes
        self._walk_phase(view, push.reserve, push.residue, stats)
        estimate = push.reserve
        with self.timers.measure("Reverse Push"):
            candidates = self._candidate_set(estimate)
            source_index = view.to_index(source)
            for c in candidates:
                back = reverse_push(
                    view, int(c), self.params.alpha, self.r_max_b
                )
                # pi(s, c) = reserve_b(s) + sum_v pi(s, v) residue_b(v);
                # plugging the Monte-Carlo estimate in for pi(s, .) gives
                # a second, backward estimator — average the two.
                refined = float(
                    back.reserve[source_index]
                    + np.dot(estimate, back.residue)
                )
                estimate[c] = 0.5 * (estimate[c] + refined)
            stats.extra["candidates"] = len(candidates)
        self.last_query_stats = stats
        return PPRVector(estimate, view, source)

    def query_topk(self, source: int) -> list[tuple[int, float]]:
        return self.query(source).top_k(self.k)

    def _candidate_set(self, estimate: np.ndarray) -> np.ndarray:
        count = min(
            int(math.ceil(self.candidate_factor * self.k)), estimate.size
        )
        if count == 0:
            return np.empty(0, dtype=np.int64)
        idx = np.argpartition(-estimate, count - 1)[:count]
        return idx
