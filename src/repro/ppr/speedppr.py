"""SpeedPPR and SpeedPPR+ (Wu et al., SIGMOD 2021).

SpeedPPR unifies the *global* approach (whole-graph power iteration)
with the *local* one (forward push): it runs vectorized power-iteration
sweeps — which act like a simultaneous push on every node — until the
total residue drops below ``r_max * m``, then hands the remaining
residues to the random-walk estimator.

Query cost ~ m * log(1 / (r_max m)) + m * r_max * W, the Table I form
``log(1/(r_max m)) tau_1 + r_max tau_2`` once the graph-size factors are
folded into the constants.

* :class:`SpeedPPR` — index-free; O(1)-ish updates (``tau_3``).
* :class:`SpeedPPRPlus` — walk index; update regenerates the index
  (``r_max * tau_3``).
* :class:`SpeedPPRPlusIncremental` ("SpeedPPR+inc") — walk index
  patched per update (:mod:`repro.ppr.incremental`).

The index lifecycle lives in :class:`~repro.ppr.base.WalkIndexOwner`.

The power phase has two backend families, routed by
:mod:`repro.ppr.dispatch` when ``engine="auto"``:

* ``spmm`` — scipy-sparse matvec/SpMM sweeps on the packed transition
  matrix (optional dependency, probed at import; one ``(n, B)``
  product per sweep for batches).  Batches are executed in
  cost-model-capped sub-batches: scipy's CSR SpMM accumulates each
  output column in the same index order as the single-vector matvec,
  so chunking is bit-for-bit result-invariant while bounding the live
  ``(n, B)`` write-set (the ``B = 16`` regression fix).
* ``power`` — :func:`repro.ppr.kernels.power_phase` gather/scatter on
  the raw (possibly slack) CSR rows; no packed-matrix rebuild after
  graph deltas, and the graceful fallback when scipy is absent.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.ppr.dispatch import RoutingDecision

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import (
    DynamicPPRAlgorithm,
    PPRParams,
    PPRVector,
    QueryStats,
    WalkIndexOwner,
    clip_unit,
)
from repro.ppr.kernels import power_phase
from repro.ppr.power_iteration import transition_matrix


class SpeedPPR(DynamicPPRAlgorithm):
    """Index-free SpeedPPR (PowerPush + online walks).

    Hyperparameters
    ---------------
    r_max:
        Residue-sum stopping threshold of the power-iteration phase,
        expressed per edge: sweeps stop once sum(residue) <= r_max * m.
    """

    name = "SpeedPPR"
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
        self._matrix_t: Any = None
        self._matrix_view: Any = None
        self.r_max = r_max if r_max is not None else self.default_r_max()
        if engine != "scalar":
            self.set_engine(engine)
        # every query of this class routes through the dispatcher's
        # scipy probe: run it (and scipy's import) now, at set-up, not
        # inside the first timed query
        from repro.ppr.dispatch import get_dispatcher

        get_dispatcher().available("spmm")

    def default_r_max(self) -> float:
        """Default that balances sweeps against walks: 1/sqrt(m W)."""
        view = self.view
        w = self._num_walks()
        m = max(view.m, 1)
        return clip_unit(1.0 / math.sqrt(m * w))

    def default_hyperparameters(self) -> dict[str, float]:
        return {"r_max": self.default_r_max()}

    def _num_walks(self) -> int:
        """SpeedPPR's W = 2 (2 eps/3 + 2) log(n) / (eps^2 delta), capped."""
        n = max(self.view.n, 2)
        params = self.params
        delta = params.resolved_delta(n)
        w = 2 * (2 * params.epsilon / 3 + 2) * math.log(n) / (
            params.epsilon**2 * delta
        )
        return max(1, min(int(math.ceil(w)), params.walk_cap))

    def _transition_t(self) -> Any:
        """Cached P^T for the current snapshot (scipy CSR)."""
        view = self.view
        if self._matrix_t is None or self._matrix_view is not view:
            try:
                self._matrix_t = transition_matrix(view).T.tocsr()
            except ImportError as exc:  # pragma: no cover - scipy-free
                raise RuntimeError(
                    "the spmm power backend needs scipy; the dispatcher "
                    "should have routed to the raw-row power backend"
                ) from exc
            self._matrix_view = view
        return self._matrix_t

    def _route_power(self, b: int) -> "RoutingDecision":
        """Routing decision for a power-phase call of batch size b.

        ``engine="auto"`` asks the dispatcher; the static engines are
        honored as overrides (``scalar`` = spmm family, ``frontier`` /
        ``batched`` = raw-row family for singles, spmm for batches as
        before) but still degrade to the raw-row backend when the
        scipy probe fails, and static batches still get the
        cost-model sub-batch cap — chunked SpMM is bit-for-bit equal
        to the unchunked product, so the cap is a pure perf fix.
        """
        from repro.ppr.dispatch import RoutingDecision, get_dispatcher

        dispatcher = get_dispatcher()
        if self.engine == "auto":
            return dispatcher.route_power(self.view, b)
        if self.engine == "scalar" or b > 1:
            if not dispatcher.available("spmm"):
                return RoutingDecision(
                    backend="power",
                    effective_batch=1,
                    reason="scipy probe failed: raw-row power sweeps",
                    fallback=True,
                )
            # the dispatcher applies the cost-model sub-batch cap
            return dispatcher.route_power(self.view, b)
        return RoutingDecision(
            backend="power",
            effective_batch=1,
            reason=f"static engine {self.engine}: raw-row power sweeps",
        )

    def _spmm_sweeps(
        self,
        source_indices: np.ndarray,
        alpha: float,
        stop_mass: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Power sweeps for one sub-batch through the scipy kernels.

        Returns row-major ``(B, n)`` reserves/residues.  PowerPush is
        mass-preserving, so every column's residue mass after k sweeps
        is exactly ``(1 - alpha)^k`` — all sources cross ``stop_mass``
        on the same sweep and one matrix product per sweep serves the
        whole sub-batch.
        """
        view = self.view
        matrix_t = self._transition_t()
        b = int(source_indices.size)
        sweeps = 0
        if b == 1:
            residue = np.zeros(view.n, dtype=np.float64)
            residue[source_indices[0]] = 1.0
            reserve = np.zeros(view.n, dtype=np.float64)
            while residue.sum() > stop_mass and sweeps < 200:
                reserve += alpha * residue
                residue = (1.0 - alpha) * (matrix_t @ residue)
                sweeps += 1
            return reserve[None, :], residue[None, :], sweeps
        residues = np.zeros((view.n, b), dtype=np.float64)
        residues[source_indices, np.arange(b)] = 1.0
        reserves = np.zeros((view.n, b), dtype=np.float64)
        while residues[:, 0].sum() > stop_mass and sweeps < 200:
            reserves += alpha * residues
            residues = (1.0 - alpha) * (matrix_t @ residues)
            sweeps += 1
        return (
            np.ascontiguousarray(reserves.T),
            np.ascontiguousarray(residues.T),
            sweeps,
        )

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        view = self.view
        stats = QueryStats()
        alpha = self.params.alpha
        stop_mass = min(self.r_max * max(view.m, 1), 0.999)
        decision = self._route_power(1)
        with self.timers.measure("Power Iteration"):
            if decision.backend == "spmm":
                reserves, residues, sweeps = self._spmm_sweeps(
                    np.array([view.to_index(source)], dtype=np.int64),
                    alpha,
                    stop_mass,
                )
                reserve, residue = reserves[0], residues[0]
            else:
                # raw-row backend: sweep the (possibly slack) CSR rows
                # directly — no packed scipy matrix to rebuild after
                # graph deltas, and the scipy-free fallback.
                residue = np.zeros(view.n, dtype=np.float64)
                residue[view.to_index(source)] = 1.0
                reserve = np.zeros(view.n, dtype=np.float64)
                reserve, residue, sweeps = power_phase(
                    view, residue, reserve, alpha, stop_mass
                )
            stats.extra["sweeps"] = sweeps
            stats.extra["backend"] = decision.backend
        self._walk_phase(view, reserve, residue, stats)
        self.last_query_stats = stats
        return PPRVector(reserve, view, source)

    def query_batch(self, sources: Sequence[int]) -> list[PPRVector]:
        """Same-snapshot batch through cost-model-capped SpMM sweeps.

        The batch runs in sub-batches of the dispatcher's effective
        batch size rather than all B columns at once: scipy's CSR SpMM
        accumulates each output column in the same index order as the
        single-vector matvec, so the split changes no bits while
        keeping the live ``(n, B)`` write-set cache-resident (the
        documented ``B = 16`` regression).  When the scipy probe fails
        (or an env override forces the raw-row backend) the batch
        degrades to per-source queries.
        """
        if self.engine not in ("batched", "auto") or len(sources) <= 1:
            return super().query_batch(sources)
        b_count = len(sources)
        decision = self._route_power(b_count)
        if decision.backend != "spmm":
            return super().query_batch(sources)
        view = self.view
        stats = QueryStats()
        alpha = self.params.alpha
        source_indices = np.array(
            [view.to_index(s) for s in sources], dtype=np.int64
        )
        stop_mass = min(self.r_max * max(view.m, 1), 0.999)
        with self.timers.measure("Power Iteration"):
            reserves_b = np.zeros((b_count, view.n), dtype=np.float64)
            residues_b = np.zeros((b_count, view.n), dtype=np.float64)
            sweeps = 0
            chunks = decision.chunks or (
                np.arange(b_count, dtype=np.int64),
            )
            for chunk in chunks:
                res, rem, sweeps = self._spmm_sweeps(
                    source_indices[chunk], alpha, stop_mass
                )
                reserves_b[chunk] = res
                residues_b[chunk] = rem
            stats.extra["sweeps"] = sweeps
            stats.extra["backend"] = decision.backend
            stats.extra["effective_batch"] = decision.effective_batch
        self._walk_phase(view, reserves_b, residues_b, stats)
        stats.extra["batch_size"] = b_count
        self.last_query_stats = stats
        return [
            PPRVector(reserves_b[b], view, source)
            for b, source in enumerate(sources)
        ]


class SpeedPPRPlus(WalkIndexOwner, SpeedPPR):
    """Index-based SpeedPPR+ — precomputed walks, regenerated per update."""

    name = "SpeedPPR+"


class SpeedPPRPlusIncremental(SpeedPPRPlus):
    """SpeedPPR+ with FIRM-style incremental walk-index maintenance."""

    name = "SpeedPPR+inc"
    index_maintenance = "incremental"
