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

The power phase has two backends (``engine`` picks, see
:meth:`SpeedPPR._power_backend`):

* ``scipy`` — scipy-sparse CSR matvec sweeps on the packed transition
  matrix (optional dependency, probed once per process).
* ``power`` — :func:`repro.ppr.kernels.power_phase` gather/scatter on
  the raw (possibly slack) CSR rows; no packed-matrix rebuild after
  graph deltas, and the only backend when scipy is absent.
"""

from __future__ import annotations

import math
from typing import Any

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
from repro.ppr.kernels import power_phase, scipy_available
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
    supported_engines = ("scalar", "frontier")

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
        # every query of this class asks the scipy probe: run it (and
        # scipy's import) now, at set-up, not inside the first timed
        # query
        scipy_available()

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
                    "the scipy power backend needs scipy; the probe "
                    "should have selected the raw-row power backend"
                ) from exc
            self._matrix_view = view
        return self._matrix_t

    def _power_backend(self) -> str:
        """Power-phase kernel of this query: ``"scipy"`` or ``"power"``.

        ``engine="frontier"`` names the raw-row sweeps; ``scalar`` and
        ``auto`` the scipy matvec, degrading to the raw rows when the
        scipy probe fails.
        """
        if self.engine == "frontier" or not scipy_available():
            return "power"
        return "scipy"

    # ------------------------------------------------------------------
    def query(self, source: int) -> PPRVector:
        view = self.view
        stats = QueryStats()
        alpha = self.params.alpha
        stop_mass = min(self.r_max * max(view.m, 1), 0.999)
        backend = self._power_backend()
        with self.timers.measure("Power Iteration"):
            residue = np.zeros(view.n, dtype=np.float64)
            residue[view.to_index(source)] = 1.0
            reserve = np.zeros(view.n, dtype=np.float64)
            if backend == "scipy":
                matrix_t = self._transition_t()
                sweeps = 0
                while residue.sum() > stop_mass and sweeps < 200:
                    reserve += alpha * residue
                    residue = (1.0 - alpha) * (matrix_t @ residue)
                    sweeps += 1
            else:
                # raw-row backend: sweep the (possibly slack) CSR rows
                # directly — no packed scipy matrix to rebuild after
                # graph deltas, and the scipy-free fallback.
                reserve, residue, sweeps = power_phase(
                    view, residue, reserve, alpha, stop_mass
                )
            stats.extra["sweeps"] = sweeps
            stats.extra["backend"] = backend
        self._walk_phase(view, reserve, residue, stats)
        self.last_query_stats = stats
        return PPRVector(reserve, view, source)


class SpeedPPRPlus(WalkIndexOwner, SpeedPPR):
    """Index-based SpeedPPR+ — precomputed walks, regenerated per update."""

    name = "SpeedPPR+"


class SpeedPPRPlusIncremental(SpeedPPRPlus):
    """SpeedPPR+ with FIRM-style incremental walk-index maintenance."""

    name = "SpeedPPR+inc"
    index_maintenance = "incremental"
