"""Cost models: the Table I closed forms with explicit hidden constants.

Step 1 of Quota (Section IV): express the mean query time t_q(beta) and
mean update time t_u(beta) of a base algorithm as a weighted sum of
per-sub-process *complexity factors*, with one measured constant tau per
sub-process:

    t(beta) = sum_i  tau_i * factor_i(beta)

The factor functions are the complexity expressions of Table I / Table
VI; the taus are gauged by :mod:`repro.core.calibration` from live
sub-process timings.  Keeping factors and constants separate is what
lets the *Quota-c* ablation (Figure 4) drop the constants (tau_i = 1)
while reusing the same machinery.

Note on TopPPR: Table I writes its walk term as r_max (r^b_max)^2 using
the original paper's rho-parametrization; this repository's TopPPR
implementation budgets walks FORA-style and reverse-pushes a fixed
candidate set, so its factors are 1/r_max, r_max, and 1/r^b_max.  The
calibrated constants absorb the difference; the tunable trade-off
(forward work vs walk work vs backward work) is identical.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Mapping

import numpy as np
from numpy.typing import ArrayLike

from repro.ppr.base import DynamicPPRAlgorithm


class CostModel:
    """Base class: per-sub-process factors weighted by calibrated taus.

    Parameters
    ----------
    n, m:
        Node and edge counts of the target graph (complexity inputs).
    taus:
        Mapping sub-process name -> constant.  Missing names default to
        1.0 (the *Quota-c* / uncalibrated setting).
    default_beta:
        The algorithm's paper-default hyperparameters, which Quota
        always tries as one starting point (so by its own model it
        never picks worse); :func:`cost_model_for` records them.
    """

    #: algorithm this model describes (matches DynamicPPRAlgorithm.name)
    algorithm_name: str = "base"
    #: hyperparameter names, in beta-vector order
    param_names: tuple[str, ...] = ()
    #: sub-processes contributing to the query cost
    query_subprocesses: tuple[str, ...] = ()
    #: sub-processes contributing to the update cost
    update_subprocesses: tuple[str, ...] = ()

    def __init__(
        self,
        n: int,
        m: int,
        taus: Mapping[str, float] | None = None,
        default_beta: Mapping[str, float] | None = None,
    ) -> None:
        if n < 1 or m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        self.n = n
        self.m = max(m, 1)
        self.taus = dict(taus or {})
        self.default_beta = dict(default_beta or {})

    # -- factors (overridden per algorithm) ------------------------------
    def query_factors(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> dict[str, float]:
        """Complexity factor per query sub-process at ``beta``."""
        raise NotImplementedError

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        """Complexity factor per update sub-process at ``beta``."""
        raise NotImplementedError

    # -- evaluation -------------------------------------------------------
    def tau(self, name: str) -> float:
        return self.taus.get(name, 1.0)

    def query_time(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> float:
        """Mean query time t_q(beta) under the given arrival rates."""
        factors = self.query_factors(beta, lambda_q, lambda_u)
        return sum(self.tau(name) * f for name, f in factors.items())

    def update_time(self, beta: Mapping[str, float]) -> float:
        """Mean update time t_u(beta)."""
        factors = self.update_factors(beta)
        return sum(self.tau(name) * f for name, f in factors.items())

    # -- helpers -----------------------------------------------------------
    def beta_dict(self, values: ArrayLike) -> dict[str, float]:
        """Convert a beta vector (param_names order) to a mapping."""
        vector = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if vector.size != len(self.param_names):
            raise ValueError(
                f"expected {len(self.param_names)} hyperparameters "
                f"{self.param_names}, got {vector.size}"
            )
        return dict(zip(self.param_names, vector.tolist()))

    def without_constants(self) -> "CostModel":
        """The *Quota-c* ablation: same factors, all constants = 1."""
        return type(self)(self.n, self.m, None, self.default_beta)

    def with_taus(self, taus: Mapping[str, float]) -> "CostModel":
        """A copy carrying freshly calibrated constants."""
        return type(self)(self.n, self.m, taus, self.default_beta)

    def __repr__(self) -> str:
        taus = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.taus.items()))
        return f"{type(self).__name__}(n={self.n}, m={self.m}, taus=[{taus}])"


class AgendaCostModel(CostModel):
    """Table I, Agenda row (derivation in the paper's appendix B)."""

    algorithm_name = "Agenda"
    param_names = ("r_max", "r_max_b")
    query_subprocesses = ("Forward Push", "Lazy Index Update", "Random Walk")
    update_subprocesses = (
        "Reverse Push",
        "Index Inaccuracy Update",
        "Graph Update",
    )

    def query_factors(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> dict[str, float]:
        r = beta["r_max"]
        r_b = beta["r_max_b"]
        ratio = lambda_u / lambda_q if lambda_q > 0 else 0.0
        return {
            "Forward Push": 1.0 / r,
            "Lazy Index Update": ratio * r * (self.n * r_b + 1.0),
            "Random Walk": r,
        }

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        # Graph Update is the constant adjacency/snapshot maintenance
        # (folded into tau_5 in the paper; kept separate here because
        # this implementation times it separately).
        return {
            "Reverse Push": 1.0 / beta["r_max_b"],
            "Index Inaccuracy Update": 1.0,
            "Graph Update": 1.0,
        }


class ForaCostModel(CostModel):
    """Table I, FORA row: index-free, O(1) updates."""

    algorithm_name = "FORA"
    param_names = ("r_max",)
    query_subprocesses = ("Forward Push", "Random Walk")
    update_subprocesses = ("Graph Update",)

    def query_factors(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> dict[str, float]:
        r = beta["r_max"]
        return {"Forward Push": 1.0 / r, "Random Walk": r}

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return {"Graph Update": 1.0}


class ForaPlusCostModel(ForaCostModel):
    """Table I, FORA+ row: update regenerates the O(m r_max K) index."""

    algorithm_name = "FORA+"
    update_subprocesses = ("Index Build",)

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return {"Index Build": beta["r_max"]}


class _IncrementalIndexUpdate(CostModel):
    """Update row shared by the "+inc" methods (Table I, new row).

    The update still scales with the per-node walk budget (r_max K
    walks hang off each endpoint of the mutated edge, and the affected
    set grows with it), so the factor keeps the ``r_max`` shape of the
    rebuild row — but the calibrated tau absorbs the O(affected / m)
    advantage of resampling only the walks the edge actually carries,
    which is what lets the Quota optimizer pick these methods under
    update-heavy traffic.
    """

    update_subprocesses = ("Graph Update", "Index Update")

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return {"Graph Update": 1.0, "Index Update": beta["r_max"]}


class ForaPlusIncrementalCostModel(_IncrementalIndexUpdate, ForaPlusCostModel):
    """FORA+ with incremental index maintenance."""

    algorithm_name = "FORA+inc"


class ForaTopKCostModel(ForaCostModel):
    """Table I, FORA-TopK row: FORA-shaped costs, index-free updates."""

    algorithm_name = "FORA-TopK"


class SpeedPPRCostModel(CostModel):
    """Table I, SpeedPPR row.

    The paper's log(1/(r_max m)) sweep count is negative once
    r_max m > 1; we use the smooth surrogate log(1 + 1/(r_max m)),
    which matches it asymptotically for small r_max and decays to zero
    (no sweeps needed) instead of going negative.
    """

    algorithm_name = "SpeedPPR"
    param_names = ("r_max",)
    query_subprocesses = ("Power Iteration", "Random Walk")
    update_subprocesses = ("Graph Update",)

    def query_factors(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> dict[str, float]:
        r = beta["r_max"]
        return {
            "Power Iteration": math.log(1.0 + 1.0 / (r * self.m)),
            "Random Walk": r,
        }

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return {"Graph Update": 1.0}


class SpeedPPRPlusCostModel(SpeedPPRCostModel):
    """Table I, SpeedPPR+ row: index rebuild per update."""

    algorithm_name = "SpeedPPR+"
    update_subprocesses = ("Index Build",)

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return {"Index Build": beta["r_max"]}


class SpeedPPRPlusIncrementalCostModel(
    _IncrementalIndexUpdate, SpeedPPRPlusCostModel
):
    """SpeedPPR+ with incremental index maintenance."""

    algorithm_name = "SpeedPPR+inc"


class TopPPRCostModel(CostModel):
    """Table I, TopPPR row (factors per this repo's implementation —
    see module docstring)."""

    algorithm_name = "TopPPR"
    param_names = ("r_max", "r_max_b")
    query_subprocesses = ("Forward Push", "Random Walk", "Reverse Push")
    update_subprocesses = ("Graph Update",)

    def query_factors(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> dict[str, float]:
        return {
            "Forward Push": 1.0 / beta["r_max"],
            "Random Walk": beta["r_max"],
            "Reverse Push": 1.0 / beta["r_max_b"],
        }

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return {"Graph Update": 1.0}


class CacheAwareCostModel(CostModel):
    """Effective-service-time wrapper over a base cost model.

    With a result cache in front of the algorithm, the mean query
    service time the queue actually experiences is the hit/miss
    mixture

        t_q_eff(beta) = h * t_hit + (1 - h) * t_q(beta)

    where ``h`` is the cache hit fraction and ``t_hit`` the (near
    constant) lookup cost.  Wrapping the base model with this class
    makes both the M/G/1 response model (Eq. 2) and the optimizer see
    the cache: utilization and queueing delay shrink with ``h``, so
    Quota can afford a *more* accurate beta at the same response-time
    target.

    ``h`` is supplied either as a static ``hit_fraction`` (for
    what-if analysis) or live via ``hit_fraction_fn`` — typically
    ``PPRCache.hit_rate``, the same quantity the ``cache.hit_rate``
    gauge tracks online.  The fraction is re-read on every evaluation,
    so periodic re-optimization naturally tracks cache warm-up.

    Everything but :meth:`query_time` — parameter names, factors,
    update cost, calibration plumbing — is the wrapped model's, so the
    wrapper drops into :class:`~repro.core.quota.QuotaController`
    unchanged.
    """

    def __init__(
        self,
        inner: CostModel,
        hit_time_s: float = 0.0,
        hit_fraction_fn: Callable[[], float] | None = None,
        hit_fraction: float = 0.0,
    ) -> None:
        if hit_time_s < 0.0:
            raise ValueError(f"hit_time_s must be >= 0, got {hit_time_s}")
        if not 0.0 <= hit_fraction <= 1.0:
            raise ValueError(
                f"hit_fraction must be in [0, 1], got {hit_fraction}"
            )
        self._wrap(inner)
        self.hit_time_s = hit_time_s
        self._hit_fraction_fn = hit_fraction_fn
        self._static_hit_fraction = hit_fraction

    def _wrap(self, inner: CostModel) -> None:
        super().__init__(inner.n, inner.m, inner.taus, inner.default_beta)
        self.inner = inner
        self.algorithm_name = inner.algorithm_name
        self.param_names = inner.param_names
        self.query_subprocesses = inner.query_subprocesses
        self.update_subprocesses = inner.update_subprocesses

    def _rewrap(self, inner: CostModel) -> "CacheAwareCostModel":
        """This wrapper's own settings around another inner model."""
        clone = copy.copy(self)
        clone._wrap(inner)
        return clone

    def query_factors(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> dict[str, float]:
        return self.inner.query_factors(beta, lambda_q, lambda_u)

    def update_factors(self, beta: Mapping[str, float]) -> dict[str, float]:
        return self.inner.update_factors(beta)

    def update_time(self, beta: Mapping[str, float]) -> float:
        return self.inner.update_time(beta)

    def without_constants(self) -> "CacheAwareCostModel":
        return self._rewrap(self.inner.without_constants())

    def with_taus(self, taus: Mapping[str, float]) -> "CacheAwareCostModel":
        return self._rewrap(self.inner.with_taus(taus))

    def hit_fraction(self) -> float:
        """Current hit fraction h, clamped into [0, 1]."""
        if self._hit_fraction_fn is not None:
            h = float(self._hit_fraction_fn())
        else:
            h = self._static_hit_fraction
        if not 0.0 <= h:  # guards NaN as well as negatives
            return 0.0
        return min(h, 1.0)

    def query_time(
        self, beta: Mapping[str, float], lambda_q: float, lambda_u: float
    ) -> float:
        h = self.hit_fraction()
        miss_time_s = self.inner.query_time(beta, lambda_q, lambda_u)
        return h * self.hit_time_s + (1.0 - h) * miss_time_s

    def __repr__(self) -> str:
        return (
            f"CacheAwareCostModel({self.inner!r}, "
            f"hit_time_s={self.hit_time_s:.3g}, "
            f"h={self.hit_fraction():.3f})"
        )


COST_MODELS: dict[str, type[CostModel]] = {
    "Agenda": AgendaCostModel,
    "FORA": ForaCostModel,
    "FORA+": ForaPlusCostModel,
    "FORA+inc": ForaPlusIncrementalCostModel,
    "FORA-TopK": ForaTopKCostModel,
    "SpeedPPR": SpeedPPRCostModel,
    "SpeedPPR+": SpeedPPRPlusCostModel,
    "SpeedPPR+inc": SpeedPPRPlusIncrementalCostModel,
    "TopPPR": TopPPRCostModel,
}


def cost_model_for(
    algorithm: DynamicPPRAlgorithm, taus: Mapping[str, float] | None = None
) -> CostModel:
    """Instantiate the matching cost model for a live algorithm,
    recording its paper-default hyperparameters as ``default_beta``."""
    try:
        model_cls = COST_MODELS[algorithm.name]
    except KeyError:
        raise ValueError(
            f"no cost model registered for algorithm {algorithm.name!r}"
        ) from None
    view = algorithm.view
    return model_cls(
        view.n, view.m, taus, algorithm.default_hyperparameters()
    )
