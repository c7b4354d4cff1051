"""Quota core: cost models, calibration, optimization, Seed, system.

The paper's primary contribution.  Typical wiring:

    from repro.core import QuotaController, QuotaSystem, calibrated_cost_model
    from repro.ppr import Agenda

    alg = Agenda(graph)
    model = calibrated_cost_model(alg)             # Step 1 (taus)
    controller = QuotaController(model)            # Steps 2-3
    system = QuotaSystem(alg, controller, epsilon_r=0.5)
    system.configure_static(lambda_q=10, lambda_u=20)
    result = system.process(workload)
    print(result.mean_query_response_time())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.calibration import calibrate_taus, calibrated_cost_model
    from repro.core.cost_models import (
        COST_MODELS,
        AgendaCostModel,
        CacheAwareCostModel,
        CostModel,
        ForaCostModel,
        ForaPlusCostModel,
        ForaPlusIncrementalCostModel,
        ForaTopKCostModel,
        SpeedPPRCostModel,
        SpeedPPRPlusCostModel,
        SpeedPPRPlusIncrementalCostModel,
        TopPPRCostModel,
        cost_model_for,
    )
    from repro.core.optimizer import (
        AugmentedLagrangianOptimizer,
        ConstrainedProblem,
        OptimizationResult,
    )
    from repro.core.quota import STABLE, UNSTABLE, QuotaController, QuotaDecision
    from repro.core.seed import (
        PendingUpdate,
        SeedQueue,
        degree_adjustment_factor,
        source_excess,
    )
    from repro.core.system import QuotaSystem, RateEstimator

__all__ = [
    "COST_MODELS",
    "STABLE",
    "UNSTABLE",
    "AgendaCostModel",
    "AugmentedLagrangianOptimizer",
    "CacheAwareCostModel",
    "ConstrainedProblem",
    "CostModel",
    "ForaCostModel",
    "ForaPlusCostModel",
    "ForaPlusIncrementalCostModel",
    "ForaTopKCostModel",
    "OptimizationResult",
    "PendingUpdate",
    "QuotaController",
    "QuotaDecision",
    "QuotaSystem",
    "RateEstimator",
    "SeedQueue",
    "SpeedPPRCostModel",
    "SpeedPPRPlusCostModel",
    "SpeedPPRPlusIncrementalCostModel",
    "TopPPRCostModel",
    "calibrate_taus",
    "calibrated_cost_model",
    "cost_model_for",
    "degree_adjustment_factor",
    "source_excess",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "calibration": ["calibrate_taus", "calibrated_cost_model"],
        "cost_models": [
            "COST_MODELS",
            "AgendaCostModel",
            "CacheAwareCostModel",
            "CostModel",
            "ForaCostModel",
            "ForaPlusCostModel",
            "ForaPlusIncrementalCostModel",
            "ForaTopKCostModel",
            "SpeedPPRCostModel",
            "SpeedPPRPlusCostModel",
            "SpeedPPRPlusIncrementalCostModel",
            "TopPPRCostModel",
            "cost_model_for",
        ],
        "optimizer": [
            "AugmentedLagrangianOptimizer",
            "ConstrainedProblem",
            "OptimizationResult",
        ],
        "quota": ["STABLE", "UNSTABLE", "QuotaController", "QuotaDecision"],
        "seed": [
            "PendingUpdate",
            "SeedQueue",
            "degree_adjustment_factor",
            "source_excess",
        ],
        "system": ["QuotaSystem", "RateEstimator"],
    },
)
