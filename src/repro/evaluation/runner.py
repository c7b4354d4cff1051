"""Experiment runner: one (dataset, algorithm, workload, config) cell.

Every benchmark in ``benchmarks/`` funnels through
:func:`run_experiment`, which wires up the dataset graph, the base
algorithm, optional Quota configuration (static or online), optional
Seed reordering, replays the workload on the virtual clock, and — when
asked — measures true PPR error on a sample of the queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController, QuotaDecision
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import DatasetSpec
from repro.evaluation.metrics import AccuracySummary, ResponseTimeSummary
from repro.graph.digraph import DynamicGraph
from repro.ppr.registry import build_algorithm
from repro.queueing.simulator import SimulationResult
from repro.queueing.workload import UPDATE, Workload, generate_workload


@dataclass(slots=True)
class ExperimentConfig:
    """Knobs of one experiment cell."""

    algorithm: str = "Agenda"
    use_quota: bool = False
    quota_without_constants: bool = False  # the Quota-c ablation
    epsilon_r: float = 0.0
    reoptimize_every: float | None = None
    lambda_q: float = 10.0
    lambda_u: float = 10.0
    window: float = 5.0
    seed: int = 0
    scale: float = 1.0
    measure_accuracy: bool = False
    accuracy_sample: int = 10
    calibration_queries: int = 4
    cv_q: float = 1.0
    cv_u: float = 1.0


@dataclass(slots=True)
class ExperimentOutcome:
    """Everything a bench needs to print its table row."""

    config: ExperimentConfig
    result: SimulationResult
    response: ResponseTimeSummary
    decision: QuotaDecision | None
    subprocess_totals: dict[str, float]
    accuracy: list[AccuracySummary] = field(default_factory=list)

    @property
    def mean_response_time(self) -> float:
        return self.response.mean

    def mean_accuracy_error(self) -> float:
        if not self.accuracy:
            return 0.0
        return float(
            np.mean([a.max_absolute_error for a in self.accuracy])
        )


def run_experiment(
    spec: DatasetSpec,
    config: ExperimentConfig,
    workload: Workload | None = None,
    graph: DynamicGraph | None = None,
) -> ExperimentOutcome:
    """Run one experiment cell end to end.

    Parameters
    ----------
    spec:
        Dataset recipe (graph shape + default rates).
    config:
        Cell configuration; ``config.lambda_q/lambda_u/window`` define
        the workload unless an explicit ``workload`` is given.
    workload, graph:
        Optional pre-built workload/graph so multiple configurations
        can replay the *same* request sequence (paired comparison, as
        in the paper's figures).
    """
    if graph is None:
        graph = spec.build(seed=config.seed, scale=config.scale)
    else:
        graph = graph.copy()
    if workload is None:
        workload = generate_workload(
            graph,
            config.lambda_q,
            config.lambda_u,
            config.window,
            rng=config.seed + 1,
        )

    algorithm = build_algorithm(
        config.algorithm, graph, spec.walk_cap, seed=config.seed
    )

    controller = None
    if config.use_quota:
        model = calibrated_cost_model(
            algorithm,
            num_queries=config.calibration_queries,
            rng=config.seed + 2,
        )
        if config.quota_without_constants:
            model = model.without_constants()
        controller = QuotaController(
            model,
            cv_q=config.cv_q,
            cv_u=config.cv_u,
            extra_starts=[algorithm.get_hyperparameters()],
        )

    system = QuotaSystem(
        algorithm,
        controller,
        epsilon_r=config.epsilon_r,
        reoptimize_every=config.reoptimize_every,
    )
    decision = None
    if config.use_quota and config.reoptimize_every is None:
        decision = system.configure_static(config.lambda_q, config.lambda_u)

    accuracy: list[AccuracySummary] = []
    callback = None
    if config.measure_accuracy:
        shadow = graph.copy()
        for request in workload:
            if request.kind == UPDATE:
                request.update.apply(shadow)
        sample_every = max(workload.num_queries // config.accuracy_sample, 1)
        counter = {"n": 0}

        def callback(request, estimate, pending):
            counter["n"] += 1
            if counter["n"] % sample_every == 0:
                accuracy.append(
                    AccuracySummary.compare(
                        estimate, shadow, algorithm.params.alpha
                    )
                )

    result = system.process(workload, query_callback=callback)
    if decision is None and system.decisions:
        decision = system.decisions[-1]
    return ExperimentOutcome(
        config=config,
        result=result,
        response=ResponseTimeSummary.from_result(result),
        decision=decision,
        subprocess_totals=algorithm.timers.snapshot(),
        accuracy=accuracy,
    )
