"""Figure 11 reproduction: update rate evolving through the Fig. 3 sweep.

Appendix-F: instead of a fixed lambda_u, the ratio lambda_u/lambda_q
walks through {1/8 .. 8} over the window (one step per phase, phase
lengths exponential).  Quota re-optimizes online; Agenda keeps its
default.  Expected shape: Quota stays below Agenda as the mix shifts,
especially once the workload turns update-heavy.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import FULL_RATIOS, scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.rates import RateDriftDetector
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_series
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY
from repro.queueing.workload import (
    generate_segmented_workload,
    WorkloadSegment,
)

TRANCHE = 10.0


def run_dataset(name: str, phase_length: float):
    spec = get_dataset(name)
    graph = spec.build(seed=2)
    lq = spec.lambda_q
    segments = [
        WorkloadSegment(phase_length, lq, lq * ratio)
        for ratio in FULL_RATIOS
    ]
    workload = generate_segmented_workload(graph, segments, rng=6)
    total = sum(s.duration for s in segments)

    series = {}
    reconfigurations = {}
    # three policies: no re-optimization (Agenda), period-based Quota,
    # and event-driven Quota (a RateDriftDetector fires reconfiguration
    # only when the observed mix leaves the configured one)
    for label in ("Agenda", "Quota", "Quota+drift"):
        algorithm = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
        controller = None
        reopt = None
        detector = None
        if label != "Agenda":
            controller = QuotaController(
                calibrated_cost_model(algorithm, num_queries=4, rng=7),
                extra_starts=[algorithm.get_hyperparameters()],
            )
        if label == "Quota":
            reopt = max(phase_length / 10.0, 0.5)
        elif label == "Quota+drift":
            detector = RateDriftDetector(
                configured_q=lq,
                configured_u=lq * FULL_RATIOS[0],
                window=max(phase_length / 2.0, 1.0),
                threshold=0.5,
            )
        system = QuotaSystem(
            algorithm,
            controller,
            reoptimize_every=reopt,
            drift_detector=detector,
        )
        result = system.process(workload)
        reconfigurations[label] = len(system.decisions)
        per_phase = []
        for i in range(len(FULL_RATIOS)):
            lo, hi = i * phase_length, (i + 1) * phase_length
            times = [
                c.response_time
                for c in result.completed
                if c.kind == QUERY and lo <= c.arrival < hi
            ]
            per_phase.append(float(np.mean(times)) * 1e3 if times else 0.0)
        series[label] = per_phase
    return series, total, reconfigurations


def test_fig11_evolving_rates(benchmark, report):
    report(banner("Figure 11: evolving update rates (ratio walks 1/8 -> 8)"))
    names = scoped(("webs",), ("webs", "dblp", "pokec", "lj"))
    phase_length = scoped(2.0, 10.0)

    def experiment():
        return {n: run_dataset(n, phase_length) for n in names}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    from benchmarks.common import RATIO_LABELS

    for name, (series, total, reconfigurations) in results.items():
        report(
            format_series(
                "phase ratio",
                [RATIO_LABELS[r] for r in FULL_RATIOS],
                series,
                title=f"{name} — response time (ms) per ratio phase",
                float_format="{:.2f}",
            )
        )
        report(
            f"-> means: Agenda {np.mean(series['Agenda']):.2f} ms, "
            f"Quota {np.mean(series['Quota']):.2f} ms, "
            f"Quota+drift {np.mean(series['Quota+drift']):.2f} ms\n"
        )
        report(
            f"-> reconfigurations: period-based "
            f"{reconfigurations['Quota']}, drift-triggered "
            f"{reconfigurations['Quota+drift']}\n"
        )
