"""Figure 11 reproduction: update rate evolving through the Fig. 3 sweep.

Appendix-F: instead of a fixed lambda_u, the ratio lambda_u/lambda_q
walks through {1/8 .. 8} over the window (one step per phase, phase
lengths exponential).  Quota re-optimizes online; Agenda keeps its
default.  Expected shape: Quota stays below Agenda as the mix shifts,
especially once the workload turns update-heavy.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import (
    FULL_RATIOS,
    RATIO_LABELS,
    SystemSpec,
    record_verdict,
    run_system,
    scoped,
    tranche_means,
)
from repro.core.rates import RateDriftDetector
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_series
from repro.queueing.workload import (
    generate_segmented_workload,
    WorkloadSegment,
)


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
    # three policies: no re-optimization (Agenda), and Quota behind two
    # RateDriftDetector configurations: the paper's fixed period, and
    # event-driven (reconfigure only when the observed mix leaves the
    # configured one)
    policies = {
        "Agenda": None,
        "Quota": RateDriftDetector.periodic(max(phase_length / 10.0, 0.5)),
        "Quota+drift": RateDriftDetector(
            configured_q=lq,
            configured_u=lq * FULL_RATIOS[0],
            window=max(phase_length / 2.0, 1.0),
            threshold=0.5,
        ),
    }
    series = {}
    reconfigurations = {}
    for label, drift in policies.items():
        cell = run_system(
            SystemSpec(label, "Agenda", use_quota=drift is not None),
            spec, graph, workload, seed=0, drift=drift, calibration_rng=7,
        )
        reconfigurations[label] = len(cell.system.decisions)
        series[label] = tranche_means(cell.result, total, phase_length)
    return series, reconfigurations


def test_fig11_evolving_rates(benchmark, report):
    report(banner("Figure 11: evolving update rates (ratio walks 1/8 -> 8)"))
    names = scoped(("webs",), ("webs", "dblp", "pokec", "lj"))
    phase_length = scoped(2.0, 10.0)

    def experiment():
        return {n: run_dataset(n, phase_length) for n in names}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    verdict = {}
    for name, (series, reconfigurations) in results.items():
        report(
            format_series(
                "phase ratio",
                [RATIO_LABELS[r] for r in FULL_RATIOS],
                series,
                title=f"{name} — response time (ms) per ratio phase",
                float_format="{:.2f}",
            )
        )
        means = {k: float(np.mean(v)) for k, v in series.items()}
        report(
            f"-> means: Agenda {means['Agenda']:.2f} ms, "
            f"Quota {means['Quota']:.2f} ms, "
            f"Quota+drift {means['Quota+drift']:.2f} ms\n"
        )
        report(
            f"-> reconfigurations: period-based "
            f"{reconfigurations['Quota']}, drift-triggered "
            f"{reconfigurations['Quota+drift']}\n"
        )
        verdict[name] = dict(mean_ms=means, reconfigurations=reconfigurations)
        # the one bench that drives both trigger configurations
        assert reconfigurations["Agenda"] == 0, name
        assert reconfigurations["Quota"] > 0, name
        assert reconfigurations["Quota+drift"] > 0, name
    record_verdict("fig11_evolving_rates", verdict)
