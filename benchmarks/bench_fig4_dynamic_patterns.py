"""Figure 4 reproduction: evolving workloads + the Quota-c ablation.

Five dynamic rate patterns on the DBLP-like dataset; response time is
tracked per 10-second tranche for Agenda (default), Quota (online
re-optimization every 1 s), and Quota-c (same loop but the cost model
ignores the hidden constants).  Empirical absolute PPR error is sampled
alongside to confirm tuning does not degrade accuracy.

Expected shape: Quota tracks the drifting rates and stays below Agenda;
Quota-c picks inferior configurations; all three keep comparable,
small, empirical error.
"""

from __future__ import annotations

from benchmarks.common import (
    ErrorSampler,
    SystemSpec,
    final_graph,
    record_verdict,
    run_system,
    scoped,
    tranche_labels,
    tranche_means,
)
from repro.core.rates import RateDriftDetector
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_series
from repro.queueing.workload import (
    dynamic_pattern_segments,
    generate_segmented_workload,
)

PATTERNS = (
    "query-inclined",
    "balanced",
    "update-inclined",
    "update-declined",
    "query-declined",
)
TRANCHE = 10.0
VARIANTS = (
    SystemSpec("Agenda", "Agenda"),
    SystemSpec("Quota", "Agenda", use_quota=True),
    SystemSpec("Quota-c", "Agenda", use_quota=True, without_constants=True),
)


def run_pattern(pattern: str, total_time: float, seed: int = 0):
    spec = get_dataset("dblp")
    graph = spec.build(seed=seed)
    # The paper's absolute rates (10->30 queries/s vs ~50 ms C++ Agenda
    # queries on DBLP) put the queue under real contention; re-anchor
    # to this substrate's ~2.5 ms queries the same way (DESIGN.md §3).
    base = spec.lambda_q
    segments = dynamic_pattern_segments(
        pattern, total_time, rng=seed,
        q_range=(2.0 * base, 8.0 * base),
        u_range=(1.0 * base, 4.0 * base),
        q_fixed=1.0 * base,
        u_fixed=1.0 * base,
    )
    workload = generate_segmented_workload(graph, segments, rng=seed + 1)
    truth = final_graph(graph, workload)

    series: dict[str, list[float]] = {}
    errors: dict[str, float] = {}
    for system in VARIANTS:
        sampler = ErrorSampler(truth, every=25)
        drift = RateDriftDetector.periodic(1.0) if system.use_quota else None
        cell = run_system(
            system, spec, graph, workload, seed=seed, drift=drift,
            calibration_rng=seed + 2, query_callback=sampler,
        )
        series[system.label] = tranche_means(cell.result, total_time, TRANCHE)
        errors[system.label] = sampler.mean()
    return series, errors


def test_fig4_dynamic_patterns(benchmark, report):
    report(banner("Figure 4: dynamic workloads (response time per tranche)"))
    total_time = scoped(20.0, 60.0)
    patterns = scoped(PATTERNS[:3], PATTERNS)

    def experiment():
        return {p: run_pattern(p, total_time) for p in patterns}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for pattern, (series, errors) in results.items():
        report(
            format_series(
                "window",
                tranche_labels(total_time, TRANCHE),
                series,
                title=f"pattern: {pattern} — response time (ms)",
                float_format="{:.2f}",
            )
        )
        report(
            "empirical max-abs error: "
            + ", ".join(f"{k}={v:.4f}" for k, v in errors.items())
            + "\n"
        )
    record_verdict(
        "fig4_dynamic_patterns",
        {
            p: {"tranche_ms": series, "max_abs_error": errors}
            for p, (series, errors) in results.items()
        },
    )
