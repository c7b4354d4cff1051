"""Figure 7 reproduction: Quota on the top-k algorithms.

FORA-TopK and TopPPR on the LJ-like dataset (quick scope: DBLP-like),
default vs Quota-configured, across the update/query ratio sweep.

Expected shape (paper §VIII-G): up to ~50% (FORA-TopK) and ~33%
(TopPPR) response-time improvement — the default settings of both
methods are not QoS-optimal.
"""

from __future__ import annotations

from benchmarks.common import (
    RATIO_LABELS,
    SystemSpec,
    dataset_workload,
    ratio_sweep,
    run_system,
    scoped,
)
from repro.evaluation.metrics import improvement_percent
from repro.evaluation.report import banner, format_series

ALGORITHMS = ("FORA-TopK", "TopPPR")


SEEDS = (0, 1)  # average replays; near-saturation cells jitter


def run_algorithm(name: str, dataset: str):
    ratios = ratio_sweep()
    series = {name: [], f"Quota-{name}": []}
    for ratio in ratios:
        base_sum = quota_sum = 0.0
        for seed in SEEDS:
            spec, graph, workload, lq, lu = dataset_workload(
                dataset, ratio, seed=seed
            )
            base = run_system(
                SystemSpec(name, name), spec, graph, workload, lq, lu,
                seed=seed,
            )
            quota = run_system(
                SystemSpec(f"Quota-{name}", name, use_quota=True),
                spec, graph, workload, lq, lu, seed=seed,
            )
            base_sum += base.mean_query_response_time() * 1e3
            quota_sum += quota.mean_query_response_time() * 1e3
        series[name].append(base_sum / len(SEEDS))
        series[f"Quota-{name}"].append(quota_sum / len(SEEDS))
    return [RATIO_LABELS[r] for r in ratios], series


def test_fig7_topk(benchmark, report):
    report(banner("Figure 7: Quota on FORA-TopK and TopPPR"))
    dataset = scoped("dblp", "lj")

    def experiment():
        return {name: run_algorithm(name, dataset) for name in ALGORITHMS}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for name, (labels, series) in results.items():
        report(
            format_series(
                "lambda_u/lambda_q",
                labels,
                series,
                title=f"{name} on {dataset} — response time (ms)",
                float_format="{:.2f}",
            )
        )
        improvements = [
            improvement_percent(b, q)
            for b, q in zip(series[name], series[f"Quota-{name}"])
        ]
        report(f"-> best improvement {max(improvements):.1f}%\n")
