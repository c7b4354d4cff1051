"""Figure 5 reproduction: Quota generality on FORA(+) and SpeedPPR(+).

On the DBLP-like dataset, sweep the update/query ratio and compare each
of the four Push+Walk algorithms at its paper-default hyperparameters
against its Quota-configured counterpart.

Expected shape (paper §VIII-F): every pairing improves — around 25% for
index-free FORA (pure query-time tuning), up to ~40% for FORA+ whose
default collapses under update-heavy mixes, and up to ~27% / ~34% for
SpeedPPR / SpeedPPR+.
"""

from __future__ import annotations

from benchmarks.common import (
    RATIO_LABELS,
    SystemSpec,
    dataset_workload,
    ratio_sweep,
    run_system,
)
from repro.evaluation.metrics import improvement_percent
from repro.evaluation.report import banner, format_series

ALGORITHMS = ("FORA", "FORA+", "SpeedPPR", "SpeedPPR+")


SEEDS = (0, 1)  # average replays; near-saturation cells jitter


def run_algorithm(name: str):
    ratios = ratio_sweep()
    default_spec = SystemSpec(name, name)
    quota_spec = SystemSpec(f"Quota-{name}", name, use_quota=True)
    series = {name: [], f"Quota-{name}": []}
    for ratio in ratios:
        base_sum = quota_sum = 0.0
        for seed in SEEDS:
            spec, graph, workload, lq, lu = dataset_workload(
                "dblp", ratio, seed=seed
            )
            base = run_system(
                default_spec, spec, graph, workload, lq, lu, seed=seed
            )
            quota = run_system(
                quota_spec, spec, graph, workload, lq, lu, seed=seed
            )
            base_sum += base.mean_query_response_time() * 1e3
            quota_sum += quota.mean_query_response_time() * 1e3
        series[name].append(base_sum / len(SEEDS))
        series[f"Quota-{name}"].append(quota_sum / len(SEEDS))
    labels = [RATIO_LABELS[r] for r in ratios]
    return labels, series


def test_fig5_fora_speedppr(benchmark, report):
    report(banner("Figure 5: Quota on FORA / FORA+ / SpeedPPR / SpeedPPR+"))

    def experiment():
        return {name: run_algorithm(name) for name in ALGORITHMS}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for name, (labels, series) in results.items():
        report(
            format_series(
                "lambda_u/lambda_q",
                labels,
                series,
                title=f"{name} on dblp — response time (ms)",
                float_format="{:.2f}",
            )
        )
        base = series[name]
        quota = series[f"Quota-{name}"]
        improvements = [
            improvement_percent(b, q) for b, q in zip(base, quota)
        ]
        report(
            f"-> mean improvement {sum(improvements) / len(improvements):.1f}%"
            f", best {max(improvements):.1f}%\n"
        )
