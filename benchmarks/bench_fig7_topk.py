"""Figure 7 reproduction: Quota on the top-k algorithms.

FORA-TopK and TopPPR on the LJ-like dataset (quick scope: DBLP-like),
default vs Quota-configured, across the update/query ratio sweep.

Expected shape (paper §VIII-G): up to ~50% (FORA-TopK) and ~33%
(TopPPR) response-time improvement — the default settings of both
methods are not QoS-optimal.
"""

from __future__ import annotations

from benchmarks.common import ratio_table, record_verdict, run_algorithm, scoped
from repro.evaluation.metrics import improvement_percent
from repro.evaluation.report import banner

ALGORITHMS = ("FORA-TopK", "TopPPR")



def test_fig7_topk(benchmark, report):
    report(banner("Figure 7: Quota on FORA-TopK and TopPPR"))
    dataset = scoped("dblp", "lj")

    def experiment():
        return {name: run_algorithm(name, dataset) for name in ALGORITHMS}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    verdict = {}
    for name, (labels, series) in results.items():
        title = f"{name} on {dataset} — response time (ms)"
        report(ratio_table(labels, series, title))
        improvements = [
            improvement_percent(b, q)
            for b, q in zip(series[name], series[f"Quota-{name}"])
        ]
        report(f"-> best improvement {max(improvements):.1f}%\n")
        verdict[name] = {"best_improvement_pct": max(improvements)}
    record_verdict("fig7_topk", verdict)
