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

from benchmarks.common import ratio_table, record_verdict, run_algorithm
from repro.evaluation.metrics import improvement_percent
from repro.evaluation.report import banner

ALGORITHMS = ("FORA", "FORA+", "SpeedPPR", "SpeedPPR+")



def test_fig5_fora_speedppr(benchmark, report):
    report(banner("Figure 5: Quota on FORA / FORA+ / SpeedPPR / SpeedPPR+"))

    def experiment():
        return {name: run_algorithm(name, "dblp") for name in ALGORITHMS}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    verdict = {}
    for name, (labels, series) in results.items():
        title = f"{name} on dblp — response time (ms)"
        report(ratio_table(labels, series, title))
        base = series[name]
        quota = series[f"Quota-{name}"]
        improvements = [
            improvement_percent(b, q) for b, q in zip(base, quota)
        ]
        mean = sum(improvements) / len(improvements)
        best = max(improvements)
        report(f"-> mean improvement {mean:.1f}%, best {best:.1f}%\n")
        verdict[name] = dict(mean=mean, best=best, by_ratio=improvements)
    record_verdict("fig5_fora_speedppr", verdict)
