"""Table VII reproduction: extreme light and heavy load situations.

Webs-like dataset with the paper's (lambda_q, lambda_u) grid scaled to
this substrate: three light cells (low query rate, rising update rate)
and three heavy cells (high query rate, rising update rate — pushing
into the unstable regime).

Expected shape: Quota-Agenda <= Agenda on every cell; in the overloaded
cells both grow large but Quota stays ahead by minimizing the traffic
intensity (Lemma 1 objective).
"""

from __future__ import annotations

from benchmarks.common import SystemSpec, run_system, scoped
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.queueing.workload import generate_workload


def test_table7_extreme(benchmark, report):
    report(banner("Table VII: extreme light/heavy load (response ms)"))
    spec = get_dataset("webs")
    window = scoped(3.0, 8.0)
    base_q = spec.lambda_q
    cells = [
        (base_q / 4, base_q / 4),
        (base_q / 4, base_q / 2),
        (base_q / 4, base_q),
        (base_q * 5, base_q * 5),
        (base_q * 5, base_q * 10),
        (base_q * 5, base_q * 20),
    ]

    def experiment():
        rows = []
        for lq, lu in cells:
            graph = spec.build(seed=6)
            workload = generate_workload(graph, lq, lu, window, rng=13)
            agenda = run_system(
                SystemSpec("Agenda", "Agenda"), spec, graph, workload, lq, lu
            )
            quota = run_system(
                SystemSpec("Quota", "Agenda", use_quota=True),
                spec, graph, workload, lq, lu,
            )
            rows.append(
                [
                    f"lq={lq:g} lu={lu:g}",
                    agenda.mean_query_response_time() * 1e3,
                    quota.mean_query_response_time() * 1e3,
                ]
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["cell", "Agenda", "Quota"],
            rows,
            title="webs-like dataset",
        )
    )
    wins = sum(1 for _, a, q in rows if q <= a * 1.1)
    report(f"-> Quota within/below Agenda (10% tol) on {wins}/{len(rows)} cells")
