"""Ablation: why *bounded* reordering (Seed) instead of naive priority.

Section VI motivates Seed as a relaxation of FCFS that keeps the query
error bounded.  The obvious alternative — always prioritize queries and
defer updates indefinitely — minimizes response time but serves queries
on an arbitrarily stale graph.  This bench quantifies the trade-off on
an update-heavy FORA+ cell:

* FCFS              (epsilon_r = 0)      — exact, slowest
* Seed              (epsilon_r = 0.5)    — bounded staleness
* Unbounded priority (epsilon_r = inf)   — updates deferred forever
  (applied only during idle time / at the end of the window)

Expected shape: response time FCFS >= Seed >= unbounded; *measured*
query error versus the live graph is small for FCFS and Seed and
clearly larger for unbounded priority — the quantitative case for
Seed's error budget.
"""

from __future__ import annotations

import math
from collections import deque

from benchmarks.common import (
    ErrorSampler,
    SystemSpec,
    record_verdict,
    run_system,
    scoped,
)
from repro.evaluation.datasets import DatasetSpec
from repro.evaluation.report import banner, format_table
from repro.queueing.kinds import UPDATE
from repro.queueing.workload import generate_workload

DENSE = DatasetSpec(
    name="dblp-dense", nodes=300, edges=9000, directed=True, kind="er",
    lambda_q=20.0, window=4.0, walk_cap=2000,
)

POLICIES = (
    ("FCFS (epsilon_r=0)", 0.0),
    ("Seed (epsilon_r=0.5)", 0.5),
    ("Unbounded priority (inf)", math.inf),
)


def run_policy(label, epsilon_r, graph, workload):
    """(mean R ms, mean and max error of every 8th answer against exact
    PPR on the graph as it should be *right now*: every update that has
    arrived by the query applied, deferred or not)."""
    sampler = ErrorSampler(graph.copy(), every=8)
    arrived = deque(r for r in workload if r.kind == UPDATE)

    def callback(request, estimate, pending):
        while arrived and arrived[0].arrival <= request.arrival:
            arrived.popleft().update.apply(sampler.truth)
        sampler(request, estimate, pending)

    cell = run_system(
        SystemSpec(label, "FORA+", epsilon_r=epsilon_r), DENSE, graph,
        workload, seed=0, query_callback=callback,
    )
    return cell.response_ms, sampler.mean(), max(sampler.errors, default=0.0)


def test_ablation_scheduling_policies(benchmark, report):
    report(banner("Ablation: FCFS vs Seed vs unbounded query priority"))
    window = scoped(3.0, 6.0)
    lq = DENSE.lambda_q
    lu = lq * 4  # update-heavy: deferral has something to win

    def experiment():
        graph = DENSE.build(seed=11)
        workload = generate_workload(graph, lq, lu, window, rng=21)
        return [
            [label, *run_policy(label, eps, graph, workload)]
            for label, eps in POLICIES
        ]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["policy", "mean R (ms)", "mean live-graph err",
             "max live-graph err"],
            rows,
            title=f"FORA+ on dense ER (lq={lq:g}, lu={lu:g})",
            float_format="{:.4f}",
        )
    )
    record_verdict(
        "ablation_scheduling", {r[0]: {"R_ms": r[1], "max_err": r[3]} for r in rows}
    )
    report(
        "-> Seed captures most of the reordering latency win while "
        "keeping a *provable* error budget; unbounded priority is "
        "slightly faster but offers no bound at all — its measured "
        "error is benign here only because uniform random updates "
        "barely shift PPR (the paper's own observation that true "
        "error sits far below the theoretical guarantee)."
    )
