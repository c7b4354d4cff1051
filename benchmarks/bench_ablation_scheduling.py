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

import numpy as np

from benchmarks.common import scoped
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import DatasetSpec
from repro.evaluation.report import banner, format_table
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import build_algorithm
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


def live_graph_error(graph_now, estimate, alpha):
    """Max-abs error of an estimate against exact PPR on the graph as
    it should be *right now* (every arrived update applied)."""
    exact = ppr_exact(graph_now, estimate.source, alpha=alpha)
    return max(
        abs(estimate.get(v, 0.0) - exact.get(v, 0.0))
        for v in graph_now.nodes()
    )


def run_policy(epsilon_r, workload, window):
    graph = DENSE.build(seed=11)
    algorithm = build_algorithm("FORA+", graph, DENSE.walk_cap, seed=0)
    system = QuotaSystem(algorithm, epsilon_r=epsilon_r)

    # live shadow: all updates that have *arrived* by each query
    shadow = DENSE.build(seed=11)
    update_iter = iter(
        [r for r in workload if r.kind == UPDATE]
    )
    pending_updates = list(update_iter)
    cursor = {"i": 0}
    errors: list[float] = []
    sample = {"n": 0}

    def callback(request, estimate, pending):
        while (
            cursor["i"] < len(pending_updates)
            and pending_updates[cursor["i"]].arrival <= request.arrival
        ):
            pending_updates[cursor["i"]].update.apply(shadow)
            cursor["i"] += 1
        sample["n"] += 1
        if sample["n"] % 8 == 0:
            errors.append(
                live_graph_error(shadow, estimate, algorithm.params.alpha)
            )

    result = system.process(workload, query_callback=callback)
    return (
        result.mean_query_response_time() * 1e3,
        float(np.mean(errors)) if errors else 0.0,
        float(np.max(errors)) if errors else 0.0,
    )


def test_ablation_scheduling_policies(benchmark, report):
    report(banner("Ablation: FCFS vs Seed vs unbounded query priority"))
    window = scoped(3.0, 6.0)
    lq = DENSE.lambda_q
    lu = lq * 4  # update-heavy: deferral has something to win

    def experiment():
        graph = DENSE.build(seed=11)
        workload = generate_workload(graph, lq, lu, window, rng=21)
        return [
            [label, *run_policy(eps, workload, window)]
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
    report(
        "-> Seed captures most of the reordering latency win while "
        "keeping a *provable* error budget; unbounded priority is "
        "slightly faster but offers no bound at all — its measured "
        "error is benign here only because uniform random updates "
        "barely shift PPR (the paper's own observation that true "
        "error sits far below the theoretical guarantee)."
    )
