"""Figure 9 reproduction: Seed's effect on overall load and on the
response-time distribution.

(a) Lemma 3's first claim: the overall performance
    lambda_q t_q + lambda_u t_u is unchanged by reordering — measured
    across the rate sweep on the Webs-like dataset with epsilon_r=0.5.
(b) The distribution shift: at lambda_q = lambda_u, the histogram of
    query response times moves mass toward short responses after Seed.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import scoped
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import (
    ascii_histogram,
    banner,
    format_series,
    format_table,
)
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload

EPSILON_R = 0.5


def run_pair(spec, graph, workload):
    plain_alg = build_algorithm("FORA+", graph.copy(), spec.walk_cap, seed=0)
    seed_alg = build_algorithm("FORA+", graph.copy(), spec.walk_cap, seed=0)
    plain = QuotaSystem(plain_alg).process(workload)
    seeded = QuotaSystem(seed_alg, epsilon_r=EPSILON_R).process(workload)
    return plain, seeded


def test_fig9_seed_overall(benchmark, report):
    report(banner("Figure 9: Seed vs overall performance + distribution"))
    spec = get_dataset("webs")
    window = scoped(3.0, 8.0)
    lq = spec.lambda_q
    ratios = scoped((0.5, 1.0, 2.0), (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0))

    def experiment():
        loads = {"before Seed": [], "after Seed": []}
        for ratio in ratios:
            graph = spec.build(seed=0)
            workload = generate_workload(
                graph, lq, lq * ratio, window, rng=9
            )
            plain, seeded = run_pair(spec, graph, workload)
            loads["before Seed"].append(plain.empirical_load())
            loads["after Seed"].append(seeded.empirical_load())
        # (b) distribution at lambda_u = lambda_q
        graph = spec.build(seed=0)
        workload = generate_workload(graph, lq, lq, window, rng=10)
        plain, seeded = run_pair(spec, graph, workload)
        return loads, plain.query_response_times(), seeded.query_response_times()

    loads, plain_times, seed_times = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    report(
        format_series(
            "lambda_u/lambda_q",
            [f"{r:g}" for r in ratios],
            loads,
            title="(a) overall load lambda_q*t_q + lambda_u*t_u",
            float_format="{:.3f}",
        )
    )
    gaps = [
        abs(a - b) / max(a, 1e-12)
        for a, b in zip(loads["before Seed"], loads["after Seed"])
    ]
    report(f"-> max relative load change after Seed: {max(gaps) * 100:.1f}%\n")

    edges = np.percentile(plain_times, [0, 25, 50, 75, 90, 100])
    edges = np.unique(edges)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        plain_frac = float(
            np.mean((plain_times >= lo) & (plain_times < hi))
        )
        seed_frac = float(np.mean((seed_times >= lo) & (seed_times < hi)))
        rows.append(
            [f"[{lo * 1e3:.1f}, {hi * 1e3:.1f}) ms", plain_frac, seed_frac]
        )
    report(
        format_table(
            ["response-time bucket", "before Seed", "after Seed"],
            rows,
            title="(b) response-time distribution (fractions)",
            float_format="{:.3f}",
        )
    )
    report(
        f"-> mean response before {plain_times.mean() * 1e3:.2f} ms, "
        f"after {seed_times.mean() * 1e3:.2f} ms"
    )
    report("\nresponse times before Seed (ms):")
    report(ascii_histogram((plain_times * 1e3).tolist(), bins=6, width=30))
    report("response times after Seed (ms):")
    report(ascii_histogram((seed_times * 1e3).tolist(), bins=6, width=30))
