"""Figure 6 reproduction: the (r_max, r_max_b) response-time landscape.

For several update/query ratios on the Pokec-like dataset, evaluate the
*measured* mean response time over a grid of hyperparameter settings —
expressed, as in the paper, as multiples of Agenda's defaults
r̄_max = 1/(alpha K) and r̄^b_max = 1/n — and mark where the default
sits versus where Quota's constrained optimization lands.

Expected shape: the default ratio (1, 1) is not the valley floor; the
Quota-selected point sits at or near the grid minimum for every
workload mix.
"""

from __future__ import annotations

from benchmarks.common import SystemSpec, record_verdict, run_system, scoped
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload

GRID_MULTIPLIERS = (0.05, 0.25, 1.0, 4.0)
AGENDA = SystemSpec("Agenda", "Agenda")


def run_ratio(dataset: str, ratio: float, window: float):
    spec = get_dataset(dataset)
    graph = spec.build(seed=0)
    lq = spec.lambda_q
    lu = lq * ratio
    workload = generate_workload(graph, lq, lu, window, rng=5)

    probe = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    defaults = probe.default_hyperparameters()

    rows = []
    for r_mult in GRID_MULTIPLIERS:
        for rb_mult in GRID_MULTIPLIERS:
            beta = {
                "r_max": min(defaults["r_max"] * r_mult, 0.999),
                "r_max_b": min(defaults["r_max_b"] * rb_mult, 0.999),
            }
            value = run_system(
                AGENDA, spec, graph, workload, seed=0, beta=beta
            ).response_ms
            rows.append([f"{r_mult}x", f"{rb_mult}x", value])

    quota = run_system(
        SystemSpec("Quota", "Agenda", use_quota=True),
        spec, graph, workload, lq, lu, seed=0,
    )
    beta = quota.system.decisions[0].beta
    quota_r = beta["r_max"] / defaults["r_max"]
    quota_rb = beta["r_max_b"] / defaults["r_max_b"]
    default_time = next(
        v for rm, rb, v in rows if rm == "1.0x" and rb == "1.0x"
    )
    best = min(rows, key=lambda row: row[2])
    return rows, best, (quota_r, quota_rb, quota.response_ms), default_time


def test_fig6_landscape(benchmark, report):
    report(banner("Figure 6: Agenda hyperparameter landscape"))
    dataset = scoped("webs", "pokec")
    ratios = scoped((0.5, 2.0), (0.25, 0.5, 1.0, 2.0))
    window = scoped(3.0, 8.0)

    def experiment():
        return {r: run_ratio(dataset, r, window) for r in ratios}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    verdict = {}
    for ratio, (rows, best, quota, default_time) in results.items():
        report(
            format_table(
                ["r_max/default", "r_max_b/default", "measured R (ms)"],
                rows,
                title=f"{dataset}, lambda_u/lambda_q = {ratio}",
            )
        )
        bm, bbm, bv = best
        qr, qrb, qv = quota
        report(f"grid minimum: ({bm}, {bbm}) at {bv:.2f} ms")
        report(f"original Agenda setting (1x, 1x): {default_time:.2f} ms")
        report(
            f"Quota selected ({qr:.2f}x, {qrb:.2f}x) measuring {qv:.2f} ms\n"
        )
        verdict[f"{ratio:g}"] = {
            "grid_min_ms": bv, "default_ms": default_time, "quota_ms": qv
        }
    record_verdict("fig6_landscape", verdict)
