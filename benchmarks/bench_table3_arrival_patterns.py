"""Table III reproduction: robustness to arrival-time distributions.

LJ-like dataset (quick scope: DBLP-like) with lambda_q = lambda_u;
arrivals drawn from Uniform, Geometric, Normal, and Gamma inter-arrival
distributions plus the Wikipedia-like bursty trace (our documented
substitute for the paper's real event stream).  Agenda default vs
Quota-Agenda; the Wikipedia column runs Quota with online rate
monitoring, as in the paper.

Expected shape: Agenda's response time is sensitive to the arrival
pattern (burstier -> worse); Quota cuts it substantially on every
pattern (paper: 24%-91%).
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import SystemSpec, run_system, scoped
from repro.evaluation.datasets import get_dataset
from repro.evaluation.metrics import improvement_percent
from repro.evaluation.report import banner, format_table
from repro.queueing.arrivals import (
    GammaArrivals,
    GeometricArrivals,
    NormalArrivals,
    UniformArrivals,
    wikipedia_like_trace,
)
from repro.queueing.workload import generate_workload


#: contention multiplier — the paper's Table III runs on a crowded
#: queue ("the response time of Agenda is sensitive to the arrival
#: time distribution due to the crowded queue")
RATE_SCALE = 4.0


def build_workloads(spec, graph, window, rng):
    lam = spec.lambda_q * RATE_SCALE
    patterns = {
        "Uniform": UniformArrivals(lam),
        "Geometric": GeometricArrivals(lam),
        "Normal": NormalArrivals(lam),
        "Gamma": GammaArrivals(lam),
    }
    workloads = {}
    for name, process in patterns.items():
        workloads[name] = generate_workload(
            graph, lam, lam, window,
            rng=rng,
            query_process=type(process)(lam),
            update_process=type(process)(lam),
        )
    # phases a few seconds long and moderate bursts: the paper's 100-
    # event Wikipedia extract is a mild non-homogeneous stream, not a
    # flash-crowd; rate changes must be slow enough to be observable
    q_times = wikipedia_like_trace(
        lam, window, np.random.default_rng(31),
        burst_factor=2.5, mean_phase=window / 3,
    )
    u_times = wikipedia_like_trace(
        lam, window, np.random.default_rng(32),
        burst_factor=2.5, mean_phase=window / 3,
    )
    workloads["Wikipedia"] = generate_workload(
        graph, lam, lam, window,
        rng=rng, query_times=q_times, update_times=u_times,
    )
    return workloads


def test_table3_arrival_patterns(benchmark, report):
    report(banner("Table III: response time under arrival patterns"))
    dataset = scoped("dblp", "lj")
    window = scoped(4.0, 10.0)
    spec = get_dataset(dataset)

    def experiment():
        seeds = scoped((4, 14), (4, 14, 24, 34))
        lam = spec.lambda_q * RATE_SCALE
        sums: dict[str, list[float]] = {}
        for seed in seeds:
            graph = spec.build(seed=seed)
            workloads = build_workloads(
                spec, graph, window, np.random.default_rng(seed + 26)
            )
            for name, workload in workloads.items():
                # "we monitor the request arrivals and obtain the
                # real-time lambda_q and lambda_u": configure at the
                # monitored long-run rates.  (Re-applying beta inside
                # bursts would serialize index rebuilds with serving —
                # counterproductive at this substrate's service-time
                # scale; see the adaptive_reconfiguration example for
                # the online loop under slower rate drift.)
                agenda = run_system(
                    SystemSpec("Agenda", "Agenda"),
                    spec, graph, workload, lam, lam, seed=seed,
                )
                # the bursty trace saturates at its burst peaks, not at
                # the mean: provision Quota for the monitored peak rate
                # (bursts run at ~1.4x the long-run mean)
                provision = lam * (1.5 if name == "Wikipedia" else 1.0)
                quota = run_system(
                    SystemSpec("Quota", "Agenda", use_quota=True),
                    spec, graph, workload, provision, provision, seed=seed,
                )
                entry = sums.setdefault(name, [0.0, 0.0])
                entry[0] += agenda.mean_query_response_time() * 1e3
                entry[1] += quota.mean_query_response_time() * 1e3
        return {
            name: (a / len(seeds), q / len(seeds))
            for name, (a, q) in sums.items()
        }

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = [
        [name, a, q, improvement_percent(a, q)]
        for name, (a, q) in rows.items()
    ]
    report(
        format_table(
            ["pattern", "Agenda R (ms)", "Quota R (ms)", "reduction %"],
            table,
            title=f"dataset: {dataset}, lambda_q = lambda_u = "
                  f"{spec.lambda_q * RATE_SCALE:g}",
        )
    )
