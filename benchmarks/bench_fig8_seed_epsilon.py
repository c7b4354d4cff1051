"""Figure 8 reproduction: the epsilon_r trade-off of Seed.

Update-heavy workload (lambda_u/lambda_q = 4) served by the two
index-based systems (Agenda and FORA+) at their default
configurations, sweeping the reorder error threshold epsilon_r;
reports mean response time and the *true* absolute PPR error measured
against exact PPR on the fully updated graph.  (Quota-tuned Agenda
already makes updates cheap, leaving Seed little to defer — the
Quota+Seed synergy is the Quota* column of the Figure 3 bench.)

Expected shape: response time decreases as epsilon_r grows (queries
overtake more pending updates); the measured error stays far below the
theoretical epsilon_r budget (the paper's own observation), growing
only mildly.

Note on the sweep range: the Lemma 2 bound is very conservative —
roughly 13/d_out(u) per pending update — so on sparse graphs a sweep
of {0 .. 1} defers only hub-node updates.  We therefore use a denser
ER graph (mean degree ~40, comparable to the paper's larger datasets)
where the paper's sweep range is meaningful, plus a wider sweep that
exposes the full curve.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import (
    ErrorSampler,
    SystemSpec,
    final_graph,
    record_verdict,
    run_system,
    scoped,
    seed_mean,
)
from repro.evaluation.datasets import DatasetSpec
from repro.evaluation.report import banner, format_series
from repro.queueing.workload import generate_workload

DENSE = DatasetSpec(
    name="dblp-dense", nodes=400, edges=16000, directed=True, kind="er",
    lambda_q=10.0, window=5.0, walk_cap=2500,
)


SEEDS = (3, 13)  # average workload replays: the update-heavy cell sits
                 # near saturation, where single runs jitter


def run_sweep(algorithm_name: str, epsilons, window):
    """Seed-averaged response time (ms) and true error at each epsilon_r."""
    lq, lu = 10.0, 40.0

    def cells(seed: int) -> dict[str, np.ndarray]:
        graph = DENSE.build(seed=seed)
        workload = generate_workload(graph, lq, lu, window, rng=seed + 1)
        truth = final_graph(graph, workload)
        response, error = [], []
        for eps in epsilons:
            sampler = ErrorSampler(truth, every=10)
            cell = run_system(
                SystemSpec(algorithm_name, algorithm_name, epsilon_r=eps),
                DENSE, graph, workload, seed=0, query_callback=sampler,
            )
            response.append(cell.response_ms)
            error.append(sampler.mean())
        return {"R (ms)": np.array(response), "true err": np.array(error)}

    return seed_mean(SEEDS, cells)


def test_fig8_seed_epsilon(benchmark, report):
    report(banner("Figure 8: Seed epsilon_r sweep (lambda_q=10, lambda_u=40)"))
    epsilons = scoped(
        (0.0, 0.2, 0.5, 1.0, 2.0),
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0),
    )
    window = scoped(3.0, 6.0)

    def experiment():
        return {
            name: run_sweep(name, epsilons, window)
            for name in ("Agenda", "FORA+")
        }

    sweeps = benchmark.pedantic(experiment, rounds=1, iterations=1)
    labels = [f"{e:g}" for e in epsilons]
    report(
        format_series(
            "epsilon_r",
            labels,
            {
                f"{name} {column}": list(values)
                for name, sweep in sweeps.items()
                for column, values in sweep.items()
            },
            title="response time and true absolute error vs epsilon_r",
            float_format="{:.3f}",
        )
    )
    ratios = {
        name: sweep["R (ms)"][-1] / max(sweep["R (ms)"][0], 1e-9)
        for name, sweep in sweeps.items()
    }
    max_err = max(max(sweep["true err"]) for sweep in sweeps.values())
    report(
        f"-> Agenda: R at eps=max is {ratios['Agenda']:.2f}x of eps=0; "
        f"FORA+: {ratios['FORA+']:.2f}x; true error stays <= {max_err:.4f} "
        f"(theoretical budget {epsilons[-1]:g})"
    )
    verdict = {"r_ratio": ratios, "max_true_error": max_err}
    record_verdict("fig8_seed_epsilon", verdict)
