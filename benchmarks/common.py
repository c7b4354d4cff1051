"""Shared machinery for the reproduction benchmarks.

Scope control
-------------
The full paper grid (6 datasets x 7 ratios x 7 systems, long windows)
takes hours in pure Python.  ``REPRO_BENCH_SCOPE`` selects:

* ``quick`` (default) — representative subset: fewer datasets/ratios
  and shorter windows.  Preserves every qualitative conclusion.
* ``full``  — the paper's complete grid.

Every bench accepts the same seeded workloads for all compared systems
(paired comparison), mirroring the paper's methodology of replaying
identical request sequences.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from dataclasses import dataclass

from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.rates import RateDriftDetector
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import DatasetSpec, get_dataset
from repro.graph.digraph import DynamicGraph
from repro.ppr.registry import build_algorithm
from repro.queueing.replay import SimulationResult
from repro.queueing.workload import Workload, generate_workload

#: the paper's lambda_u / lambda_q sweep (Figure 3)
FULL_RATIOS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
QUICK_RATIOS = (0.125, 1.0, 8.0)

RATIO_LABELS = {
    0.125: "1/8", 0.25: "1/4", 0.5: "1/2",
    1.0: "1", 2.0: "2", 4.0: "4", 8.0: "8",
}


def bench_scope() -> str:
    scope = os.environ.get("REPRO_BENCH_SCOPE", "quick").lower()
    if scope not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_SCOPE must be quick|full, got {scope}")
    return scope


def bench_seed() -> int:
    """Base seed for every benchmark (override: REPRO_BENCH_SEED).

    All benchmark randomness (graph build, workload, walks) derives
    from this one value, so a run is reproduced by re-exporting it.
    """
    raw = os.environ.get("REPRO_BENCH_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_BENCH_SEED must be an integer, got {raw!r}"
        ) from None


def scoped(quick_value, full_value):
    """Pick per scope."""
    return full_value if bench_scope() == "full" else quick_value


def ratio_sweep() -> tuple[float, ...]:
    return scoped(QUICK_RATIOS, FULL_RATIOS)


def dataset_names() -> tuple[str, ...]:
    return scoped(
        ("webs", "dblp"),
        ("webs", "dblp", "pokec", "lj", "orkut", "twitter"),
    )


def window_for(spec: DatasetSpec) -> float:
    return scoped(min(spec.window, 4.0), spec.window)


@dataclass(slots=True)
class SystemSpec:
    """One line/series in a figure: base algorithm + Quota/Seed flags."""

    label: str
    algorithm: str
    use_quota: bool = False
    without_constants: bool = False
    epsilon_r: float = 0.0


#: the Figure 3 competitor set
FIG3_SYSTEMS = (
    SystemSpec("Quota", "Agenda", use_quota=True),
    SystemSpec("Quota*", "Agenda", use_quota=True, epsilon_r=0.5),
    SystemSpec("Agenda", "Agenda"),
    SystemSpec("FORA", "FORA"),
    SystemSpec("FORA+", "FORA+"),
    SystemSpec("FORA*", "FORA+", epsilon_r=0.5),
    SystemSpec("ResAcc", "ResAcc"),
)


def run_system(
    system: SystemSpec,
    spec: DatasetSpec,
    graph: DynamicGraph,
    workload: Workload,
    lambda_q: float,
    lambda_u: float,
    seed: int | None = None,
    reoptimize_every: float | None = None,
) -> SimulationResult:
    """Replay one workload through one configured system.

    ``seed`` defaults to :func:`bench_seed` so a whole benchmark run is
    reproduced by setting REPRO_BENCH_SEED once.
    """
    if seed is None:
        seed = bench_seed()
    algorithm = build_algorithm(
        system.algorithm, graph.copy(), spec.walk_cap, seed=seed
    )
    controller = None
    if system.use_quota:
        model = calibrated_cost_model(algorithm, num_queries=4, rng=seed + 1)
        if system.without_constants:
            model = model.without_constants()
        controller = QuotaController(
            model, extra_starts=[algorithm.get_hyperparameters()]
        )
    runner = QuotaSystem(
        algorithm,
        controller,
        epsilon_r=system.epsilon_r,
        drift=(
            RateDriftDetector.periodic(reoptimize_every)
            if reoptimize_every is not None
            else None
        ),
    )
    if controller is not None and reoptimize_every is None:
        runner.configure_static(lambda_q, lambda_u)
    return runner.process(workload)


def dataset_workload(
    name: str,
    ratio: float,
    seed: int | None = None,
    lambda_q: float | None = None,
    window: float | None = None,
) -> tuple[DatasetSpec, DynamicGraph, Workload, float, float]:
    """Materialize (spec, graph, workload, lambda_q, lambda_u) for a cell.

    ``seed`` defaults to :func:`bench_seed` (REPRO_BENCH_SEED).
    """
    if seed is None:
        seed = bench_seed()
    spec = get_dataset(name)
    graph = spec.build(seed=seed)
    lq = lambda_q if lambda_q is not None else spec.lambda_q
    lu = lq * ratio
    t = window if window is not None else window_for(spec)
    workload = generate_workload(graph, lq, lu, t, rng=seed + 7)
    return spec, graph, workload, lq, lu


# ----------------------------------------------------------------------
# machine-readable results (perf trajectory)
# ----------------------------------------------------------------------
#: repository root — trajectory artifacts live beside ROADMAP.md so
#: successive PRs can diff them without digging into benchmarks/
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_bench_json(
    name: str,
    results: object,
    path: str | os.PathLike[str] | None = None,
) -> pathlib.Path:
    """Persist one benchmark's results as ``BENCH_<name>.json``.

    The human-readable tables under ``benchmarks/results/`` are for
    reading; these JSON artifacts are for *machines* — committed at the
    repo root so the perf trajectory across PRs is a ``git log`` over
    structured data.  Every record carries the scope/seed knobs and
    enough host fingerprint to judge comparability (a 1-core container
    and a 16-core runner are not the same experiment).
    """
    record = {
        "bench": name,
        "scope": bench_scope(),
        "seed": bench_seed(),
        "generated_unix": int(time.time()),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    target = (
        pathlib.Path(path)
        if path is not None
        else REPO_ROOT / f"BENCH_{name}.json"
    )
    target.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target
