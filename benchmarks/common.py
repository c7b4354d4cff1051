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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.calibration import calibrated_cost_model
from repro.core.cost_models import CostModel
from repro.core.quota import QuotaController
from repro.core.rates import RateDriftDetector
from repro.core.system import QueryCallback, QuotaSystem
from repro.evaluation.datasets import DatasetSpec, get_dataset
from repro.evaluation.metrics import AccuracySummary
from repro.evaluation.report import format_series
from repro.graph.digraph import DynamicGraph
from repro.ppr.base import PPRVector
from repro.ppr.registry import ALPHA, build_algorithm
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import SimulationResult
from repro.queueing.workload import Request, Workload, generate_workload

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
    """One line/series in a figure: base algorithm + Quota/Seed flags.

    ``without_constants`` is the Quota-c ablation: Quota solves the
    calibrated model with every tau set to 1.
    """

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

#: the headline benches average two replays: single near-saturation
#: runs jitter (REPRODUCTION.md §4)
HEADLINE_SEEDS = (0, 1)


@dataclass(slots=True)
class Cell:
    """One replayed cell: its timed result and the system that served
    it (``system.decisions``, ``system.algorithm.timers``)."""

    result: SimulationResult
    system: QuotaSystem

    @property
    def response_ms(self) -> float:
        return self.result.mean_query_response_time() * 1e3


def run_system(
    system: SystemSpec,
    spec: DatasetSpec,
    graph: DynamicGraph,
    workload: Workload,
    lambda_q: float | None = None,
    lambda_u: float | None = None,
    *,
    seed: int | None = None,
    beta: dict[str, float] | None = None,
    model: CostModel | None = None,
    controller: Callable[[CostModel], QuotaController] = QuotaController,
    drift: RateDriftDetector | None = None,
    calibration_rng: int | None = None,
    query_callback: QueryCallback | None = None,
) -> Cell:
    """Build, tune and replay one cell on a copy of ``graph``.

    The algorithm is seeded with ``seed`` (default :func:`bench_seed`,
    so REPRO_BENCH_SEED reproduces a whole run) and set to ``beta`` if
    one is given.  A ``use_quota`` system solves with
    ``controller(model)``; without a ``model`` it first calibrates one
    on the fresh algorithm (4 probe queries, ``calibration_rng``,
    default ``seed + 1``).  Without ``drift`` Quota solves once at
    (lambda_q, lambda_u) before the replay; with it, the detector
    triggers every solve.  The algorithm's timers count the replay
    only.
    """
    if seed is None:
        seed = bench_seed()
    algorithm = build_algorithm(
        system.algorithm, graph.copy(), spec.walk_cap, seed=seed
    )
    if beta is not None:
        algorithm.set_hyperparameters(**beta)
    quota = None
    if system.use_quota:
        if model is None:
            rng = seed + 1 if calibration_rng is None else calibration_rng
            model = calibrated_cost_model(algorithm, num_queries=4, rng=rng)
        if system.without_constants:
            model = model.without_constants()
        quota = controller(model)
    runner = QuotaSystem(
        algorithm, quota, epsilon_r=system.epsilon_r, drift=drift
    )
    if drift is None:
        runner.configure_static(lambda_q, lambda_u)
    algorithm.timers.reset()
    return Cell(runner.process(workload, query_callback), runner)


def seed_mean(
    seeds: Sequence[int], cell: Callable[[int], dict[str, Any]]
) -> dict[str, Any]:
    """Average ``cell(seed)`` (label -> float or numpy array) over
    ``seeds``."""
    sums: dict[str, Any] = {}
    for seed in seeds:
        for label, value in cell(seed).items():
            sums[label] = sums.get(label, 0.0) + value
    return {label: total / len(seeds) for label, total in sums.items()}


def ratio_series(
    dataset: str,
    systems: Sequence[SystemSpec],
) -> tuple[list[str], dict[str, list[float]]]:
    """Seed-averaged mean query response (ms) of every system at each
    lambda_u/lambda_q of the sweep, one shared workload per cell."""
    ratios = ratio_sweep()
    series: dict[str, list[float]] = {s.label: [] for s in systems}
    for ratio in ratios:

        def cell(seed: int, ratio: float = ratio) -> dict[str, float]:
            spec, graph, workload, lq, lu = dataset_workload(
                dataset, ratio, seed=seed
            )
            return {
                s.label: run_system(
                    s, spec, graph, workload, lq, lu, seed=seed
                ).response_ms
                for s in systems
            }

        for label, value in seed_mean(HEADLINE_SEEDS, cell).items():
            series[label].append(value)
    return [RATIO_LABELS[r] for r in ratios], series


def ratio_table(
    labels: list[str], series: dict[str, list[float]], title: str
) -> str:
    """The Figure 3/5/7 table: one ms column per system, one row per ratio."""
    return format_series(
        "lambda_u/lambda_q", labels, series, title=title, float_format="{:.2f}"
    )


def run_algorithm(
    name: str, dataset: str
) -> tuple[list[str], dict[str, list[float]]]:
    """Figures 5 and 7: ``name`` at its default beta against Quota-``name``."""
    systems = (SystemSpec(name, name), SystemSpec(f"Quota-{name}", name, True))
    return ratio_series(dataset, systems)


def tranche_means(
    result: SimulationResult, t_end: float, width: float
) -> list[float]:
    """Mean query response (ms) per ``width``-second tranche of
    [0, t_end] by arrival; an arrival at ``t_end`` counts in the last
    tranche, and an empty tranche reads 0."""
    buckets = int(np.ceil(t_end / width))
    sums = np.zeros(buckets)
    counts = np.zeros(buckets)
    for c in result.completed:
        if c.kind == QUERY:
            b = min(int(c.arrival // width), buckets - 1)
            sums[b] += c.response_time
            counts[b] += 1
    return [float(s / n) * 1e3 if n else 0.0 for s, n in zip(sums, counts)]


def tranche_labels(t_end: float, width: float) -> list[str]:
    return [
        f"{int(i * width)}-{int((i + 1) * width)}s"
        for i in range(int(np.ceil(t_end / width)))
    ]


def final_graph(graph: DynamicGraph, workload: Workload) -> DynamicGraph:
    """A copy of ``graph`` with every update of ``workload`` applied."""
    shadow = graph.copy()
    for request in workload:
        if request.kind == UPDATE:
            request.update.apply(shadow)
    return shadow


class ErrorSampler:
    """A ``query_callback`` measuring every ``every``-th answer's max
    absolute error against exact PPR on ``truth`` (typically
    :func:`final_graph`)."""

    def __init__(self, truth: DynamicGraph, every: int) -> None:
        self.truth = truth
        self.every = every
        self.answers = 0
        self.errors: list[float] = []

    def __call__(self, request: Request, estimate: PPRVector, _: int) -> None:
        self.answers += 1
        if self.answers % self.every == 0:
            summary = AccuracySummary.compare(estimate, self.truth, ALPHA)
            self.errors.append(summary.max_absolute_error)

    def mean(self) -> float:
        return float(np.mean(self.errors)) if self.errors else 0.0


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


def _provenance() -> dict[str, object]:
    """The scope/seed knobs and enough host fingerprint to judge whether
    two records are comparable (a 1-core container and a 16-core runner
    are not the same experiment)."""
    return {
        "scope": bench_scope(),
        "seed": bench_seed(),
        "generated_unix": int(time.time()),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
    }


def _dump(target: pathlib.Path, record: object) -> pathlib.Path:
    target.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def write_bench_json(
    name: str,
    results: object,
    path: str | os.PathLike[str] | None = None,
) -> pathlib.Path:
    """Persist one benchmark's results as ``BENCH_<name>.json``.

    The human-readable tables under ``benchmarks/results/`` are for
    reading; these JSON artifacts are for *machines* — committed at the
    repo root so the perf trajectory across PRs is a ``git log`` over
    structured data.  Every record carries :func:`_provenance`.
    """
    target = pathlib.Path(path or REPO_ROOT / f"BENCH_{name}.json")
    return _dump(target, {"bench": name, **_provenance(), "results": results})


def record_verdict(
    bench: str,
    results: object,
    path: str | os.PathLike[str] | None = None,
) -> pathlib.Path:
    """Set ``bench``'s entry of ``BENCH_paper_shapes.json`` to the
    numbers its ``->`` verdict prints, with :func:`_provenance`.

    One entry per paper bench: a run of a subset rewrites only those
    entries, so each entry's scope, seed and host say which run made it.
    """
    target = pathlib.Path(path or REPO_ROOT / "BENCH_paper_shapes.json")
    record = {"bench": "paper_shapes", "entries": {}}
    if target.exists():
        record = json.loads(target.read_text(encoding="utf-8"))
    record["entries"][bench] = {**_provenance(), "results": results}
    return _dump(target, record)
