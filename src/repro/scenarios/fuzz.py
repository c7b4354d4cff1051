"""Scenario fuzz/replay harness with differential oracles + report cards.

For every ``(seed, family)`` cell the harness materializes a jittered
scenario (a flash crowd draws its spike factor from the 10-100x range,
a Zipf family its exponent, ...), compiles it to a workload, and
replays it through three engines:

1. ``fcfs`` — :func:`~repro.queueing.replay.replay` with a
   :class:`~repro.queueing.replay.ModeledExecutor` and nothing else
   (modeled, one server, strict FCFS);
2. ``seed-aware`` — the same loop with a real graph, a
   :class:`~repro.core.seed.SeedQueue` at the scenario's ``epsilon_r``,
   a result cache and two servers — plus a quiet ``epsilon_r=0``
   single-server run used purely for the FCFS differential;
3. the measured :class:`~repro.serving.runtime.ServingRuntime` (one
   thread, open-loop paced replay via :meth:`serve_timed`, result cache,
   snapshot-version equivalence oracle) — rotated across the seed axis
   so one ``fuzz --seeds 20`` sweep exercises every family through the
   measured stack without paying a measured run per cell.

All oracle checkers from :mod:`repro.scenarios.oracles` run on every
engine's output; each engine also emits a :class:`ReportCard` (p50/p99
vs the scenario's deadline, shed/timeout rates, staleness budget spent,
hit rate) so a fuzz sweep doubles as an SLO regression table.

The drift demo closes the ROADMAP online re-optimization loop: a flash
crowd replayed through the measured runtime with a
:class:`~repro.core.rates.RateDriftDetector` watching empirical rates
from the ``on_submit`` hook; the spike must trigger at least one
:meth:`~repro.serving.runtime.ServingRuntime.reconfigure` (asserted as an
oracle) — the QuotaController's re-solve is driven by observed drift,
not a fixed period.

Everything is deterministic per seed: all randomness flows from
``np.random.default_rng`` seeded off the ``(seed, family)`` cell.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cache.store import PPRCache
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.rates import RateDriftDetector
from repro.core.seed import SeedQueue
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY
from repro.queueing.replay import (
    ModeledExecutor,
    ServiceFn,
    SimulationResult,
    replay,
)
from repro.queueing.workload import Request, Workload
from repro.scenarios.dsl import (
    FAMILIES,
    PAPER_PATTERNS,
    Scenario,
    build_scenario,
    diurnal,
    edge_replay,
    flash_crowd,
    paper_pattern,
    update_storm,
    zipf_hotset,
)
from repro.scenarios.oracles import (
    OracleViolation,
    check_modeled_equivalence,
    check_final_graph,
    check_runtime_report,
    check_simulation,
    check_staleness_budget,
    check_workload,
    lindley_reference,
)
from repro.serving.runtime import ServingReport, ServingRuntime

#: modeled service durations (virtual seconds); rho ~ 0.5 at the
#: default base rates, so spikes/storms genuinely overload the queue
MODELED_QUERY_S = 0.02
MODELED_UPDATE_S = 0.008

#: cap on requests fed to the measured runtime per cell (the modeled
#: engines replay the full workload; real threads need a bound)
MEASURED_MAX_REQUESTS = 120

#: wall-clock target for one measured open-loop replay (seconds)
MEASURED_TARGET_WALL_S = 0.35

#: ``--scale`` profile: 10^4-node graphs with a deeper measured replay.
#: The PR-gating fuzz job stays at the small defaults; this profile is
#: for the nightly cron run, where minutes are cheap and the bugs worth
#: hunting are the ones that only show up at size (allocation pressure,
#: frontier blow-ups, percentile drift on long tails).
SCALE_NODES = 10_000
SCALE_MEASURED_MAX_REQUESTS = 320
SCALE_WALK_CAP = 256
SCALE_TARGET_WALL_S = 1.5

#: cache staleness budget used by both modeled and measured replays
FUZZ_EPSILON_C = 0.2

LogFn = Callable[[str], None]


def modeled_service_fn(
    query_s: float = MODELED_QUERY_S, update_s: float = MODELED_UPDATE_S
) -> ServiceFn:
    """Constant-cost modeled service (deterministic across engines)."""

    def service(request: Request) -> float:
        return query_s if request.kind == QUERY else update_s

    return service


# ----------------------------------------------------------------------
# report cards
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ReportCard:
    """Per-(scenario, engine) SLO summary of one replay."""

    scenario: str
    family: str
    seed: int
    engine: str
    requests: int
    queries: int
    updates: int
    p50_ms: float
    p99_ms: float
    deadline_ms: float | None
    deadline_hit_rate: float
    shed_rate: float
    timeout_rate: float
    hit_rate: float
    staleness_budget: float
    staleness_spent: float
    reconfigurations: int
    violations: int

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "family": self.family,
            "seed": self.seed,
            "engine": self.engine,
            "requests": self.requests,
            "queries": self.queries,
            "updates": self.updates,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "deadline_ms": (
                None if self.deadline_ms is None else round(self.deadline_ms, 3)
            ),
            "deadline_hit_rate": round(self.deadline_hit_rate, 4),
            "shed_rate": round(self.shed_rate, 4),
            "timeout_rate": round(self.timeout_rate, 4),
            "hit_rate": round(self.hit_rate, 4),
            "staleness_budget": self.staleness_budget,
            "staleness_spent": round(self.staleness_spent, 6),
            "reconfigurations": self.reconfigurations,
            "violations": self.violations,
        }


@dataclass(slots=True)
class FuzzReport:
    """Outcome of one fuzz sweep: every card plus every violation."""

    seeds: int
    families: list[str]
    cards: list[ReportCard] = field(default_factory=list)
    violations: list[OracleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def measured_families(self) -> set[str]:
        return {c.family for c in self.cards if c.engine == "measured"}

    def to_dict(self) -> dict[str, object]:
        return {
            "generator": "repro.scenarios fuzz",
            "seeds": self.seeds,
            "families": self.families,
            "ok": self.ok,
            "cards": [c.to_dict() for c in self.cards],
            "violations": [str(v) for v in self.violations],
        }


def _percentiles_ms(times_s: Sequence[float]) -> tuple[float, float]:
    if not times_s:
        return 0.0, 0.0
    arr = np.asarray(times_s, dtype=np.float64)
    return (
        float(np.percentile(arr, 50)) * 1e3,
        float(np.percentile(arr, 99)) * 1e3,
    )


def _deadline_hit_rate(
    times_s: Sequence[float], deadline_s: float | None
) -> float:
    if deadline_s is None or not times_s:
        return 1.0
    met = sum(1 for t in times_s if t <= deadline_s)
    return met / len(times_s)


def _modeled_card(
    scenario: Scenario,
    seed: int,
    engine: str,
    result: SimulationResult,
    hit_rate: float,
    staleness_spent: float,
    violations: int,
) -> ReportCard:
    times = [c.response_time for c in result.of_kind(QUERY)]
    p50, p99 = _percentiles_ms(times)
    return ReportCard(
        scenario=scenario.name,
        family=scenario.family,
        seed=seed,
        engine=engine,
        requests=len(result.completed),
        queries=len(result.of_kind(QUERY)),
        updates=len(result.completed) - len(result.of_kind(QUERY)),
        p50_ms=p50,
        p99_ms=p99,
        deadline_ms=(
            None if scenario.deadline_s is None else scenario.deadline_s * 1e3
        ),
        deadline_hit_rate=_deadline_hit_rate(times, scenario.deadline_s),
        shed_rate=0.0,
        timeout_rate=0.0,
        hit_rate=hit_rate,
        staleness_budget=FUZZ_EPSILON_C,
        staleness_spent=staleness_spent,
        reconfigurations=0,
        violations=violations,
    )


def _measured_card(
    name: str,
    scenario: Scenario,
    seed: int,
    report: ServingReport,
    cache: PPRCache | None,
    violations: int,
) -> ReportCard:
    times = [r.response_s for r in report.completed_queries()]
    p50, p99 = _percentiles_ms(times)
    total = len(report.records) if report.records else 1
    queries = sum(1 for r in report.records if r.kind == QUERY)
    return ReportCard(
        scenario=name,
        family=scenario.family,
        seed=seed,
        engine="measured",
        requests=len(report.records),
        queries=queries,
        updates=len(report.records) - queries,
        p50_ms=p50,
        p99_ms=p99,
        deadline_ms=None,  # wall-clock timings; virtual deadline n/a
        deadline_hit_rate=1.0,
        shed_rate=report.shed_count / total,
        timeout_rate=report.timeout_count / total,
        hit_rate=report.cache_hit_rate(),
        staleness_budget=FUZZ_EPSILON_C,
        staleness_spent=cache.worst_staleness() if cache is not None else 0.0,
        reconfigurations=len(report.decisions),
        violations=violations,
    )


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def run_modeled(
    scenario: Scenario,
    workload: Workload,
    graph: DynamicGraph,
    seed: int,
) -> tuple[list[ReportCard], list[OracleViolation]]:
    """FCFS + Seed-aware modeled replays with the differential oracles."""
    service = modeled_service_fn()
    violations = check_workload(scenario.name, workload)

    fcfs = replay(workload, ModeledExecutor(service))
    violations += check_simulation(
        scenario.name, "fcfs", workload, fcfs, servers=1
    )

    seed_graph = graph.copy()
    cache = PPRCache(
        capacity=96, epsilon_c=FUZZ_EPSILON_C, metrics=MetricsRegistry()
    )
    seed_sim = replay(
        workload,
        ModeledExecutor(
            service,
            graph=seed_graph,
            cache=cache,
            hit_service_s=MODELED_QUERY_S * 0.25,
        ),
        seed_queue=SeedQueue(seed_graph, 0.2, scenario.epsilon_r),
        servers=2,
    )
    violations += check_simulation(
        scenario.name, "seed-aware", workload, seed_sim, servers=2
    )
    violations += check_staleness_budget(scenario.name, "seed-aware", cache)

    # toggle updates commute into one final edge set: the Seed-aware
    # replay (defer/flush/drain paths) must land where a plain
    # sequential application lands
    reference = graph.copy()
    for request in workload:
        if request.update is not None:
            request.update.apply(reference)
    violations += check_final_graph(
        scenario.name, "seed-aware", reference, seed_graph
    )

    # the coincidence contract: epsilon_r=0, k=1, no cache => FCFS,
    # both held against the Lindley recursion (they share the loop)
    differential_graph = graph.copy()
    differential = replay(
        workload,
        ModeledExecutor(service, graph=differential_graph),
        seed_queue=SeedQueue(differential_graph, 0.2, 0.0),
    )
    lindley = lindley_reference(workload, service)
    violations += check_modeled_equivalence(scenario.name, lindley, fcfs)
    violations += check_modeled_equivalence(
        scenario.name, lindley, differential
    )

    cards = [
        _modeled_card(
            scenario,
            seed,
            "fcfs",
            fcfs,
            hit_rate=0.0,
            staleness_spent=0.0,
            violations=sum(1 for v in violations if v.engine == "fcfs"),
        ),
        _modeled_card(
            scenario,
            seed,
            "seed-aware",
            seed_sim,
            hit_rate=cache.hit_rate(),
            staleness_spent=cache.worst_staleness(),
            violations=sum(1 for v in violations if v.engine == "seed-aware"),
        ),
    ]
    return cards, violations


def _truncate_for_measured(
    workload: Workload, limit: int = MEASURED_MAX_REQUESTS
) -> Workload:
    """First ``limit`` requests, window cut at the last kept arrival."""
    requests = workload.requests[:limit]
    if len(requests) == len(workload.requests):
        return workload
    t_cut = requests[-1].arrival + 1e-6 if requests else workload.t_end
    return Workload(requests, t_cut, workload.lambda_q, workload.lambda_u)


def run_measured(
    scenario: Scenario,
    workload: Workload,
    graph: DynamicGraph,
    seed: int,
    walk_cap: int = 64,
    limit: int = MEASURED_MAX_REQUESTS,
    target_wall_s: float = MEASURED_TARGET_WALL_S,
) -> tuple[ReportCard, list[OracleViolation]]:
    """Open-loop paced replay through the real ServingRuntime."""
    trimmed = _truncate_for_measured(workload, limit=limit)
    time_scale = (
        target_wall_s / trimmed.t_end if trimmed.t_end > 0 else 1.0
    )
    quiet = MetricsRegistry()
    serving_graph = graph.copy()
    initial = serving_graph.copy()
    algorithm = build_algorithm("FORA", serving_graph, walk_cap, seed=seed)
    cache = PPRCache(capacity=128, epsilon_c=FUZZ_EPSILON_C, metrics=quiet)
    runtime = ServingRuntime(
        algorithm,
        epsilon_r=scenario.epsilon_r,
        queue_capacity=len(trimmed) + 8,
        cache=cache,
        metrics=quiet,
    )
    with runtime:
        report = runtime.serve_timed(trimmed, time_scale=time_scale)
    violations = check_runtime_report(
        scenario.name,
        report,
        submitted=len(trimmed),
        initial_graph=initial,
        final_graph=serving_graph,
        under_capacity=True,
    )
    violations += check_staleness_budget(scenario.name, "measured", cache)

    card = _measured_card(
        scenario.name, scenario, seed, report, cache, len(violations)
    )
    return card, violations


def run_drift_demo(
    nodes: int = 150,
    seed: int = 7,
    metrics: MetricsRegistry | None = None,
) -> tuple[ReportCard, list[OracleViolation]]:
    """Flash crowd + RateDriftDetector -> live QuotaController re-solve.

    The detector watches empirical rates (virtual clock: request
    arrivals) from the ``serve_timed`` submission hook; once the spike
    drifts past threshold it re-solves through
    :meth:`ServingRuntime.reconfigure` and re-arms at the new pair.
    At least one reconfiguration is asserted as an oracle: a 12x spike
    that never trips the detector means the loop is wired wrong.
    """
    metrics = metrics if metrics is not None else get_metrics()
    scenario = flash_crowd(
        t_end=16.0, lambda_q=8.0, spike_factor=12.0, spike_at=0.4
    )
    rng = np.random.default_rng(seed)
    graph = barabasi_albert_graph(nodes, attach=2, seed=seed)
    workload = _truncate_for_measured(
        scenario.compile(graph, rng), limit=160
    )
    quiet = MetricsRegistry()
    serving_graph = graph.copy()
    initial = serving_graph.copy()
    algorithm = build_algorithm("FORA", serving_graph, 64, seed=seed)
    controller = QuotaController(
        calibrated_cost_model(algorithm, num_queries=2, rng=seed + 1),
        extra_starts=[algorithm.get_hyperparameters()],
    )
    runtime = ServingRuntime(
        algorithm,
        queue_capacity=len(workload) + 8,
        controller=controller,
        metrics=quiet,
    )
    detector = RateDriftDetector(
        configured_q=scenario.segments[0].lambda_q,
        configured_u=scenario.segments[0].lambda_u,
        window=3.0,
        threshold=0.6,
        min_events=15,
    )
    reconfigured = 0

    def on_submit(request: Request, _now_s: float) -> None:
        nonlocal reconfigured
        detector.observe(request.kind, request.arrival)
        drifted = detector.check(request.arrival)
        if drifted is None:
            return
        lambda_q, lambda_u = drifted
        runtime.reconfigure(lambda_q, lambda_u, quick=True)
        detector.rearm(lambda_q, lambda_u)
        reconfigured += 1
        metrics.counter("scenario.reconfigurations").inc()

    time_scale = (
        MEASURED_TARGET_WALL_S / workload.t_end if workload.t_end > 0 else 1.0
    )
    with runtime:
        report = runtime.serve_timed(
            workload, time_scale=time_scale, on_submit=on_submit
        )
    violations = check_runtime_report(
        scenario.name,
        report,
        submitted=len(workload),
        initial_graph=initial,
        final_graph=serving_graph,
        under_capacity=True,
    )
    if reconfigured == 0:
        violations.append(
            OracleViolation(
                "drift-reconfigure",
                scenario.name,
                "measured",
                "a 12x flash crowd never tripped the drift detector",
            )
        )
    card = _measured_card(
        f"{scenario.name}+drift", scenario, seed, report, None, len(violations)
    )
    return card, violations


# ----------------------------------------------------------------------
# scenario jitter + sweep driver
# ----------------------------------------------------------------------
def jittered_scenario(family: str, rng: np.random.Generator) -> Scenario:
    """A family instance with fuzzed parameters (deterministic per rng)."""
    if family == "flash-crowd":
        return flash_crowd(
            spike_factor=float(rng.uniform(10.0, 100.0)),
            spike_at=float(rng.uniform(0.3, 0.7)),
        )
    if family == "update-storm":
        return update_storm(storm_factor=float(rng.uniform(10.0, 50.0)))
    if family == "zipf-hotset":
        return zipf_hotset(
            exponent=float(rng.uniform(0.8, 1.6)),
            shift_at=float(rng.uniform(0.3, 0.7)),
        )
    if family == "diurnal":
        return diurnal(
            cycles=float(rng.uniform(1.0, 3.0)),
            amplitude=float(rng.uniform(0.5, 0.9)),
        )
    if family == "edge-replay":
        return edge_replay(
            stream_size=int(rng.integers(60, 160)),
            burst_factor=float(rng.uniform(2.0, 8.0)),
        )
    if family == "paper-pattern":
        pattern = PAPER_PATTERNS[int(rng.integers(len(PAPER_PATTERNS)))]
        return paper_pattern(pattern, seg_seed=int(rng.integers(1 << 31)))
    return build_scenario({"family": family})


def run_fuzz(
    seeds: int,
    families: Sequence[str] | None = None,
    nodes: int = 160,
    measured: bool = True,
    drift: bool = True,
    scale: bool = False,
    metrics: MetricsRegistry | None = None,
    log: LogFn | None = None,
) -> FuzzReport:
    """The full sweep: ``seeds x families`` cells plus the drift demo.

    Modeled engines replay every cell; the measured runtime is rotated
    (cell ``seed % len(families)``) so a 20-seed sweep still pushes
    every family through real threads.  Deterministic given ``seeds``.

    ``scale`` switches the measured replays to the large-graph profile
    (deeper request cap, bigger walk budget, longer wall target); the
    caller picks the matching graph size via ``nodes`` —
    :data:`SCALE_NODES` is the intended pairing.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    chosen = list(families) if families is not None else sorted(FAMILIES)
    unknown = set(chosen) - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}")
    metrics = metrics if metrics is not None else get_metrics()
    report = FuzzReport(seeds=seeds, families=chosen)
    runs_counter = metrics.counter("scenario.runs")
    violations_counter = metrics.counter("scenario.violations")
    walk_cap = SCALE_WALK_CAP if scale else 64
    limit = SCALE_MEASURED_MAX_REQUESTS if scale else MEASURED_MAX_REQUESTS
    target_wall_s = SCALE_TARGET_WALL_S if scale else MEASURED_TARGET_WALL_S

    for seed in range(seeds):
        for index, family in enumerate(chosen):
            rng = np.random.default_rng(seed * 9176 + index * 131 + 5)
            scenario = jittered_scenario(family, rng)
            graph = barabasi_albert_graph(nodes, attach=2, seed=1000 + seed)
            workload = scenario.compile(graph, rng)
            cards, violations = run_modeled(scenario, workload, graph, seed)
            runs_counter.inc(2)
            if measured and index == seed % len(chosen):
                card, measured_violations = run_measured(
                    scenario,
                    workload,
                    graph,
                    seed,
                    walk_cap=walk_cap,
                    limit=limit,
                    target_wall_s=target_wall_s,
                )
                cards.append(card)
                violations += measured_violations
                runs_counter.inc()
            report.cards += cards
            report.violations += violations
            if violations:
                violations_counter.inc(len(violations))
            if log is not None:
                engines = ",".join(c.engine for c in cards)
                log(
                    f"seed {seed:>3} {scenario.name:<28} [{engines}] "
                    f"{len(workload):>5} reqs "
                    f"{'OK' if not violations else f'{len(violations)} VIOLATIONS'}"
                )
    if drift:
        card, violations = run_drift_demo(metrics=metrics)
        report.cards.append(card)
        report.violations += violations
        runs_counter.inc()
        if violations:
            violations_counter.inc(len(violations))
        if log is not None:
            log(
                f"drift {card.scenario}: {card.reconfigurations} "
                f"reconfiguration(s), "
                f"{'OK' if not violations else f'{len(violations)} VIOLATIONS'}"
            )
    return report


__all__ = [
    "FuzzReport",
    "MEASURED_MAX_REQUESTS",
    "SCALE_NODES",
    "ReportCard",
    "jittered_scenario",
    "modeled_service_fn",
    "run_drift_demo",
    "run_fuzz",
    "run_measured",
    "run_modeled",
]
