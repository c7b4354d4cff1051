"""Differential and invariant oracles for scenario replays.

Each checker inspects one replay artifact — the generated workload, a
modeled :class:`~repro.queueing.replay.SimulationResult`, or a
measured :class:`~repro.serving.runtime.ServingReport` — and returns a
list of :class:`OracleViolation` (empty = healthy).  The fuzz harness
(:mod:`repro.scenarios.fuzz`) aggregates them across engines; CI fails
on any non-empty union.

The oracle set, and why each holds:

* **workload invariants** — arrivals sorted and inside ``[0, t_end)``;
  request-kind conservation.  These are the generator's contract; every
  downstream replay assumes them.
* **simulation invariants** — per-request time monotonicity (``arrival
  <= start <= finish``), finite non-negative service, conservation
  (every submitted request completes exactly once: Seed defers updates
  but the replay drains every queue before returning), and busy
  time bounded by ``servers * horizon`` (no replay may manufacture
  capacity).
* **modeled differential** — with ``epsilon_r = 0``, one server, no
  cache, a Seed-aware :func:`~repro.queueing.replay.replay` *is* FCFS:
  identical per-request timelines (the coincidence contract: a
  ``SeedQueue`` at ``epsilon_r = 0`` never defers).  Both runs are
  the one replay loop, so the independent side of
  the differential is :func:`lindley_reference` — the recursion
  ``start_i = max(arrival_i, finish_{i-1})`` computed straight from
  the workload, sharing no code with the loop.
* **final-graph differential** — edge updates use toggle semantics, so
  replaying the same update sequence through any engine must land on
  the same final edge set as a direct sequential application.
* **measured snapshot equivalence** — the runtime's OK update records,
  replayed in observed graph-version order on a shadow copy of the
  pre-run graph, must reproduce the final edge set exactly with
  distinct versions, and every OK query must report a version inside
  the run's span (the one-thread-owns-the-graph contract).
* **no shed under capacity** — an admission queue at least as large as
  the whole workload can never legitimately shed.
* **staleness budget** — no live cache entry may carry accumulated
  staleness above ``epsilon_c``; charging must have evicted it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.store import PPRCache
from repro.graph.digraph import DynamicGraph
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import CompletedRequest, ServiceFn, SimulationResult
from repro.queueing.workload import Workload
from repro.serving.runtime import FAILED, OK, SHED, TIMEOUT, ServingReport

#: slack for comparing virtual timestamps (pure float arithmetic)
TIME_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class OracleViolation:
    """One violated invariant, attributed to a scenario and engine."""

    oracle: str
    scenario: str
    engine: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.scenario} / {self.engine}] {self.oracle}: {self.detail}"
        )


# ----------------------------------------------------------------------
# workload invariants
# ----------------------------------------------------------------------
def check_workload(
    scenario_name: str, workload: Workload
) -> list[OracleViolation]:
    """Generator contract: sorted, in-window, kind-conserving."""

    def bad(oracle: str, detail: str) -> OracleViolation:
        return OracleViolation(oracle, scenario_name, "generator", detail)

    violations: list[OracleViolation] = []
    previous = 0.0
    for i, request in enumerate(workload):
        if request.arrival < previous - TIME_EPS:
            violations.append(
                bad(
                    "arrival-monotone",
                    f"request {i} arrives at {request.arrival} after "
                    f"{previous}",
                )
            )
            break
        previous = request.arrival
    if workload.requests:
        first = workload.requests[0].arrival
        last = workload.requests[-1].arrival
        if first < 0.0 or last >= workload.t_end + TIME_EPS:
            violations.append(
                bad(
                    "arrival-window",
                    f"arrivals span [{first}, {last}] outside "
                    f"[0, {workload.t_end})",
                )
            )
    counted = workload.num_queries + workload.num_updates
    if counted != len(workload):
        violations.append(
            bad(
                "kind-conservation",
                f"{counted} classified of {len(workload)} requests",
            )
        )
    return violations


# ----------------------------------------------------------------------
# modeled-simulation invariants
# ----------------------------------------------------------------------
def check_simulation(
    scenario_name: str,
    engine: str,
    workload: Workload,
    result: SimulationResult,
    servers: int,
) -> list[OracleViolation]:
    """Conservation + per-request monotonicity + capacity bound."""

    def bad(oracle: str, detail: str) -> OracleViolation:
        return OracleViolation(oracle, scenario_name, engine, detail)

    violations: list[OracleViolation] = []
    if len(result.completed) != len(workload):
        violations.append(
            bad(
                "conservation",
                f"{len(result.completed)} completions for "
                f"{len(workload)} submitted requests",
            )
        )
    for kind, submitted in (
        (QUERY, workload.num_queries),
        (UPDATE, workload.num_updates),
    ):
        done = len(result.of_kind(kind))
        if done != submitted:
            violations.append(
                bad(
                    "conservation",
                    f"{done}/{submitted} {kind} requests completed",
                )
            )
    for i, c in enumerate(result.completed):
        if c.start < c.arrival - TIME_EPS:
            violations.append(
                bad(
                    "time-monotone",
                    f"completion {i} starts at {c.start} before its "
                    f"arrival {c.arrival}",
                )
            )
            break
        if c.finish < c.start - TIME_EPS or not c.service >= 0.0:
            violations.append(
                bad(
                    "time-monotone",
                    f"completion {i} has start={c.start} "
                    f"finish={c.finish} service={c.service}",
                )
            )
            break
    busy = result.total_busy_time()
    capacity = servers * result.horizon
    if busy > capacity + TIME_EPS * max(len(result.completed), 1):
        violations.append(
            bad(
                "capacity",
                f"busy time {busy:.6f}s exceeds {servers} server(s) x "
                f"horizon {result.horizon:.6f}s",
            )
        )
    return violations


def lindley_reference(
    workload: Workload, service_fn: ServiceFn
) -> SimulationResult:
    """One FCFS server by the Lindley recursion, nothing else.

    The reference the replay loop's strict-FCFS configurations are
    compared against; deliberately independent of :mod:`repro.queueing.replay`.
    """
    completed: list[CompletedRequest] = []
    finish = 0.0
    for request in workload:
        start = max(request.arrival, finish)
        service = service_fn(request)
        finish = start + service
        completed.append(CompletedRequest(request, start, finish, service))
    return SimulationResult(completed, workload.t_end)


def check_modeled_equivalence(
    scenario_name: str,
    fcfs: SimulationResult,
    seed_aware: SimulationResult,
) -> list[OracleViolation]:
    """FCFS == Seed-aware at ``epsilon_r = 0``, one server, no cache.

    ``fcfs`` is the expected timeline — :func:`lindley_reference` in
    the fuzz harness — and ``seed_aware`` the replay under test.
    """

    def bad(detail: str) -> OracleViolation:
        return OracleViolation(
            "fcfs-seed-differential", scenario_name, "modeled", detail
        )

    if len(fcfs.completed) != len(seed_aware.completed):
        return [
            bad(
                f"{len(fcfs.completed)} vs {len(seed_aware.completed)} "
                f"completions"
            )
        ]

    def timeline(
        result: SimulationResult,
    ) -> list[tuple[float, float, float, str]]:
        return sorted(
            (c.arrival, c.start, c.finish, c.kind) for c in result.completed
        )

    for i, (a, b) in enumerate(zip(timeline(fcfs), timeline(seed_aware))):
        if a[3] != b[3] or any(
            abs(x - y) > TIME_EPS for x, y in zip(a[:3], b[:3])
        ):
            return [bad(f"completion {i} diverges: FCFS {a} vs Seed {b}")]
    return []


def check_final_graph(
    scenario_name: str,
    engine: str,
    expected: DynamicGraph,
    actual: DynamicGraph,
) -> list[OracleViolation]:
    """Toggle updates commute into one final edge set per sequence."""
    if expected == actual:
        return []
    expected_edges = set(expected.edges())
    actual_edges = set(actual.edges())
    missing = len(expected_edges - actual_edges)
    extra = len(actual_edges - expected_edges)
    return [
        OracleViolation(
            "final-graph-differential",
            scenario_name,
            engine,
            f"final edge sets differ: {missing} missing, {extra} extra",
        )
    ]


# ----------------------------------------------------------------------
# measured-runtime invariants
# ----------------------------------------------------------------------
def check_runtime_report(
    scenario_name: str,
    report: ServingReport,
    submitted: int,
    initial_graph: DynamicGraph,
    final_graph: DynamicGraph,
    under_capacity: bool,
) -> list[OracleViolation]:
    """Measured-run contract: conservation, no faults, no shed when
    under capacity, snapshot-version equivalence.

    ``initial_graph`` must be a disposable pre-run copy — the version-
    order replay mutates it.
    """

    def bad(oracle: str, detail: str) -> OracleViolation:
        return OracleViolation(oracle, scenario_name, "measured", detail)

    violations: list[OracleViolation] = []
    if len(report.records) != submitted:
        violations.append(
            bad(
                "conservation",
                f"{len(report.records)} records for {submitted} "
                f"submitted requests",
            )
        )
    known = {OK, SHED, TIMEOUT, FAILED}
    unknown = {r.status for r in report.records} - known
    if unknown:
        violations.append(bad("status", f"unknown statuses {unknown}"))
    if report.fault_count:
        violations.append(
            bad("no-faults", f"{report.fault_count} failed records")
        )
    if under_capacity and report.shed_count:
        violations.append(
            bad(
                "no-shed-under-capacity",
                f"{report.shed_count} requests shed although the "
                f"admission queue fits the whole workload",
            )
        )
    for r in report.records:
        if r.status == OK and (
            r.started_s < r.submitted_s - TIME_EPS
            or r.finished_s < r.started_s - TIME_EPS
        ):
            violations.append(
                bad(
                    "time-monotone",
                    f"record ({r.kind}) has submitted={r.submitted_s} "
                    f"started={r.started_s} finished={r.finished_s}",
                )
            )
            break

    # snapshot-version equivalence: replay OK updates in version order
    applied = sorted(
        (r for r in report.records if r.status == OK and r.kind == UPDATE),
        key=lambda r: r.version,
    )
    versions = [r.version for r in applied]
    if len(set(versions)) != len(versions):
        violations.append(
            bad("version-order", "two updates claim the same snapshot")
        )
    shadow = initial_graph
    for record in applied:
        update = record.request.update
        assert update is not None  # UPDATE requests carry one
        update.apply(shadow)
    violations += check_final_graph(
        scenario_name, "measured", shadow, final_graph
    )
    newest = max(max(versions, default=0), final_graph.version)
    for r in report.records:
        if r.status == OK and r.kind == QUERY and not 0 <= r.version <= newest:
            violations.append(
                bad(
                    "query-version",
                    f"query observed version {r.version} outside "
                    f"[0, {newest}]",
                )
            )
            break
    return violations


def check_staleness_budget(
    scenario_name: str, engine: str, cache: PPRCache
) -> list[OracleViolation]:
    """No live entry may exceed its ``epsilon_c`` staleness budget."""
    worst = cache.worst_staleness()
    if worst <= cache.epsilon_c + TIME_EPS:
        return []
    return [
        OracleViolation(
            "staleness-budget",
            scenario_name,
            engine,
            f"live entry carries staleness {worst:.6f} above "
            f"epsilon_c={cache.epsilon_c}",
        )
    ]


__all__ = [
    "OracleViolation",
    "TIME_EPS",
    "check_final_graph",
    "check_modeled_equivalence",
    "check_runtime_report",
    "check_simulation",
    "check_staleness_budget",
    "check_workload",
    "lindley_reference",
]
