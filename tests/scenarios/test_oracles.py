"""Oracle checkers: healthy replays pass, seeded defects are caught."""

import pytest

from repro.cache.store import PPRCache, make_key
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import CompletedRequest, SimulationResult
from repro.queueing.seed_simulator import SeedAwareQueueSimulator
from repro.queueing.simulator import FCFSQueueSimulator
from repro.queueing.workload import Request, Workload
from repro.scenarios.dsl import flash_crowd
from repro.scenarios.fuzz import modeled_service_fn
from repro.scenarios.oracles import (
    check_final_graph,
    check_modeled_equivalence,
    check_runtime_report,
    check_simulation,
    check_staleness_budget,
    check_workload,
    lindley_reference,
)
from repro.serving.runtime import OK, SHED, ServedRequest, ServingReport


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(80, attach=2, seed=11)


@pytest.fixture(scope="module")
def workload(graph):
    scenario = flash_crowd(t_end=8.0, lambda_q=10.0, spike_factor=12.0)
    return scenario.compile(graph, rng=0)


class TestWorkloadOracle:
    def test_healthy(self, workload):
        assert check_workload("s", workload) == []

    def test_out_of_window_arrival(self, graph):
        bad = Workload(
            [Request(5.0, QUERY, source=0)], 2.0, 1.0, 0.0
        )
        violations = check_workload("s", bad)
        assert any(v.oracle == "arrival-window" for v in violations)


class TestSimulationOracle:
    def test_healthy_fcfs(self, workload):
        result = FCFSQueueSimulator(
            modeled_service_fn(), modeled=True
        ).run(workload)
        assert check_simulation("s", "fcfs", workload, result, 1) == []

    def test_dropped_completion_is_conservation_violation(self, workload):
        result = FCFSQueueSimulator(
            modeled_service_fn(), modeled=True
        ).run(workload)
        tampered = SimulationResult(result.completed[:-1], result.t_end)
        violations = check_simulation("s", "fcfs", workload, tampered, 1)
        assert any(v.oracle == "conservation" for v in violations)

    def test_time_travel_is_monotonicity_violation(self, workload):
        result = FCFSQueueSimulator(
            modeled_service_fn(), modeled=True
        ).run(workload)
        first = result.completed[0]
        tampered = SimulationResult(
            [
                CompletedRequest(
                    first.request,
                    first.request.arrival - 1.0,
                    first.finish,
                    first.service,
                )
            ]
            + result.completed[1:],
            result.t_end,
        )
        violations = check_simulation("s", "fcfs", workload, tampered, 1)
        assert any(v.oracle == "time-monotone" for v in violations)

    def test_manufactured_capacity_is_violation(self, workload):
        # every request served instantly at arrival: busy time would
        # exceed one server's horizon only if service overlapped, so
        # fake overlapping service on a single server
        completed = [
            CompletedRequest(r, r.arrival, r.arrival + 5.0, 5.0)
            for r in workload
        ]
        result = SimulationResult(completed, workload.t_end)
        violations = check_simulation("s", "fcfs", workload, result, 1)
        assert any(v.oracle == "capacity" for v in violations)


class TestDifferentialOracles:
    def test_fcfs_coincides_with_seed_at_zero_budget(self, graph, workload):
        service = modeled_service_fn()
        fcfs = FCFSQueueSimulator(service, modeled=True).run(workload)
        seed = SeedAwareQueueSimulator(
            service, graph.copy(), epsilon_r=0.0, servers=1
        ).run(workload)
        assert check_modeled_equivalence("s", fcfs, seed) == []
        # both run the one replay loop; the independent side is the
        # Lindley recursion
        reference = lindley_reference(workload, service)
        assert check_modeled_equivalence("s", reference, fcfs) == []
        assert check_modeled_equivalence("s", reference, seed) == []

    def test_divergent_timeline_is_caught(self, graph, workload):
        fcfs = FCFSQueueSimulator(
            modeled_service_fn(), modeled=True
        ).run(workload)
        slower = FCFSQueueSimulator(
            modeled_service_fn(query_s=0.05), modeled=True
        ).run(workload)
        assert check_modeled_equivalence("s", fcfs, slower)

    def test_final_graph_differential(self, graph):
        a = graph.copy()
        b = graph.copy()
        assert check_final_graph("s", "e", a, b) == []
        EdgeUpdate(0, 1).apply(b)
        violations = check_final_graph("s", "e", a, b)
        assert violations and "differ" in violations[0].detail


class TestRuntimeReportOracle:
    def _report(self, records):
        return ServingReport(
            records=records, wall_s=1.0, degraded=False
        )

    def test_shed_under_capacity_is_violation(self, graph):
        request = Request(0.0, QUERY, source=1)
        records = [
            ServedRequest(request, SHED, 0.0, 0.0, 0.0, shed_reason="full")
        ]
        violations = check_runtime_report(
            "s",
            self._report(records),
            submitted=1,
            initial_graph=graph.copy(),
            final_graph=graph,
            under_capacity=True,
        )
        assert any(
            v.oracle == "no-shed-under-capacity" for v in violations
        )

    def test_version_replay_mismatch_is_violation(self, graph):
        # report claims an applied update that the final graph lacks
        update = Request(0.0, UPDATE, update=EdgeUpdate(2, 3))
        records = [
            ServedRequest(update, OK, 0.0, 0.0, 0.1, version=graph.version + 1)
        ]
        violations = check_runtime_report(
            "s",
            self._report(records),
            submitted=1,
            initial_graph=graph.copy(),
            final_graph=graph,
            under_capacity=True,
        )
        assert any(
            v.oracle == "final-graph-differential" for v in violations
        )

    def test_duplicate_versions_are_violation(self, graph):
        records = [
            ServedRequest(
                Request(0.0, UPDATE, update=EdgeUpdate(2, 3)),
                OK, 0.0, 0.0, 0.1, version=5,
            ),
            ServedRequest(
                Request(0.0, UPDATE, update=EdgeUpdate(3, 4)),
                OK, 0.0, 0.0, 0.1, version=5,
            ),
        ]
        violations = check_runtime_report(
            "s",
            self._report(records),
            submitted=2,
            initial_graph=graph.copy(),
            final_graph=graph,
            under_capacity=True,
        )
        assert any(v.oracle == "version-order" for v in violations)


class TestStalenessOracle:
    def test_healthy_cache_passes(self):
        cache = PPRCache(epsilon_c=0.2, metrics=MetricsRegistry())
        cache.insert(make_key(1, "a", {}), None, version=0)
        cache.charge_staleness(lambda entry: 0.05)
        assert check_staleness_budget("s", "e", cache) == []

    def test_over_budget_entry_is_caught(self):
        cache = PPRCache(epsilon_c=0.2, metrics=MetricsRegistry())
        key = make_key(1, "a", {})
        cache.insert(key, None, version=0)
        entry = cache.lookup(key)
        entry.staleness = 0.5  # simulate a charging bug
        violations = check_staleness_budget("s", "e", cache)
        assert violations and violations[0].oracle == "staleness-budget"
