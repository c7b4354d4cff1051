"""Tests for QuotaSystem (the Algorithm 2 serving loop)."""

import numpy as np
import pytest

from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.rates import RateDriftDetector, RateEstimator
from repro.core.seed import SeedQueue
from repro.core.system import QuotaSystem
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.agenda import Agenda
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import ModeledExecutor, replay
from repro.queueing.workload import generate_workload


@pytest.fixture
def graph():
    return barabasi_albert_graph(120, attach=3, seed=2)


@pytest.fixture
def params():
    return PPRParams(walk_cap=1000)


@pytest.fixture
def workload(graph):
    return generate_workload(graph, 20.0, 20.0, 3.0, rng=1)


class TestBaselineReplay:
    def test_processes_every_request(self, graph, params, workload):
        system = QuotaSystem(Fora(graph.copy(), params))
        result = system.process(workload)
        assert len(result) == len(workload)
        assert len(result.of_kind(QUERY)) == workload.num_queries

    def test_fcfs_order_without_seed(self, graph, params, workload):
        system = QuotaSystem(Fora(graph.copy(), params))
        result = system.process(workload)
        starts = [c.start for c in result.completed]
        assert starts == sorted(starts)

    def test_response_time_positive(self, graph, params, workload):
        system = QuotaSystem(Fora(graph.copy(), params))
        result = system.process(workload)
        assert result.mean_query_response_time() > 0.0

    def test_graph_reflects_all_updates(self, graph, params, workload):
        shadow = graph.copy()
        for request in workload:
            if request.kind == UPDATE:
                request.update.apply(shadow)
        alg = Fora(graph.copy(), params)
        QuotaSystem(alg).process(workload)
        assert set(alg.graph.edges()) == set(shadow.edges())

    def test_query_callback_invoked(self, graph, params, workload):
        calls = []
        system = QuotaSystem(Fora(graph.copy(), params))
        system.process(
            workload, query_callback=lambda req, est, pending: calls.append(
                (req.source, est, pending)
            )
        )
        assert len(calls) == workload.num_queries
        source, estimate, pending = calls[0]
        assert estimate[source] >= 0.0
        assert pending == 0  # no Seed deferral


class TestSeedIntegration:
    def test_updates_deferred_then_flushed(self, graph, params):
        """Under contention queries overtake updates; nothing is lost."""
        # compress arrivals so the server is continuously busy —
        # idle-time draining then cannot empty the pending queue
        contended = generate_workload(graph, 150.0, 600.0, 1.0, rng=5)
        alg = Fora(graph.copy(), params)
        system = QuotaSystem(alg, epsilon_r=100.0)  # defer everything
        pending_seen = []
        result = system.process(
            contended,
            query_callback=lambda req, est, pending: pending_seen.append(
                pending
            ),
        )
        # all updates eventually completed (flush or final drain)
        assert len(result.of_kind(UPDATE)) == contended.num_updates
        assert max(pending_seen) > 0

    def test_seed_preserves_total_work_lemma3(self, graph, params, workload):
        """Lemma 3: total processing cost is unchanged by reordering."""
        plain = QuotaSystem(Fora(graph.copy(), params))
        seeded = QuotaSystem(Fora(graph.copy(), params), epsilon_r=0.5)
        plain.algorithm.seed(0)
        seeded.algorithm.seed(0)
        r_plain = plain.process(workload)
        r_seed = seeded.process(workload)
        assert r_seed.total_busy_time() == pytest.approx(
            r_plain.total_busy_time(), rel=0.5
        )

    def test_seed_preserves_total_work_lemma3_modeled(self, graph):
        """The virtual-time twin of the wall-clock test above: each
        operation costs what it is, not when it runs, so Seed's
        reordering must leave the total work *exactly* equal.  The
        costs are multiples of 2**-8 s, so every sum is exact in any
        order."""

        def service_fn(request):
            if request.kind == QUERY:
                return (1 + request.source % 5) / 128
            return (1 + request.update.u % 3) / 256

        contended = generate_workload(graph, 25.0, 50.0, 3.0, rng=4)
        plain_graph, seeded_graph = graph.copy(), graph.copy()
        r_plain = replay(
            contended, ModeledExecutor(service_fn, graph=plain_graph)
        )
        r_seed = replay(
            contended,
            ModeledExecutor(service_fn, graph=seeded_graph),
            seed_queue=SeedQueue(seeded_graph, 0.2, 5.0),
        )
        assert len(r_seed) == len(r_plain) == len(contended)
        assert r_seed.total_busy_time() == r_plain.total_busy_time()
        assert set(seeded_graph.edges()) == set(plain_graph.edges())
        # not vacuous: some query overtook an update that arrived first
        updates, queries = r_seed.of_kind(UPDATE), r_seed.of_kind(QUERY)
        assert any(
            q.arrival > u.arrival and q.start < u.start
            for u in updates
            for q in queries
        )

    def test_seed_never_hurts_query_response(self, graph, params, no_gc):
        """Lemma 3: W after Seed <= W before.

        Uses FORA+ under an update-heavy mix, where index rebuilds make
        updates expensive and overtaking them visibly helps queries.

        Determinism notes (this test compares *measured* wall-clock
        medians, so it needs active deflaking; it used to fail on full
        ``pytest -q`` runs while passing in isolation):

        * every RNG is pinned — the workload (``rng=7``), the fixture
          graph (``seed=2``), and both algorithm instances
          (``seed(1)``) — so the only nondeterminism left is timing
          noise from whatever the rest of the suite did to the
          process (allocator state, cache pollution, late GC);
        * each system gets a **private** ``MetricsRegistry`` so the
          process-wide registry other tests mutate is never shared;
        * the per-side statistic is the **min** of replay medians:
          scheduling noise only ever *adds* time, so the min of
          repeated measurements is the best estimate of the true
          service median on a noisy box;
        * one bounded in-test re-run (the CI re-run guard; see
          docs/DEVELOPMENT.md): a comparison of two measured medians
          on shared CI hardware has irreducible tail risk, so a
          failed attempt is retried at most twice before failing for
          real.  A genuine Lemma 3 regression fails all attempts.
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.ppr.fora import ForaPlus

        # heavily contended cell: rates are matched to this tiny
        # fixture graph's sub-millisecond service times so queueing
        # (not service noise) dominates the comparison
        workload = generate_workload(graph, 300.0, 1200.0, 2.0, rng=7)

        def measure_once():
            # min of medians of 4 replays, alternating run order so
            # machine-speed drift within a replay cancels
            plain_medians, seed_medians = [], []
            for replay in range(4):
                runs = [
                    (
                        "plain",
                        QuotaSystem(
                            ForaPlus(graph.copy(), params),
                            metrics=MetricsRegistry(),
                        ),
                    ),
                    (
                        "seed",
                        QuotaSystem(
                            ForaPlus(graph.copy(), params),
                            epsilon_r=1.0,
                            metrics=MetricsRegistry(),
                        ),
                    ),
                ]
                if replay % 2:
                    runs.reverse()
                for label, system in runs:
                    system.algorithm.seed(1)
                    median = system.process(
                        workload
                    ).percentile_query_response_time(50)
                    (
                        plain_medians
                        if label == "plain"
                        else seed_medians
                    ).append(median)
            return min(seed_medians), min(plain_medians)

        for attempt in range(3):
            seed_median, plain_median = measure_once()
            if seed_median <= plain_median * 1.2:
                return
        pytest.fail(
            f"Seed median {seed_median:.6f}s > 1.2x plain median "
            f"{plain_median:.6f}s on all 3 attempts"
        )

    def test_epsilon_zero_equals_fcfs(self, graph, params, workload):
        """epsilon_r = 0 must not defer: identical completion order."""
        a = QuotaSystem(Fora(graph.copy(), params))
        b = QuotaSystem(Fora(graph.copy(), params), epsilon_r=0.0)
        a.algorithm.seed(2)
        b.algorithm.seed(2)
        ra = a.process(workload)
        rb = b.process(workload)
        assert [c.kind for c in ra.completed] == [c.kind for c in rb.completed]

    def test_seed_accuracy_within_budget(self, graph, params):
        """Queries on the stale graph stay within epsilon_r + base error."""
        epsilon_r = 0.3
        workload = generate_workload(graph, 10.0, 20.0, 2.0, rng=3)
        alg = Fora(graph.copy(), params)
        alg.seed(3)
        system = QuotaSystem(alg, epsilon_r=epsilon_r)

        # shadow graph with every update applied up-front: queries are
        # compared against the PPR of the *fully updated* graph, the
        # strictest reading of the ordering-inaccuracy budget
        shadow = graph.copy()
        for request in workload:
            if request.kind == UPDATE:
                request.update.apply(shadow)

        errors = []

        def callback(request, estimate, pending):
            true_pi = ppr_exact(shadow, request.source, alpha=params.alpha)
            errors.append(
                max(
                    abs(estimate.get(v, 0.0) - true_pi.get(v, 0.0))
                    for v in shadow.nodes()
                )
            )

        system.process(workload, query_callback=callback)
        # total error <= Monte Carlo error + epsilon_r (loose check)
        assert max(errors) <= epsilon_r + 0.15


class TestReoptimization:
    def test_reoptimizes_on_schedule(self, graph, params, workload):
        alg = Agenda(graph.copy(), params)
        model = calibrated_cost_model(alg, num_queries=2, rng=0)
        controller = QuotaController(model)
        system = QuotaSystem(
            alg, controller, drift=RateDriftDetector.periodic(1.0)
        )
        system.process(workload)
        # ~3 virtual seconds of workload -> at least 2 reconfigurations
        assert len(system.decisions) >= 2

    def test_static_configuration(self, graph, params):
        alg = Agenda(graph.copy(), params)
        model = calibrated_cost_model(alg, num_queries=2, rng=1)
        controller = QuotaController(model)
        system = QuotaSystem(alg, controller)
        decision = system.configure_static(10.0, 10.0)
        assert decision is not None
        assert alg.get_hyperparameters() == pytest.approx(decision.beta)

    def test_no_controller_no_decisions(self, graph, params, workload):
        system = QuotaSystem(Fora(graph.copy(), params))
        assert system.configure_static(1.0, 1.0) is None
        system.process(workload)
        assert system.decisions == []

    def test_invalid_reoptimize_interval(self):
        with pytest.raises(ValueError):
            RateDriftDetector.periodic(0.0)


class TestRateEstimator:
    def test_rates_from_window(self):
        estimator = RateEstimator(window=10.0)
        for t in np.arange(0.0, 10.0, 0.5):  # 2 queries/sec
            estimator.observe(QUERY, float(t))
        for t in np.arange(0.0, 10.0, 1.0):  # 1 update/sec
            estimator.observe(UPDATE, float(t))
        lq, lu = estimator.rates(10.0)
        assert lq == pytest.approx(2.0, rel=0.2)
        assert lu == pytest.approx(1.0, rel=0.2)

    def test_old_arrivals_evicted(self):
        estimator = RateEstimator(window=5.0)
        estimator.observe(QUERY, 0.0)
        estimator.observe(QUERY, 100.0)
        lq, _ = estimator.rates(100.0)
        assert lq == pytest.approx(1 / 5.0)

    def test_early_window_normalization(self):
        """Before a full window has elapsed, normalize by elapsed time."""
        estimator = RateEstimator(window=10.0)
        estimator.observe(QUERY, 0.5)
        estimator.observe(QUERY, 1.0)
        lq, _ = estimator.rates(1.0)
        assert lq == pytest.approx(2.0)
