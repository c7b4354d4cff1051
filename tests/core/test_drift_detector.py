"""RateDriftDetector, Quota's one online trigger, and the QuotaSystem
re-optimization path it drives (event-driven and fixed-period)."""

import pytest

from repro.core.quota import QuotaDecision
from repro.core.rates import RateDriftDetector
from repro.core.system import QuotaSystem
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.queueing.workload import (
    generate_segmented_workload,
    WorkloadSegment,
)


def make_detector(**overrides):
    kwargs = dict(
        configured_q=10.0,
        configured_u=5.0,
        window=5.0,
        threshold=0.5,
        min_events=10,
    )
    kwargs.update(overrides)
    return RateDriftDetector(**kwargs)


def feed(detector, rate_q, t_end, t_start=0.0):
    """Deterministic evenly spaced query arrivals at ``rate_q``."""
    t = t_start
    while t < t_start + t_end:
        detector.observe("query", t)
        t += 1.0 / rate_q
    return t


class TestRateDriftDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_detector(configured_q=-1.0)
        with pytest.raises(ValueError):
            make_detector(threshold=0.0)
        with pytest.raises(ValueError):
            make_detector(period=-1.0)
        with pytest.raises(ValueError):
            RateDriftDetector.periodic(0.0)

    def test_period_spaces_checks(self):
        detector = make_detector(configured_u=0.0, period=2.0)
        t = feed(detector, 60.0, 3.0)  # drifted from the first event on
        assert detector.check(t) is not None
        # within the period of that check: no check at all
        assert detector.check(t + 1.9) is None
        assert detector.check(t + 2.5) is not None

    def test_restart_period_gates_from_time_zero(self):
        detector = make_detector(configured_u=0.0, period=2.0)
        t = feed(detector, 60.0, 3.0)
        assert detector.check(t) is not None
        detector.restart_period()
        assert detector.check(1.0) is None
        assert detector.check(t) is not None

    def test_cold_window_never_fires(self):
        detector = make_detector(min_events=50)
        for i in range(40):
            detector.observe("query", i * 0.001)  # huge empirical rate
        assert detector.check(0.05) is None

    def test_on_target_rates_stay_quiet(self):
        # query-only configuration: observed ~10/s vs configured 10/s
        quiet = make_detector(configured_u=0.0)
        t = feed(quiet, 10.0, 6.0)
        assert quiet.check(t) is None

    def test_spike_fires_and_reports_monitored_rates(self):
        detector = make_detector(configured_u=0.0)
        t = feed(detector, 60.0, 2.0)  # 6x the configured 10/s
        drifted = detector.check(t)
        assert drifted is not None
        lambda_q, lambda_u = drifted
        assert lambda_q > 30.0
        assert lambda_u == pytest.approx(0.0)

    def test_rearm_resets_baseline(self):
        detector = make_detector(configured_u=0.0)
        t = feed(detector, 60.0, 2.0)
        drifted = detector.check(t)
        assert drifted is not None
        detector.rearm(*drifted)
        # the same traffic now matches the configuration
        t = feed(detector, 60.0, 2.0, t_start=t)
        assert detector.check(t) is None

    def test_zero_configured_update_rate_drifts_on_any_update(self):
        detector = make_detector(configured_u=0.0, min_events=5)
        for i in range(10):
            detector.observe("query", i * 0.1)
            detector.observe("update", i * 0.1)
        assert detector.check(1.0) is not None

    def test_updates_alone_never_ask_for_a_solve(self):
        """Updates with no query drift the pair to lambda_q = 0, which
        Quota refuses: check returns None, so no caller re-solves (and
        re-arms) there."""
        detector = make_detector(min_events=5)
        for i in range(40):
            detector.observe("update", i * 0.1)
        assert detector.check(4.0) is None
        # a query rate that Quota can solve for still drifts
        for i in range(40):
            detector.observe("query", 4.0 + i * 0.01)
        assert detector.check(4.4) is not None


def periodic_check(configured, observed, window=10.0):
    """What the fixed-period configuration's first check returns when
    armed at ``configured`` and the trailing window saw ``observed``."""
    detector = RateDriftDetector.periodic(1.0, window=window)
    detector.rearm(*configured)
    for kind, rate in zip(("query", "update"), observed):
        count = round(rate * window)
        for i in range(count):
            detector.observe(kind, i * window / count)
    return detector.check(window)


class TestFixedPeriodHysteresis:
    """The paper's loop re-solves only when a rate moved past 15 %."""

    def test_small_drift_ignored(self):
        assert periodic_check((10.0, 10.0), (10.5, 10.5)) is None
        assert periodic_check((10.0, 10.0), (11.0, 9.0)) is None

    def test_large_drift_detected(self):
        assert periodic_check((10.0, 10.0), (12.0, 10.0)) == (12.0, 10.0)
        assert periodic_check((10.0, 10.0), (10.0, 5.0)) == (10.0, 5.0)

    def test_zero_to_positive_is_movement(self):
        assert periodic_check((10.0, 0.0), (10.0, 1.0)) == (10.0, 1.0)
        assert periodic_check((10.0, 0.0), (10.0, 0.0)) is None

    def test_first_check_with_a_query_always_solves(self):
        # armed at (0, 0): any query rate counts as movement
        assert periodic_check((0.0, 0.0), (0.1, 0.0)) == (0.1, 0.0)
        assert periodic_check((0.0, 0.0), (0.0, 3.0)) is None


class FakeController:
    """Records configure() calls; returns a fixed no-op decision."""

    def __init__(self, beta):
        self.calls = []
        self._beta = beta

    def configure(self, lambda_q, lambda_u, warm_start=None, quick=False):
        self.calls.append((lambda_q, lambda_u))
        return QuotaDecision(
            beta=dict(self._beta),
            regime="stable",
            predicted_response_time=0.01,
            traffic_intensity=0.5,
            configure_seconds=0.0,
            optimizer_result=None,
        )


class TestQuotaSystemDriftPath:
    def test_drift_triggers_reconfiguration(self):
        graph = barabasi_albert_graph(80, attach=2, seed=5)
        algorithm = Fora(graph, PPRParams(alpha=0.2, epsilon=0.5, walk_cap=16))
        algorithm.seed(0)
        controller = FakeController(algorithm.get_hyperparameters())
        detector = RateDriftDetector(
            configured_q=5.0,
            configured_u=2.0,
            window=4.0,
            threshold=0.5,
            min_events=15,
        )
        system = QuotaSystem(
            algorithm, controller, drift=detector
        )
        # rates 6x the configured pair: the detector must fire
        segments = [WorkloadSegment(6.0, 30.0, 12.0)]
        workload = generate_segmented_workload(graph, segments, rng=3)
        system.process(workload)
        assert controller.calls, "drift never triggered a reconfiguration"
        lambda_q, lambda_u = controller.calls[0]
        assert lambda_q > 15.0
        assert len(system.decisions) == len(controller.calls)

    def test_matching_rates_do_not_reconfigure(self):
        graph = barabasi_albert_graph(80, attach=2, seed=5)
        algorithm = Fora(graph, PPRParams(alpha=0.2, epsilon=0.5, walk_cap=16))
        algorithm.seed(0)
        controller = FakeController(algorithm.get_hyperparameters())
        detector = RateDriftDetector(
            configured_q=10.0,
            configured_u=5.0,
            window=5.0,
            threshold=0.8,
            min_events=15,
        )
        system = QuotaSystem(
            algorithm, controller, drift=detector
        )
        segments = [WorkloadSegment(6.0, 10.0, 5.0)]
        workload = generate_segmented_workload(graph, segments, rng=4)
        system.process(workload)
        assert controller.calls == []


#: (duration, lambda_q, lambda_u) phases of the replayed workload
PHASES = [
    WorkloadSegment(4.0, 5.0, 2.0),
    WorkloadSegment(4.0, 20.0, 2.0),
    WorkloadSegment(4.0, 5.0, 10.0),
]


def resolved_rates(drift):
    """The (lambda_q, lambda_u) of every re-solve a seeded three-phase
    replay asks for."""
    graph = barabasi_albert_graph(60, attach=2, seed=5)
    algorithm = Fora(graph, PPRParams(alpha=0.2, epsilon=0.5, walk_cap=16))
    algorithm.seed(0)
    controller = FakeController(algorithm.get_hyperparameters())
    system = QuotaSystem(algorithm, controller, drift=drift)
    system.process(generate_segmented_workload(graph, PHASES, rng=11))
    return controller.calls


class TestTriggerSequence:
    """Which arrivals re-solve, at which rates, pinned exactly.

    Triggers depend only on arrival times, so these lists hold on any
    host; they were recorded when the fixed-period loop and the drift
    detector were still two code paths in ``QuotaSystem``.
    """

    def test_fixed_period_configuration(self):
        assert resolved_rates(RateDriftDetector.periodic(1.0, window=3.0)) == [
            (5.133865562682566, 5.133865562682566),
            (6.8954845404914185, 3.6775917549287565),
            (5.0, 2.6666666666666665),
            (9.333333333333334, 2.6666666666666665),
            (16.0, 3.0),
            (18.333333333333332, 1.3333333333333333),
            (15.333333333333334, 4.0),
            (9.666666666666666, 8.666666666666666),
            (5.666666666666667, 12.333333333333334),
        ]

    def test_drift_configuration(self):
        detector = RateDriftDetector(
            5.0, 2.0, window=3.0, threshold=0.5, min_events=10
        )
        assert resolved_rates(detector) == [
            (7.270215642761331, 7.270215642761331),
            (6.5402896291015775, 3.2701448145507888),
            (10.0, 2.6666666666666665),
            (15.333333333333334, 3.3333333333333335),
            (18.333333333333332, 1.0),
            (18.333333333333332, 1.6666666666666667),
            (17.0, 2.6666666666666665),
            (15.333333333333334, 4.0),
            (13.0, 6.333333333333333),
            (9.333333333333334, 9.666666666666666),
            (4.333333333333333, 12.0),
        ]
