"""RateDriftDetector + the QuotaSystem event-driven re-optimization path."""

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
            algorithm, controller, drift_detector=detector
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
            algorithm, controller, drift_detector=detector
        )
        segments = [WorkloadSegment(6.0, 10.0, 5.0)]
        workload = generate_segmented_workload(graph, segments, rng=4)
        system.process(workload)
        assert controller.calls == []
