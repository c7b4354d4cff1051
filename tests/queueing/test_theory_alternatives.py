"""Tests for the alternative response-time estimates (M/M/1, Kingman)."""

import math

import numpy as np
import pytest

from repro.queueing.arrivals import PoissonArrivals
from repro.queueing.kinds import QUERY
from repro.queueing.simulator import FCFSQueueSimulator
from repro.queueing.theory import (
    expected_response_time,
    heavy_traffic_response_time,
    mm1_response_time,
)
from repro.queueing.workload import Request, Workload


class TestMM1Estimate:
    def test_pure_query_stream_matches_classic(self):
        lam, mu = 4.0, 10.0
        got = mm1_response_time(lam, 0.0, 1.0 / mu, 0.0)
        assert got == pytest.approx(1.0 / (mu - lam))

    def test_infinite_when_unstable(self):
        assert mm1_response_time(10.0, 10.0, 0.1, 0.1) == math.inf

    def test_zero_rate_returns_service(self):
        assert mm1_response_time(0.0, 0.0, 0.25, 0.1) == 0.25

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            mm1_response_time(1.0, 1.0, -0.1, 0.1)

    def test_agrees_with_eq2_for_exponential_queries(self):
        """For a pure M/M/1 stream the two estimates coincide."""
        lam, mu = 5.0, 12.0
        a = mm1_response_time(lam, 0.0, 1.0 / mu, 0.0)
        b = expected_response_time(lam, 0.0, 1.0 / mu, 0.0, cv_q=1.0)
        assert a == pytest.approx(b)


class TestHeavyTrafficEstimate:
    def test_exact_for_mm1(self):
        """Kingman is exact for M/M/1 (C_a = C_s = 1)."""
        lam, mu = 6.0, 10.0
        got = heavy_traffic_response_time(lam, 0.0, 1.0 / mu, 0.0, cv_q=1.0)
        assert got == pytest.approx(1.0 / (mu - lam))

    def test_deterministic_service_halves_waiting(self):
        """M/D/1 waiting is half of M/M/1 waiting."""
        lam, mu = 6.0, 10.0
        t = 1.0 / mu
        md1 = heavy_traffic_response_time(lam, 0.0, t, 0.0, cv_q=0.0)
        mm1 = heavy_traffic_response_time(lam, 0.0, t, 0.0, cv_q=1.0)
        waiting_md1 = md1 - t
        waiting_mm1 = mm1 - t
        assert waiting_md1 == pytest.approx(waiting_mm1 / 2.0, rel=0.01)

    def test_infinite_when_unstable(self):
        assert heavy_traffic_response_time(10.0, 10.0, 0.1, 0.1) == math.inf

    def test_arrival_cv_scales_waiting(self):
        smooth = heavy_traffic_response_time(
            5.0, 0.0, 0.1, 0.0, cv_arrival=0.0
        )
        bursty = heavy_traffic_response_time(
            5.0, 0.0, 0.1, 0.0, cv_arrival=2.0
        )
        assert bursty > smooth

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            heavy_traffic_response_time(1.0, 0.0, -0.1, 0.0)


def test_all_estimates_agree_with_simulation():
    """All three estimates should land near a simulated M/M/1 queue."""
    rng = np.random.default_rng(3)
    lam, mu = 5.0, 10.0
    t_end = 3000.0
    times = PoissonArrivals(lam).generate(t_end, rng)
    requests = [Request(float(t), QUERY, source=0) for t in times]
    sim = FCFSQueueSimulator(lambda r: float(rng.exponential(1.0 / mu)))
    measured = sim.run(
        Workload(requests, t_end, lam, 0.0)
    ).mean_query_response_time()
    for estimate in (
        expected_response_time(lam, 0.0, 1.0 / mu, 0.0),
        mm1_response_time(lam, 0.0, 1.0 / mu, 0.0),
        heavy_traffic_response_time(lam, 0.0, 1.0 / mu, 0.0),
    ):
        assert measured == pytest.approx(estimate, rel=0.15)


class TestControllerResponseModels:
    def _controller(self, model_name):
        from repro.core.cost_models import ForaCostModel
        from repro.core.quota import QuotaController

        model = ForaCostModel(
            1000, 5000,
            taus={"Forward Push": 1e-5, "Random Walk": 1e-3,
                  "Graph Update": 1e-4},
        )
        return QuotaController(model, response_model=model_name)

    @pytest.mark.parametrize("name", ["pk", "mm1", "heavy-traffic"])
    def test_each_model_configures(self, name):
        decision = self._controller(name).configure(5.0, 5.0)
        assert 0 < decision.beta["r_max"] < 1
        assert decision.regime == "stable"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="response_model"):
            self._controller("erlang-c")

    def test_models_agree_at_zero_load(self):
        """All estimates reduce to t_q as rates -> 0, so the chosen
        beta converges to the same query-time optimum."""
        betas = [
            self._controller(name).configure(1e-6, 0.0).beta["r_max"]
            for name in ("pk", "mm1", "heavy-traffic")
        ]
        assert max(betas) / min(betas) < 1.1
