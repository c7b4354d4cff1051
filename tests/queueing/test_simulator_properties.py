"""Deeper queueing-theory properties of the virtual-time simulator.

Beyond the Lindley invariants: work conservation, Little's law, PASTA-
style consistency — the classic identities any correct FCFS simulation
must satisfy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.arrivals import PoissonArrivals
from repro.queueing.kinds import QUERY
from repro.queueing.replay import ModeledExecutor, replay
from repro.queueing.workload import Request, Workload


def poisson_workload(lam, t_end, seed, service_seed=None):
    rng = np.random.default_rng(seed)
    times = PoissonArrivals(lam).generate(t_end, rng)
    requests = [Request(float(t), QUERY, source=0) for t in times]
    return Workload(requests, t_end, lam, 0.0)


class TestLittlesLaw:
    """L = lambda * W: mean number in system equals arrival rate times
    mean response time (computed from the completion records)."""

    @pytest.mark.parametrize("lam,service", [(4.0, 0.1), (8.0, 0.1)])
    def test_littles_law_holds(self, lam, service):
        t_end = 2000.0
        workload = poisson_workload(lam, t_end, seed=1)
        result = replay(workload, ModeledExecutor(lambda r: service))
        # time-average number in system via the completion intervals
        horizon = max(c.finish for c in result.completed)
        total_sojourn = sum(c.response_time for c in result.completed)
        l_avg = total_sojourn / horizon
        lam_effective = len(result.completed) / horizon
        w_avg = result.mean_query_response_time()
        assert l_avg == pytest.approx(lam_effective * w_avg, rel=0.02)


class TestWorkConservation:
    def test_busy_time_equals_total_service(self):
        workload = poisson_workload(5.0, 100.0, seed=2)
        rng = np.random.default_rng(3)
        services = {}

        def service_fn(request):
            services[id(request)] = float(rng.uniform(0.01, 0.2))
            return services[id(request)]

        result = replay(workload, ModeledExecutor(service_fn))
        assert result.total_busy_time() == pytest.approx(
            sum(services.values())
        )

    def test_no_server_idling_while_work_waits(self):
        """If a request waited, the server was busy the whole wait."""
        workload = poisson_workload(20.0, 50.0, seed=4)
        result = replay(workload, ModeledExecutor(lambda r: 0.08))
        completions = result.completed
        for prev, cur in zip(completions, completions[1:]):
            if cur.waiting_time > 1e-12:
                # waiting implies back-to-back service
                assert cur.start == pytest.approx(prev.finish)


class TestScalingLaws:
    def test_response_time_scales_with_service_time(self):
        """Scaling all service times by c scales response times by c
        when arrivals are scaled oppositely (time-unit invariance)."""
        lam = 5.0
        t_end = 500.0
        base_workload = poisson_workload(lam, t_end, seed=5)
        base = replay(base_workload, ModeledExecutor(lambda r: 0.1))

        scaled_requests = [
            Request(r.arrival * 2.0, r.kind, source=r.source)
            for r in base_workload
        ]
        scaled = replay(
            Workload(scaled_requests, t_end * 2.0, lam / 2.0, 0.0),
            ModeledExecutor(lambda r: 0.2),
        )
        assert scaled.mean_query_response_time() == pytest.approx(
            2.0 * base.mean_query_response_time(), rel=1e-9
        )

    def test_utilization_approaches_offered_load(self):
        lam, service = 6.0, 0.1  # rho = 0.6
        workload = poisson_workload(lam, 2000.0, seed=6)
        result = replay(workload, ModeledExecutor(lambda r: service))
        assert result.utilization() == pytest.approx(0.6, rel=0.05)


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(0.5, 20.0),
    service=st.floats(0.001, 0.04),
    seed=st.integers(0, 100),
)
def test_response_time_at_least_service(lam, service, seed):
    workload = poisson_workload(lam, 20.0, seed=seed)
    result = replay(workload, ModeledExecutor(lambda r: service))
    for completed in result.completed:
        assert completed.response_time >= service - 1e-12
