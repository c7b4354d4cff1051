"""Tests for the multi-server extension of the FCFS simulator."""

import math

import numpy as np
import pytest

from repro.queueing.arrivals import PoissonArrivals
from repro.queueing.kinds import QUERY
from repro.queueing.simulator import FCFSQueueSimulator
from repro.queueing.workload import Request, Workload


def queries(arrivals):
    return [Request(float(t), QUERY, source=0) for t in arrivals]


class TestDispatch:
    def test_two_servers_run_in_parallel(self):
        sim = FCFSQueueSimulator(lambda r: 10.0, servers=2, modeled=True)
        result = sim.run(queries([0.0, 0.0]), t_end=20.0)
        starts = sorted(c.start for c in result.completed)
        assert starts == [0.0, 0.0]  # no waiting with 2 servers

    def test_third_request_waits(self):
        sim = FCFSQueueSimulator(lambda r: 10.0, servers=2, modeled=True)
        result = sim.run(queries([0.0, 0.0, 0.0]), t_end=40.0)
        starts = sorted(c.start for c in result.completed)
        assert starts == [0.0, 0.0, 10.0]

    def test_single_server_unchanged(self):
        """servers=1 must replicate the original sequential behaviour."""
        arrivals = [0.0, 1.0, 2.0, 3.0]
        a = FCFSQueueSimulator(lambda r: 2.5).run(
            queries(arrivals), t_end=30.0
        )
        b = FCFSQueueSimulator(lambda r: 2.5, servers=1, modeled=True).run(
            queries(arrivals), t_end=30.0
        )
        assert [c.finish for c in a.completed] == [
            c.finish for c in b.completed
        ]

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            FCFSQueueSimulator(lambda r: 1.0, servers=0)

    def test_fcfs_start_order_preserved(self):
        """Requests start in arrival order even across servers."""
        rng = np.random.default_rng(0)
        arrivals = sorted(rng.uniform(0, 10, size=40))
        services = iter(rng.uniform(0.1, 1.0, size=40))
        sim = FCFSQueueSimulator(lambda r: next(services), servers=3, modeled=True)
        result = sim.run(queries(arrivals), t_end=60.0)
        starts = [c.start for c in result.completed]
        assert starts == sorted(starts)


class TestScaling:
    def test_more_servers_lower_response(self):
        """An overloaded single server is rescued by parallelism."""
        rng = np.random.default_rng(1)
        lam = 10.0
        t_end = 200.0
        times = PoissonArrivals(lam).generate(t_end, rng)
        requests = queries(times)
        service = 0.15  # rho = 1.5 on one server

        def run(k):
            sim = FCFSQueueSimulator(lambda r: service, servers=k, modeled=True)
            return sim.run(
                Workload(list(requests), t_end, lam, 0.0)
            ).mean_query_response_time()

        r1, r2, r4 = run(1), run(2), run(4)
        assert r2 < r1 / 2
        assert r4 < r2

    def test_mmc_sanity(self):
        """M/M/2 at rho=0.375 per server: response close to theory."""
        rng = np.random.default_rng(2)
        lam, mu, c = 7.5, 10.0, 2
        t_end = 4000.0
        times = PoissonArrivals(lam).generate(t_end, rng)
        sim = FCFSQueueSimulator(
            lambda r: float(rng.exponential(1.0 / mu)), servers=c, modeled=True
        )
        measured = sim.run(
            Workload(queries(times), t_end, lam, 0.0)
        ).mean_query_response_time()
        # Erlang-C for M/M/2: W = C(2, a)/(c mu - lam) + 1/mu
        a = lam / mu
        rho = a / c
        erlang_c = (a**c / math.factorial(c) / (1 - rho)) / (
            sum(a**k / math.factorial(k) for k in range(c))
            + a**c / math.factorial(c) / (1 - rho)
        )
        theory = erlang_c / (c * mu - lam) + 1.0 / mu
        assert measured == pytest.approx(theory, rel=0.1)
