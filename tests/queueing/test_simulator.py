"""Tests for the virtual-time FCFS simulator, including the Lindley
invariants (property-based) and an M/M/1 validation against Eq. 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.updates import EdgeUpdate
from repro.queueing.arrivals import PoissonArrivals
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.simulator import FCFSQueueSimulator
from repro.queueing.theory import expected_response_time
from repro.queueing.workload import Request, Workload


def make_requests(arrivals, kind=QUERY):
    return [
        Request(float(t), kind, source=0)
        if kind == QUERY
        else Request(float(t), kind, update=EdgeUpdate(0, 1))
        for t in arrivals
    ]


class TestBasics:
    def test_single_request(self):
        sim = FCFSQueueSimulator(lambda r: 2.0)
        result = sim.run(make_requests([1.0]), t_end=10.0)
        (done,) = result.completed
        assert done.start == 1.0
        assert done.finish == 3.0
        assert done.response_time == 2.0
        assert done.waiting_time == 0.0

    def test_queueing_delay(self):
        """Back-to-back arrivals wait for the server."""
        sim = FCFSQueueSimulator(lambda r: 5.0)
        result = sim.run(make_requests([0.0, 1.0, 2.0]), t_end=30.0)
        starts = [c.start for c in result.completed]
        assert starts == [0.0, 5.0, 10.0]
        assert [c.response_time for c in result.completed] == [5.0, 9.0, 13.0]

    def test_idle_gap(self):
        sim = FCFSQueueSimulator(lambda r: 1.0)
        result = sim.run(make_requests([0.0, 100.0]), t_end=200.0)
        assert result.completed[1].start == 100.0
        assert result.completed[1].waiting_time == 0.0

    def test_mixed_kinds_fcfs_order(self):
        requests = [
            Request(0.0, UPDATE, update=EdgeUpdate(0, 1)),
            Request(0.5, QUERY, source=3),
        ]
        order = []
        sim = FCFSQueueSimulator(lambda r: order.append(r.kind) or 1.0)
        sim.run(requests, t_end=10.0)
        assert order == [UPDATE, QUERY]

    def test_negative_service_rejected(self):
        sim = FCFSQueueSimulator(lambda r: -1.0)
        with pytest.raises(ValueError):
            sim.run(make_requests([0.0]), t_end=1.0)

    def test_empty_workload(self):
        sim = FCFSQueueSimulator(lambda r: 1.0)
        result = sim.run([], t_end=5.0)
        assert len(result) == 0
        assert result.mean_query_response_time() == 0.0
        assert result.utilization() == 0.0


class TestResultMetrics:
    def _result(self):
        requests = make_requests([0.0, 0.0, 0.0]) + make_requests(
            [0.0], kind=UPDATE
        )
        sim = FCFSQueueSimulator(lambda r: 1.0 if r.kind == QUERY else 2.0)
        return sim.run(requests, t_end=10.0)

    def test_kind_filter(self):
        result = self._result()
        assert len(result.of_kind(QUERY)) == 3
        assert len(result.of_kind(UPDATE)) == 1

    def test_mean_service_per_kind(self):
        result = self._result()
        assert result.mean_service_time(QUERY) == 1.0
        assert result.mean_service_time(UPDATE) == 2.0

    def test_percentiles_monotone(self):
        result = self._result()
        p50 = result.percentile_query_response_time(50)
        p95 = result.percentile_query_response_time(95)
        assert p95 >= p50

    def test_empirical_load(self):
        result = self._result()
        assert result.empirical_load() == pytest.approx((3 * 1 + 2) / 10.0)

    def test_utilization_bounded(self):
        result = self._result()
        assert 0.0 < result.utilization() <= 1.0

    def test_percentile_rejects_fractional_quantile(self):
        """Regression: 0.99 (a fraction) used to be passed straight to
        np.percentile, silently returning ~the minimum instead of p99."""
        result = self._result()
        with pytest.raises(ValueError, match="fraction"):
            result.percentile_query_response_time(0.99)

    def test_percentile_rejects_out_of_range(self):
        result = self._result()
        with pytest.raises(ValueError):
            result.percentile_query_response_time(101.0)
        with pytest.raises(ValueError):
            result.percentile_query_response_time(-5.0)

    def test_percentile_accepts_bounds(self):
        result = self._result()
        assert result.percentile_query_response_time(0) >= 0.0
        assert result.percentile_query_response_time(100) >= 0.0


class TestHorizonAccounting:
    def test_raw_iterable_horizon_covers_service(self):
        """Regression: with no t_end the horizon used to stop at the
        last *arrival*, so an underloaded system could report rho > 1
        (e.g. one request arriving at t=0 with 1s of service gave
        busy/horizon = 1/0)."""
        sim = FCFSQueueSimulator(lambda r: 1.0)
        result = sim.run(make_requests([0.0, 0.5]))
        # arrivals end at 0.5 but service runs until t=2
        assert result.t_end == pytest.approx(2.0)
        assert result.utilization() <= 1.0
        assert result.empirical_load() <= 1.0

    def test_load_and_utilization_share_denominator(self):
        sim = FCFSQueueSimulator(lambda r: 3.0)
        result = sim.run(make_requests([0.0, 1.0, 2.0]))
        assert result.empirical_load() == pytest.approx(result.utilization())

    def test_busy_server_full_utilization(self):
        """Back-to-back work: utilization exactly 1 once the horizon
        spans arrivals and service."""
        sim = FCFSQueueSimulator(lambda r: 2.0)
        result = sim.run(make_requests([0.0, 0.0, 0.0]))
        assert result.utilization() == pytest.approx(1.0)

    def test_explicit_t_end_still_respected(self):
        sim = FCFSQueueSimulator(lambda r: 1.0)
        result = sim.run(make_requests([0.0]), t_end=10.0)
        assert result.t_end == 10.0
        assert result.empirical_load() == pytest.approx(0.1)

    def test_overrun_extends_horizon_for_both_metrics(self):
        """Service past the window extends the shared denominator."""
        sim = FCFSQueueSimulator(lambda r: 8.0)
        result = sim.run(make_requests([0.0]), t_end=2.0)
        assert result.horizon == pytest.approx(8.0)
        assert result.utilization() == pytest.approx(1.0)
        assert result.empirical_load() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Property: Lindley recursion invariants hold for any workload.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(st.floats(0, 100), min_size=1, max_size=40),
    services=st.lists(st.floats(0, 10), min_size=40, max_size=40),
)
def test_lindley_invariants(arrivals, services):
    requests = make_requests(sorted(arrivals))
    queue = iter(services)
    sim = FCFSQueueSimulator(lambda r: next(queue))
    result = sim.run(requests, t_end=200.0)
    previous_finish = 0.0
    for done in result.completed:
        # no service before arrival, no overlap, FCFS completion order
        assert done.start >= done.arrival
        assert done.start >= previous_finish
        assert done.finish == pytest.approx(done.start + done.service)
        assert done.response_time >= done.service - 1e-9
        previous_finish = done.finish


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 50), min_size=2, max_size=30))
def test_unsorted_iterable_is_sorted(arrivals):
    sim = FCFSQueueSimulator(lambda r: 0.1)
    result = sim.run(make_requests(arrivals))
    processed = [c.arrival for c in result.completed]
    assert processed == sorted(processed)


# ----------------------------------------------------------------------
# Statistical validation: simulated M/M/1 matches Eq. 2.
# ----------------------------------------------------------------------
def test_simulator_matches_eq2_for_mm1():
    rng = np.random.default_rng(7)
    lam, mu = 5.0, 10.0
    t_end = 4000.0
    times = PoissonArrivals(lam).generate(t_end, rng)
    requests = make_requests(times)
    sim = FCFSQueueSimulator(lambda r: float(rng.exponential(1.0 / mu)))
    result = sim.run(Workload(requests, t_end, lam, 0.0))
    theory = expected_response_time(lam, 0.0, 1.0 / mu, 0.0, cv_q=1.0)
    assert result.mean_query_response_time() == pytest.approx(theory, rel=0.1)


def test_simulator_matches_eq2_for_mixed_stream():
    """Queries + updates with deterministic service (CV = 0)."""
    rng = np.random.default_rng(8)
    lam_q, lam_u = 4.0, 2.0
    t_q, t_u = 0.05, 0.1
    t_end = 5000.0
    q_times = PoissonArrivals(lam_q).generate(t_end, rng)
    u_times = PoissonArrivals(lam_u).generate(t_end, rng)
    requests = make_requests(q_times) + make_requests(u_times, kind=UPDATE)
    requests.sort(key=lambda r: r.arrival)
    sim = FCFSQueueSimulator(lambda r: t_q if r.kind == QUERY else t_u)
    result = sim.run(Workload(requests, t_end, lam_q, lam_u))
    theory = expected_response_time(lam_q, lam_u, t_q, t_u, cv_q=0.0, cv_u=0.0)
    assert result.mean_query_response_time() == pytest.approx(theory, rel=0.15)


def test_unstable_queue_grows_linearly():
    """Lemma 1: response time of the n-th query grows like n (rho-1)/lq."""
    lam = 10.0
    service = 0.2  # rho = 2
    t_end = 200.0
    rng = np.random.default_rng(9)
    times = PoissonArrivals(lam).generate(t_end, rng)
    requests = make_requests(times)
    sim = FCFSQueueSimulator(lambda r: service)
    result = sim.run(Workload(requests, t_end, lam, 0.0))
    n = len(result.completed)
    last = result.completed[-1]
    growth = last.response_time / n
    assert growth == pytest.approx((2.0 - 1.0) / lam, rel=0.15)
