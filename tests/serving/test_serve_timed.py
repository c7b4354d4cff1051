"""Open-loop paced replay (``ServingRuntime.serve_timed``)."""

import time

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.queueing.kinds import QUERY
from repro.queueing.workload import Request, Workload
from repro.serving.runtime import OK, ServingRuntime


def make_runtime(**kwargs):
    graph = barabasi_albert_graph(80, attach=2, seed=2)
    algorithm = Fora(graph, PPRParams(alpha=0.2, epsilon=0.5, walk_cap=16))
    algorithm.seed(0)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ServingRuntime(algorithm, **kwargs)


def spaced_workload(count=8, gap=0.2):
    requests = [
        Request(i * gap, QUERY, source=i % 20) for i in range(count)
    ]
    return Workload(requests, count * gap, 1.0 / gap, 0.0)


class TestServeTimed:
    def test_rejects_non_positive_time_scale(self):
        runtime = make_runtime()
        with runtime:
            with pytest.raises(ValueError, match="time_scale"):
                runtime.serve_timed(spaced_workload(), time_scale=0.0)

    def test_paces_submissions_to_arrival_times(self):
        runtime = make_runtime()
        workload = spaced_workload(count=6, gap=0.3)
        scale = 0.1
        with runtime:
            started = time.perf_counter()
            report = runtime.serve_timed(workload, time_scale=scale)
            elapsed = time.perf_counter() - started
        # last arrival is 1.5 virtual seconds -> >= 0.15 wall seconds
        assert elapsed >= workload.requests[-1].arrival * scale
        assert len(report.records) == len(workload)
        assert all(r.status == OK for r in report.records)

    def test_on_submit_hook_sees_every_request_in_order(self):
        runtime = make_runtime()
        workload = spaced_workload(count=5, gap=0.1)
        seen = []
        with runtime:
            runtime.serve_timed(
                workload,
                time_scale=0.05,
                on_submit=lambda request, now: seen.append(
                    (request.arrival, now)
                ),
            )
        assert [arrival for arrival, _ in seen] == [
            r.arrival for r in workload
        ]
        wall_times = [now for _, now in seen]
        assert wall_times == sorted(wall_times)

    def test_report_covers_only_this_replay(self):
        runtime = make_runtime()
        with runtime:
            first = runtime.serve(spaced_workload(count=4))
            second = runtime.serve_timed(
                spaced_workload(count=3), time_scale=0.01
            )
        assert len(first.records) == 4
        assert len(second.records) == 3
