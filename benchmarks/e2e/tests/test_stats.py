"""Window aggregation: median of windows, pooled failures, the ten-beyond rule."""

import math

import pytest

from benchmarks.e2e import stats
from benchmarks.e2e.loadgen import QUERY, UPDATE, Sample


def _query(due: float, latency_s: float, status: int = 200) -> Sample:
    return Sample(QUERY, 0, due, due, done=due + latency_s, status=status)


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.supports_percentile(200, 95.0)
    assert not stats.supports_percentile(199, 95.0)
    assert stats.supports_percentile(1000, 99.0)
    assert not stats.supports_percentile(450, 99.0)


def test_reported_timings_are_the_median_of_the_windows():
    samples = []
    for window, latency in enumerate((0.030, 0.010, 0.020)):
        samples += [_query(window * 2.0 + i * 0.01, latency) for i in range(100)]
    metrics = stats.client_metrics(samples, 2.0, 3)
    for name in ("query_p50_ms", "query_mean_ms"):
        assert metrics[name]["windows"] == pytest.approx([30.0, 10.0, 20.0])
        assert metrics[name]["value"] == pytest.approx(20.0)


def test_one_slow_window_of_three_does_not_hide_behind_a_quiet_one():
    # two of three windows regress: the reported value must follow them
    samples = []
    for window, latency in enumerate((0.010, 0.050, 0.050)):
        samples += [_query(window * 2.0 + i * 0.01, latency) for i in range(100)]
    metrics = stats.client_metrics(samples, 2.0, 3)
    assert metrics["query_p50_ms"]["value"] == pytest.approx(50.0)


def test_p95_is_windowed_only_when_every_window_supports_it():
    def run(per_window: int) -> dict[str, object]:
        samples = []
        for window, latency in enumerate((0.030, 0.010, 0.020)):
            samples += [
                _query(window * 2.0 + i * 0.001, latency)
                for i in range(per_window)
            ]
        return stats.client_metrics(samples, 2.0, 3)["query_p95_ms"]

    windowed = run(200)
    assert windowed["windows"] == pytest.approx([30.0, 10.0, 20.0])
    assert windowed["value"] == pytest.approx(20.0)
    # 199 per window: fewer than ten beyond p95 in each, so the pooled 597
    pooled = run(199)
    assert pooled["windows"] == []
    assert pooled["value"] == pytest.approx(30.0)


def test_p99_is_reported_only_with_ten_samples_beyond_it():
    few = [_query(i * 0.001, 0.002) for i in range(999)]
    assert "client.query_p99_ms" not in stats.pooled(few, 2.0, 1)
    enough = few + [_query(0.9995, 0.002)]
    assert stats.pooled(enough, 2.0, 1)["client.query_p99_ms"] == (
        pytest.approx(2.0)
    )


def test_goodput_is_the_reply_rate_measured_inside_each_window():
    # window 0: a reply every 0.1 s; window 1: every 0.2 s, and one more
    # due inside the span whose reply arrives after it
    samples = [_query(0.1 * i, 0.05) for i in range(19)]
    samples += [_query(2.0 + 0.2 * i, 0.05) for i in range(9)]
    samples.append(_query(3.99, 0.02))
    metrics = stats.client_metrics(samples, 2.0, 2)
    assert metrics["goodput_rps"]["windows"] == pytest.approx([10.0, 5.0])
    assert metrics["goodput_rps"]["value"] == pytest.approx(7.5)


def test_no_replies_is_no_goodput():
    assert stats.client_metrics([], 2.0, 2)["goodput_rps"]["value"] == 0.0


def test_warmup_and_overrun_samples_are_discarded():
    samples = [_query(-1.0, 0.5), _query(1.0, 0.002), _query(2.5, 0.5)]
    samples.append(Sample(UPDATE, 0, 1.5, 1.5, done=1.504, status=200))
    metrics = stats.client_metrics(samples, 2.0, 1)
    assert metrics["query_p50_ms"]["value"] == pytest.approx(2.0)
    assert metrics["update_ack_p50_ms"]["value"] == pytest.approx(4.0)
    assert stats.counts(samples, 2.0, 1)["attempted"] == 2


def test_failures_are_pooled_over_the_run_not_hidden_by_a_median_window():
    samples = [_query(0.5, 0.002), _query(1.0, 0.5, status=503)]
    samples.append(Sample(QUERY, 0, 1.5, 1.5))  # never answered: status 0
    samples.append(_query(2.5, 0.002))  # a clean second window
    metrics = stats.client_metrics(samples, 2.0, 2)
    assert metrics["fail_ratio"]["value"] == pytest.approx(2 / 4)
    assert metrics["query_mean_ms"]["value"] == pytest.approx(2.0)
    counts = stats.counts(samples, 2.0, 2)
    assert (counts["attempted"], counts["succeeded"], counts["failed"]) == (4, 2, 2)


def test_generator_lag_is_sent_minus_due():
    late = Sample(QUERY, 0, 1.0, 1.004, done=1.010, status=200)
    assert stats.pooled([late], 2.0, 1)["client.sched_lag_p99_ms"] == (
        pytest.approx(4.0)
    )


def test_an_empty_window_yields_nan_not_a_made_up_number():
    metrics = stats.client_metrics([_query(1.0, 0.002)], 2.0, 3)
    assert math.isnan(metrics["query_p50_ms"]["value"])
    assert math.isnan(metrics["update_ack_p50_ms"]["value"])
