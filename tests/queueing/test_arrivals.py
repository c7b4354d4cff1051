"""Tests for arrival-time processes."""

import numpy as np
import pytest

from repro.queueing.arrivals import (
    GammaArrivals,
    GeometricArrivals,
    NormalArrivals,
    PoissonArrivals,
    TraceArrivals,
    UniformArrivals,
    wikipedia_like_trace,
)

ALL_PROCESSES = [
    PoissonArrivals,
    UniformArrivals,
    GeometricArrivals,
    NormalArrivals,
    GammaArrivals,
]


@pytest.mark.parametrize("cls", ALL_PROCESSES)
class TestCommonContract:
    def test_mean_rate_is_respected(self, cls):
        rng = np.random.default_rng(0)
        process = cls(rate=50.0)
        times = process.generate(200.0, rng)
        observed = times.size / 200.0
        assert observed == pytest.approx(50.0, rel=0.1)

    def test_sorted_within_window(self, cls):
        rng = np.random.default_rng(1)
        times = cls(rate=20.0).generate(10.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.size == 0 or (times[0] >= 0 and times[-1] < 10.0)

    def test_zero_window(self, cls):
        rng = np.random.default_rng(2)
        assert cls(rate=5.0).generate(0.0, rng).size == 0

    def test_invalid_rate(self, cls):
        with pytest.raises(ValueError):
            cls(rate=0.0)

    def test_deterministic_given_seed(self, cls):
        a = cls(rate=10.0).generate(20.0, np.random.default_rng(3))
        b = cls(rate=10.0).generate(20.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestDistributionShapes:
    def test_poisson_cv_close_to_one(self):
        rng = np.random.default_rng(4)
        gaps = PoissonArrivals(10.0).inter_arrivals(50_000, rng)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)

    def test_uniform_cv(self):
        rng = np.random.default_rng(5)
        gaps = UniformArrivals(10.0).inter_arrivals(50_000, rng)
        assert gaps.std() / gaps.mean() == pytest.approx(1 / 3**0.5, abs=0.05)

    def test_uniform_gaps_strictly_positive(self):
        """The open-interval contract: no zero gaps, ever."""
        rng = np.random.default_rng(55)
        gaps = UniformArrivals(10.0).inter_arrivals(200_000, rng)
        assert np.all(gaps > 0.0)
        assert np.all(gaps <= 2.0 / 10.0)

    def test_generate_guards_against_stalled_chunks(self):
        """A process whose gaps are all zero must raise, not spin."""

        class ZeroGaps(PoissonArrivals):
            def inter_arrivals(self, count, rng):
                return np.zeros(count, dtype=np.float64)

        rng = np.random.default_rng(56)
        with pytest.raises(RuntimeError, match="no.*progress|progress"):
            ZeroGaps(rate=5.0).generate(10.0, rng)

    def test_normal_respects_cv(self):
        rng = np.random.default_rng(6)
        gaps = NormalArrivals(10.0, cv=0.3).inter_arrivals(50_000, rng)
        assert gaps.std() / gaps.mean() == pytest.approx(0.3, abs=0.05)
        assert np.all(gaps > 0)

    def test_gamma_cv_from_shape(self):
        rng = np.random.default_rng(7)
        gaps = GammaArrivals(10.0, shape=4.0).inter_arrivals(50_000, rng)
        assert gaps.std() / gaps.mean() == pytest.approx(0.5, abs=0.05)

    def test_geometric_ticks(self):
        rng = np.random.default_rng(8)
        process = GeometricArrivals(10.0, tick=0.01)
        gaps = process.inter_arrivals(10_000, rng)
        assert np.all(np.isclose(gaps / 0.01, np.round(gaps / 0.01)))
        assert gaps.mean() == pytest.approx(0.1, rel=0.05)

    def test_geometric_invalid_tick(self):
        with pytest.raises(ValueError):
            GeometricArrivals(10.0, tick=0.2)  # p = 2 > 1

    def test_normal_invalid_cv(self):
        with pytest.raises(ValueError):
            NormalArrivals(1.0, cv=0.0)

    def test_gamma_invalid_shape(self):
        with pytest.raises(ValueError):
            GammaArrivals(1.0, shape=-1.0)


class TestTraceArrivals:
    def test_replay(self):
        trace = TraceArrivals([0.5, 1.5, 2.5, 9.0])
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(
            trace.generate(3.0, rng), [0.5, 1.5, 2.5]
        )

    def test_unsorted_input_sorted(self):
        trace = TraceArrivals([3.0, 1.0, 2.0])
        out = trace.generate(10.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            TraceArrivals([-1.0, 2.0])

    def test_rate_estimate(self):
        trace = TraceArrivals([0.0, 1.0, 2.0, 3.0, 4.0])
        assert trace.rate == pytest.approx(5.0 / 4.0)

    def test_all_zero_trace_rejected(self):
        """Multiple events at t=0 have no span; the old 1e-12 clamp
        produced a ~1e12 rate estimate."""
        with pytest.raises(ValueError, match="span"):
            TraceArrivals([0.0, 0.0, 0.0])

    def test_single_event_at_zero_sane_rate(self):
        trace = TraceArrivals([0.0])
        assert trace.rate == pytest.approx(1.0)

    def test_empty_trace(self):
        trace = TraceArrivals([])
        assert trace.rate > 0.0
        assert trace.generate(5.0, np.random.default_rng(0)).size == 0


class TestWikipediaLikeTrace:
    def test_mean_rate(self):
        rng = np.random.default_rng(10)
        times = wikipedia_like_trace(20.0, 500.0, rng)
        assert times.size / 500.0 == pytest.approx(20.0, rel=0.25)

    def test_burstier_than_poisson(self):
        """Windowed counts must be over-dispersed vs a Poisson process."""
        rng = np.random.default_rng(11)
        times = wikipedia_like_trace(50.0, 400.0, rng, burst_factor=9.0)
        counts, _ = np.histogram(times, bins=np.arange(0, 400, 2.0))
        # Poisson windowed counts have variance == mean; bursts inflate it
        assert counts.var() > 2.0 * counts.mean()

    def test_sorted_and_in_window(self):
        rng = np.random.default_rng(12)
        times = wikipedia_like_trace(5.0, 50.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.size == 0 or times[-1] < 50.0

    def test_invalid_arguments(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            wikipedia_like_trace(0.0, 10.0, rng)
        with pytest.raises(ValueError):
            wikipedia_like_trace(1.0, 0.0, rng)
