"""Tests for the cost-model fit diagnostics."""

import pytest

from repro.core.calibration import calibrated_cost_model
from repro.core.cost_models import cost_model_for
from repro.evaluation.validation import FitPoint, FitReport, model_fit_report
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.ppr.topk import ForaTopK


@pytest.fixture(scope="module")
def algorithm():
    graph = barabasi_albert_graph(120, attach=3, seed=50)
    return Fora(graph, PPRParams(walk_cap=1000))


class TestFitPoint:
    def test_log_errors(self):
        point = FitPoint(
            beta={"r_max": 0.1},
            measured_t_q=0.01,
            predicted_t_q=0.1,   # 10x off -> log error 1
            measured_t_u=0.01,
            predicted_t_u=0.01,  # exact -> 0
        )
        assert point.log_error_q() == pytest.approx(1.0)
        assert point.log_error_u() == pytest.approx(0.0)


class TestFitReport:
    def _report(self):
        good = FitPoint({"r": 0.1}, 0.01, 0.011, 0.02, 0.02)
        bad = FitPoint({"r": 0.2}, 0.01, 0.2, 0.02, 0.4)
        return FitReport(points=[good, bad])

    def test_aggregates(self):
        report = self._report()
        assert 0 < report.mean_log_error_q() < 1.5
        assert report.worst_log_error() > 1.0

    def test_within_factor(self):
        report = self._report()
        # the good point's two predictions are within 2x; the bad
        # point's two are not
        assert report.within_factor(2.0) == pytest.approx(0.5)
        assert report.within_factor(1000.0) == 1.0

    def test_empty_report(self):
        report = FitReport()
        assert report.mean_log_error_q() == 0.0
        assert report.worst_log_error() == 0.0
        assert report.within_factor(2.0) == 1.0


class TestModelFitReport:
    def test_calibrated_model_fits_near_anchor(self, algorithm):
        model = calibrated_cost_model(algorithm, rng=0)
        report = model_fit_report(
            algorithm, model, scales=(0.5, 1.0, 2.0), rng=1
        )
        assert len(report.points) == 3
        # near the calibration anchor the model should be within ~4x
        assert report.within_factor(4.0) >= 0.5

    def test_uncalibrated_model_fits_worse(self, algorithm):
        calibrated = calibrated_cost_model(algorithm, rng=0)
        unit = cost_model_for(algorithm)  # all taus = 1
        scales = (0.5, 1.0, 2.0)
        good = model_fit_report(algorithm, calibrated, scales=scales, rng=2)
        bad = model_fit_report(algorithm, unit, scales=scales, rng=2)
        assert good.mean_log_error_q() < bad.mean_log_error_q()

    def test_points_record_probed_betas(self, algorithm):
        model = calibrated_cost_model(algorithm, rng=0)
        report = model_fit_report(algorithm, model, scales=(0.5, 2.0), rng=3)
        r_values = [p.beta["r_max"] for p in report.points]
        assert r_values[0] < r_values[1]

    def test_probes_run_the_algorithm_as_configured(self, monkeypatch):
        """Regression: probes were rebuilt from (graph, params) alone, so a
        model calibrated on the frontier kernel was scored against
        scalar-push timings, and a top-3 model against top-10 probes."""
        graph = barabasi_albert_graph(120, attach=3, seed=50)
        params = PPRParams(walk_cap=500)
        probed = []
        for cls in (Fora, ForaTopK):
            def spy(self, source, query=cls.query):
                k = getattr(self, "k", None)
                probed.append((self.name, self.engine, k))
                return query(self, source)

            monkeypatch.setattr(cls, "query", spy)
        fora = Fora(graph.copy(), params, engine="frontier")
        topk = ForaTopK(graph.copy(), params, k=3)
        for algorithm in (fora, topk):
            model_fit_report(
                algorithm, cost_model_for(algorithm), scales=(0.5, 2.0),
                num_queries=2, rng=4,
            )
        assert probed == [("FORA", "frontier", None)] * 4 + [
            ("FORA-TopK", "scalar", 3)
        ] * 4
