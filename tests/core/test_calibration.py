"""Tests for tau calibration."""

import pytest

from repro.core.calibration import calibrate_taus, calibrated_cost_model
from repro.core.cost_models import cost_model_for
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.agenda import Agenda
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora, ForaPlus, ForaPlusIncremental


@pytest.fixture
def graph():
    return barabasi_albert_graph(150, attach=3, seed=9)


@pytest.fixture
def params():
    return PPRParams(walk_cap=1500)


class TestCalibrateTaus:
    def test_covers_all_subprocesses(self, graph, params):
        alg = Agenda(graph.copy(), params)
        model = cost_model_for(alg)
        taus = calibrate_taus(alg, model, num_queries=3, rng=0)
        expected = set(model.query_subprocesses) | set(model.update_subprocesses)
        assert expected <= set(taus)

    def test_taus_positive(self, graph, params):
        alg = Fora(graph.copy(), params)
        taus = calibrate_taus(alg, num_queries=3, rng=1)
        assert all(v >= 0 for v in taus.values())
        assert taus["Forward Push"] > 0
        assert taus["Graph Update"] > 0

    def test_does_not_mutate_production_state(self, graph, params):
        alg = ForaPlus(graph.copy(), params)
        edges_before = set(alg.graph.edges())
        beta_before = alg.get_hyperparameters()
        calibrate_taus(alg, num_queries=3, rng=2)
        assert set(alg.graph.edges()) == edges_before
        assert alg.get_hyperparameters() == beta_before

    def test_prediction_anchored_at_current_beta(self, graph, params):
        """The calibrated model's t_q at the probe point should be within
        an order of magnitude of a fresh measurement there."""
        import time

        alg = Fora(graph.copy(), params)
        alg.seed(0)
        model = calibrated_cost_model(alg, num_queries=5, rng=3)
        predicted = model.query_time(alg.get_hyperparameters(), 1.0, 1.0)

        start = time.perf_counter()
        runs = 5
        for i in range(runs):
            alg.query(i)
        measured = (time.perf_counter() - start) / runs
        assert predicted == pytest.approx(measured, rel=3.0)

    def test_probes_run_the_production_kernel(self, graph, params, monkeypatch):
        """Regression: the scratch copy dropped ``engine``, so tau was
        fitted on the scalar deque kernel while beta was then optimized
        for the frontier kernel's constants."""
        from repro.core import calibration

        probes = []
        scratch_copy = calibration.scratch_copy

        def recording_copy(algorithm):
            probes.append(scratch_copy(algorithm))
            return probes[-1]

        monkeypatch.setattr(calibration, "scratch_copy", recording_copy)
        alg = Fora(graph.copy(), params, engine="frontier")
        calibrate_taus(alg, num_queries=2, rng=4)
        assert len(probes) == len(calibration.DEFAULT_PROBE_SCALES)
        assert {probe.engine for probe in probes} == {"frontier"}

    def test_incremental_probe_patches_its_index(self, graph, params):
        """A FORA+inc probe measures the patch, not a rebuild — the
        "Index Update" row its cost model reads."""
        from repro.core.calibration import scratch_copy
        from repro.graph.updates import EdgeUpdate

        clone = scratch_copy(ForaPlusIncremental(graph.copy(), params))
        builds_before = clone.timers.count("Index Build")
        clone.apply_update(EdgeUpdate(0, 75))
        assert clone.timers.count("Index Update") == 1
        assert clone.timers.count("Index Build") == builds_before

    def test_zero_updates_skips_update_taus(self, graph, params):
        alg = Fora(graph.copy(), params)
        taus = calibrate_taus(alg, num_queries=2, updates_per_query=0, rng=4)
        assert "Graph Update" not in taus
        assert "Forward Push" in taus

    def test_validation(self, graph, params):
        alg = Fora(graph.copy(), params)
        with pytest.raises(ValueError):
            calibrate_taus(alg, num_queries=0)
        with pytest.raises(ValueError):
            calibrate_taus(alg, updates_per_query=-1)
        with pytest.raises(ValueError):
            calibrate_taus(alg, probe_scales=())


class TestCalibratedCostModel:
    def test_returns_matching_model(self, graph, params):
        alg = Agenda(graph.copy(), params)
        model = calibrated_cost_model(alg, num_queries=2, rng=5)
        assert model.algorithm_name == "Agenda"
        assert model.taus  # non-empty

    def test_single_probe_scale(self, graph, params):
        alg = Fora(graph.copy(), params)
        model = calibrated_cost_model(
            alg, num_queries=2, probe_scales=(1.0,), rng=6
        )
        assert model.taus["Forward Push"] > 0
