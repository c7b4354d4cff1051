"""Tests for PPRParams, PPRVector, and SubProcessTimers."""

import math
import time

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import PPRParams, PPRVector, SubProcessTimers, clip_unit
from repro.ppr.csr import csr_view


class TestPPRParams:
    def test_defaults_match_paper(self):
        p = PPRParams()
        assert p.alpha == 0.2
        assert p.epsilon == 0.5
        assert p.delta is None  # resolved to 1/n

    def test_resolved_delta_and_pf(self):
        p = PPRParams()
        assert p.resolved_delta(100) == pytest.approx(0.01)
        assert p.resolved_p_f(100) == pytest.approx(0.01)
        q = PPRParams(delta=0.05, p_f=0.02)
        assert q.resolved_delta(100) == 0.05
        assert q.resolved_p_f(100) == 0.02

    def test_num_walks_formula(self):
        p = PPRParams(walk_cap=10**12)
        n = 100
        expected = (2 * 0.5 / 3 + 2) * math.log(2 / 0.01) / (0.25 * 0.01)
        assert p.num_walks(n) == math.ceil(expected)

    def test_num_walks_respects_cap(self):
        p = PPRParams(walk_cap=500)
        assert p.num_walks(10**6) == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"epsilon": 0.0},
            {"delta": 1.5},
            {"p_f": -0.1},
            {"walk_cap": 0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            PPRParams(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PPRParams().alpha = 0.5


class TestPPRVector:
    def _vector(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        view = csr_view(g)
        values = np.array([0.5, 0.3, 0.2])
        return PPRVector(values, view, source=0)

    def test_getitem_by_node_id(self):
        vec = self._vector()
        assert vec[0] == 0.5
        assert vec[2] == 0.2

    def test_get_with_default(self):
        vec = self._vector()
        assert vec.get(99, default=-1.0) == -1.0

    def test_len_and_iter(self):
        vec = self._vector()
        assert len(vec) == 3
        assert sorted(vec) == [0, 1, 2]

    def test_as_dict_threshold(self):
        vec = self._vector()
        assert vec.as_dict(threshold=0.25) == {0: 0.5, 1: pytest.approx(0.3)}

    def test_top_k(self):
        vec = self._vector()
        top = vec.top_k(2)
        assert [node for node, _ in top] == [0, 1]
        assert vec.top_k(0) == []
        assert len(vec.top_k(10)) == 3  # clamped to n

    def test_negative_k_is_refused(self):
        """``argpartition`` reads a negative k as "all but |k|"."""
        with pytest.raises(ValueError, match="k must be >= 0"):
            self._vector().select(-1)

    def test_total_mass(self):
        assert self._vector().total_mass() == pytest.approx(1.0)


class TestSubProcessTimers:
    def test_measure_accumulates(self):
        timers = SubProcessTimers()
        with timers.measure("A"):
            time.sleep(0.002)
        with timers.measure("A"):
            time.sleep(0.002)
        assert timers.count("A") == 2
        assert timers.total("A") >= 0.004
        assert timers.mean("A") >= 0.002

    def test_add_pre_measured(self):
        timers = SubProcessTimers()
        timers.add("B", 1.5, count=3)
        assert timers.total("B") == 1.5
        assert timers.count("B") == 3
        assert timers.mean("B") == 0.5

    def test_unknown_name_is_zero(self):
        timers = SubProcessTimers()
        assert timers.total("nope") == 0.0
        assert timers.mean("nope") == 0.0

    def test_measure_charges_on_exception(self):
        timers = SubProcessTimers()
        with pytest.raises(RuntimeError):
            with timers.measure("C"):
                raise RuntimeError("boom")
        assert timers.count("C") == 1

    def test_snapshot_and_reset(self):
        timers = SubProcessTimers()
        timers.add("A", 1.0)
        snap = timers.snapshot()
        timers.reset()
        assert snap == {"A": 1.0}
        assert timers.total("A") == 0.0
        assert timers.names() == []


def test_clip_unit():
    assert clip_unit(0.5) == 0.5
    assert 0 < clip_unit(-3.0) < 1e-6
    assert 1 - 1e-6 < clip_unit(7.0) < 1
