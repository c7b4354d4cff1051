"""Scenario DSL: builders, text-spec parsing, compilation invariants."""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import dynamic_pattern_segments
from repro.scenarios.dsl import (
    FAMILIES,
    Scenario,
    build_scenario,
    cache_buster,
    diurnal,
    edge_replay,
    flash_crowd,
    load_edge_stream,
    paper_pattern,
    parse_scenario,
    update_storm,
    zipf_hotset,
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(120, attach=2, seed=3)


class TestBuilders:
    def test_every_family_builds_with_defaults(self):
        for name, builder in FAMILIES.items():
            scenario = builder()
            assert scenario.family == name
            assert scenario.t_end > 0
            assert all(s.duration > 0 for s in scenario.segments)

    def test_flash_crowd_spike_segment(self):
        scenario = flash_crowd(
            t_end=20.0, lambda_q=5.0, spike_factor=40.0, spike_at=0.5
        )
        rates = [s.lambda_q for s in scenario.segments]
        assert max(rates) == pytest.approx(200.0)
        assert rates[0] == pytest.approx(5.0)

    def test_update_storm_carries_epsilon_r(self):
        assert update_storm(epsilon_r=0.4).epsilon_r == pytest.approx(0.4)

    def test_diurnal_rates_oscillate(self):
        scenario = diurnal(lambda_q=20.0, amplitude=0.8)
        rates = [s.lambda_q for s in scenario.segments]
        assert max(rates) > 30.0
        assert min(rates) < 10.0
        assert all(r > 0 for r in rates)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            flash_crowd(spike_factor=1.0)
        with pytest.raises(ValueError):
            update_storm(storm_at=1.5)
        with pytest.raises(ValueError):
            diurnal(amplitude=1.0)
        with pytest.raises(ValueError):
            zipf_hotset(exponent=0.0)
        with pytest.raises(ValueError):
            Scenario(name="x", family="x", segments=())


class TestSpecParsing:
    def test_bare_family(self):
        assert parse_scenario("cache-buster").family == "cache-buster"

    def test_kwargs(self):
        scenario = parse_scenario("flash-crowd(spike_factor=40,spike_at=0.25)")
        assert scenario.family == "flash-crowd"
        assert max(s.lambda_q for s in scenario.segments) == pytest.approx(
            400.0
        )

    def test_string_value(self):
        scenario = parse_scenario("paper-pattern(pattern='balanced')")
        assert scenario.name == "paper:balanced"

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            parse_scenario("tsunami")

    def test_unbalanced_parens(self):
        with pytest.raises(ValueError, match="unbalanced"):
            parse_scenario("flash-crowd(spike_factor=40")

    def test_not_key_value(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_scenario("flash-crowd(40)")

    def test_build_scenario_needs_family(self):
        with pytest.raises(ValueError, match="family"):
            build_scenario({"spike_factor": 40})


class TestCompile:
    def test_sorted_and_in_window(self, graph):
        scenario = flash_crowd(t_end=10.0, lambda_q=8.0, spike_factor=15.0)
        workload = scenario.compile(graph, rng=0)
        arrivals = [r.arrival for r in workload]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < workload.t_end for a in arrivals)
        assert workload.num_queries > 0 and workload.num_updates > 0

    def test_cache_buster_sources_balanced(self, graph):
        scenario = cache_buster(t_end=60.0, lambda_q=30.0, lambda_u=0.5)
        workload = scenario.compile(graph, rng=1)
        counts: dict[int, int] = {}
        for r in workload:
            if r.kind == QUERY:
                counts[r.source] = counts.get(r.source, 0) + 1
        # round-robin over a fixed permutation: per-node counts differ
        # by at most one — the defining anti-cache property
        assert max(counts.values()) - min(counts.values()) <= 1
        assert len(counts) == graph.num_nodes

    def test_zipf_sources_skewed_and_shifting(self, graph):
        scenario = zipf_hotset(
            t_end=40.0, lambda_q=50.0, lambda_u=0.0, exponent=1.4, shift_at=0.5
        )
        workload = scenario.compile(graph, rng=2)
        shift_t = 20.0
        early: dict[int, int] = {}
        late: dict[int, int] = {}
        for r in workload:
            if r.kind != QUERY:
                continue
            bucket = early if r.arrival < shift_t else late
            bucket[r.source] = bucket.get(r.source, 0) + 1
        total_early = sum(early.values())
        top_early = max(early.values())
        # heavily skewed: the hottest source dwarfs the uniform share
        assert top_early / total_early > 5.0 / graph.num_nodes
        # the hot set re-rolls at the shift: the early top-5 should not
        # all stay in the late top-5 (independent permutations)
        top5_early = set(sorted(early, key=early.get, reverse=True)[:5])
        top5_late = set(sorted(late, key=late.get, reverse=True)[:5])
        assert top5_early != top5_late

    def test_edge_replay_preserves_stream_order(self, graph):
        stream = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        scenario = edge_replay(t_end=12.0, lambda_q=2.0, edges=stream)
        workload = scenario.compile(graph, rng=3)
        replayed = [
            (r.update.u, r.update.v) for r in workload if r.kind == UPDATE
        ]
        assert replayed == stream[: len(replayed)]
        assert len(replayed) > 0

    def test_edge_replay_synthesizes_without_stream(self, graph):
        scenario = edge_replay(t_end=12.0, lambda_q=2.0, stream_size=40)
        workload = scenario.compile(graph, rng=4)
        updates = [r for r in workload if r.kind == UPDATE]
        assert 0 < len(updates) <= 40
        assert all(r.update.u != r.update.v for r in updates)

    def test_edge_replay_loads_snap_file(self, graph, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("# comment\n0 1\n2 3\n\n4 5\n")
        assert load_edge_stream(path) == [(0, 1), (2, 3), (4, 5)]
        scenario = edge_replay(t_end=8.0, lambda_q=2.0, path=path)
        assert scenario.edge_stream == ((0, 1), (2, 3), (4, 5))
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        with pytest.raises(ValueError, match="expected 'u v'"):
            load_edge_stream(bad)

    def test_paper_pattern_matches_generator(self):
        scenario = paper_pattern("update-declined", t_end=30.0, seg_seed=9)
        expected = dynamic_pattern_segments("update-declined", 30.0, rng=9)
        assert list(scenario.segments) == expected

    def test_compile_deterministic(self, graph):
        scenario = update_storm(t_end=10.0)
        a = scenario.compile(graph, rng=np.random.default_rng(5))
        b = scenario.compile(graph, rng=np.random.default_rng(5))
        assert [(r.arrival, r.kind) for r in a] == [
            (r.arrival, r.kind) for r in b
        ]
