"""The schedule is a pure function of (workload, seed, sizes)."""

import numpy as np

from benchmarks.e2e.schedule import build_schedule
from benchmarks.e2e.spec import WORKLOADS


def _build(name: str, seed: int):
    return build_schedule(WORKLOADS[name], seed, 4800, 3.0, 2.0, 9)


def test_same_seed_gives_identical_bytes():
    for name in WORKLOADS:
        assert _build(name, 7).to_bytes() == _build(name, 7).to_bytes()


def test_different_seed_gives_different_schedule():
    for name in WORKLOADS:
        assert _build(name, 7).to_bytes() != _build(name, 8).to_bytes()


def test_every_window_is_offered_exactly_the_stated_rate():
    schedule = _build("steady_topk", 3)
    due = schedule.query_due
    assert np.all(np.diff(due) >= 0)
    assert np.sum(due < 0) == 180  # 3 s warm-up at 60/s
    for k in range(9):
        assert np.sum((due >= 2.0 * k) & (due < 2.0 * (k + 1))) == 120
    assert len(schedule.update_due) == round(7.5 * 3) + 9 * 15


def test_changing_the_update_rate_leaves_the_queries_alone():
    steady = _build("steady_topk", 5)
    cached = _build("hot_cached", 5)  # same lambda_q, other lambda_u
    assert np.array_equal(steady.query_due, cached.query_due)


def test_zipf_sources_are_skewed_and_uniform_ones_are_not():
    hot = np.bincount(_build("hot_cached", 1).query_source, minlength=4800)
    flat = np.bincount(_build("steady_topk", 1).query_source, minlength=4800)
    assert hot.max() > 50 > flat.max()


def test_toggles_never_self_loop_and_revisit_earlier_pairs():
    schedule = _build("update_heavy", 2)
    assert np.all(schedule.update_u != schedule.update_v)
    pairs = list(zip(schedule.update_u.tolist(), schedule.update_v.tolist()))
    assert len(set(pairs)) < 0.75 * len(pairs)  # about half are re-toggles


def test_closed_loop_has_sources_per_client_and_no_query_schedule():
    schedule = _build("bulk_vectors", 0)
    assert schedule.query_due.size == 0
    assert schedule.client_sources.shape[0] == WORKLOADS["bulk_vectors"].clients
    assert schedule.update_due.size == round(5.0 * 21)


def test_the_popular_sources_are_the_same_on_every_seed():
    first = np.bincount(_build("hot_cached", 1).query_source, minlength=4800)
    other = np.bincount(_build("hot_cached", 2).query_source, minlength=4800)
    assert first.argmax() == other.argmax()
