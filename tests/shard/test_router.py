"""Source-id routers: total coverage, determinism, range contiguity."""

import pytest

from repro.shard.router import HashRouter, RangeRouter, make_router


def test_hash_router_covers_every_source():
    router = HashRouter(num_shards=4)
    seen = set()
    for source in range(1000):
        shard = router.route(source)
        assert 0 <= shard < 4
        seen.add(shard)
    assert seen == {0, 1, 2, 3}  # no shard starved on a dense id space


def test_hash_router_is_deterministic():
    a, b = HashRouter(num_shards=8), HashRouter(num_shards=8)
    assert [a.route(s) for s in range(500)] == [
        b.route(s) for s in range(500)
    ]


def test_range_router_contiguous_partitions():
    router = RangeRouter(num_shards=3, num_nodes=100)
    assignments = [router.route(s) for s in range(100)]
    # contiguous: shard ids are non-decreasing over the source axis
    assert assignments == sorted(assignments)
    assert set(assignments) == {0, 1, 2}


def test_range_router_single_shard():
    router = RangeRouter(num_shards=1, num_nodes=7)
    assert {router.route(s) for s in range(7)} == {0}


def test_make_router():
    assert isinstance(make_router("hash", 2, 10), HashRouter)
    assert isinstance(make_router("range", 2, 10), RangeRouter)
    with pytest.raises(ValueError):
        make_router("nope", 2, 10)
