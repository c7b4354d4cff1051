"""Source-id routing: total coverage and determinism."""

from repro.shard.router import HashRouter


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
