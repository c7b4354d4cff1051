"""Source-id routing: which shard owns which queries.

The fabric replicates the graph and partitions the *source-id space*,
so a router is a pure function ``source -> shard_id``.
:class:`HashRouter` is a multiplicative integer hash of the source id:
it spreads any source distribution (including the Zipf hot sets the
scenario families generate) evenly across shards.

Routing is *static*: a source always maps to the same shard, so the
per-shard result caches and Seed queues stay effective.  Health is
handled above the pure mapping — :meth:`HashRouter.route` returns the
owning shard regardless of health, and the manager sheds (rather than
re-routes) queries for unhealthy shards: serving a source from a shard
that never saw its cache/Seed state would be correct but would lie
about steady-state latencies, and the respawn path restores the owner
within one log replay anyway.
"""

from __future__ import annotations


class HashRouter:
    """Multiplicative hash of the source id (Fibonacci hashing).

    ``source * 2654435761 mod 2^32`` scrambles consecutive ids across
    the whole 32-bit space before the modulo, so hot sets of nearby
    ids do not pile onto one shard.
    """

    _KNUTH = 2654435761  # 2^32 / golden ratio, the classic multiplier

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def route(self, source: int) -> int:
        """Owning shard id of ``source`` (always in range)."""
        if source < 0:
            raise ValueError(f"source must be >= 0, got {source}")
        return ((source * self._KNUTH) & 0xFFFFFFFF) % self.num_shards

    def __repr__(self) -> str:
        return f"HashRouter(num_shards={self.num_shards})"
