"""Size-bounded PPR result cache with staleness metadata.

:class:`PPRCache` maps ``(source, algorithm, beta-signature, top_k)``
keys to computed PPR results plus the metadata the invalidation
machinery needs: the graph version the result was computed at and the
staleness budget it has accumulated since (charged by
:class:`~repro.cache.staleness.StalenessTracker`, one increment per
applied edge update).  A top-k answer is cached as a
:class:`TopKAnswer` — the reply it serves and a one-byte-per-entry
charge table — rather than as the whole vector.

The beta signature is part of the key on purpose: Quota reconfigures
hyperparameters live, and a result computed under the old beta answers
a *different* accuracy/cost trade-off — after a reconfiguration, old
entries simply stop matching and age out instead of serving silently
mislabeled answers.

Capacity eviction is an LRU/LFU hybrid: the victim is the
least-frequently-hit entry among the :data:`EVICTION_SAMPLE`
least-recently-used ones (ties break toward least recent).  Pure LRU
lets a burst of cold sources flush the hot set; pure LFU never forgets
yesterday's hot source.  Scanning a small LRU-front window gets most of
both and stays deterministic — no randomized sampling, so replays are
reproducible.

One thread owns a store and it takes no lock: the loop thread of
:class:`~repro.serving.runtime.ServingRuntime` looks up, inserts and
charges, and reads ``stats()`` for its shard's ``/metrics`` block;
under ``replay`` the replaying thread does all of it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_metrics

#: LRU-front window scanned for the least-frequently-hit victim
EVICTION_SAMPLE = 8

#: canonical, hashable form of a hyperparameter setting
BetaSignature = tuple[tuple[str, float], ...]

#: entry-supplied estimate of pi(s, u) for staleness charging
PiEstimate = Callable[[int], float]

#: the staleness bound a :class:`TopKAnswer` charge code stands for:
#: eight codes an octave, from 1.0 (code 0) down to 2 ** -31.875
BOUNDS = tuple(2.0 ** (-code / 8) for code in range(256))
_ASCENDING_BOUNDS = np.array(BOUNDS[::-1])


def beta_signature(beta: Mapping[str, float]) -> BetaSignature:
    """Order-independent hashable signature of a hyperparameter dict."""
    return tuple(sorted((name, float(value)) for name, value in beta.items()))


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Identity of one cached result.

    ``top_k`` is the truncation the answer was served at (None for the
    whole vector); callers clamp it to the node count, so every
    ``top_k >= n`` names one entry.
    """

    source: int
    algo: str
    beta_sig: BetaSignature
    top_k: int | None = None


def make_key(
    source: int,
    algo: str,
    beta: Mapping[str, float],
    top_k: int | None = None,
) -> CacheKey:
    """Build a :class:`CacheKey` from a live hyperparameter mapping."""
    return CacheKey(source, algo, beta_signature(beta), top_k)


class TopKAnswer:
    """A cached top-k answer: the reply it serves and its charge table.

    ``nodes`` / ``values`` are the pairs ``PPRVector.select(top_k)``
    picked, exactly — a hit serves them as they are.  The charge table
    prices the entry's staleness without the vector: ``charge_ids`` are
    the estimate's nonzero node ids, ascending, in the narrowest
    unsigned dtype that holds them, and ``codes`` one byte each, code
    ``c`` standing for the bound ``BOUNDS[c]``: the smallest of the 256
    bounds at or above ``min(estimate, 1)``, so :meth:`pi_bound` never
    reads below the float64 estimate it stands for (nor below 1.0 for
    an estimate above it) and at most ``2 ** (1 / 8)`` times it for one
    down to ``BOUNDS[-1]``.  A negative or NaN estimate is code 0, 1.0,
    the degree-only bound the tracker falls back to for it.  The entry
    keeps no reference to the graph.
    """

    __slots__ = ("nodes", "values", "charge_ids", "codes")

    def __init__(
        self,
        nodes: np.ndarray,
        values: np.ndarray,
        estimate_ids: np.ndarray,
        estimate_values: np.ndarray,
    ) -> None:
        self.nodes = nodes
        self.values = values
        self.charge_ids = estimate_ids.astype(
            np.min_scalar_type(int(estimate_ids[-1]) if estimate_ids.size else 0)
        )
        # ``not >= 0`` is a negative or NaN estimate: 1.0, code 0
        capped = np.where(
            estimate_values >= 0.0, np.minimum(estimate_values, 1.0), 1.0
        )
        # the first ascending bound at or above each estimate
        self.codes = (
            255 - np.searchsorted(_ASCENDING_BOUNDS, capped)
        ).astype(np.uint8)

    def pi_bound(self, node: int) -> float:
        """An upper bound on the estimate at ``node`` (0.0 where it was
        zero); the entry's ``pi_estimate`` for staleness charging."""
        # a memoryview hands bisect and BOUNDS Python ints, as
        # CompactPPRVector.get does
        ids = self.charge_ids.data
        position = bisect_left(ids, node)
        if position < len(ids) and ids[position] == node:
            return BOUNDS[self.codes.data[position]]
        return 0.0


@dataclass(slots=True)
class CacheEntry:
    """A cached result plus the metadata invalidation runs on.

    ``version`` is the graph version the result was computed at;
    ``staleness`` the accumulated (safety-scaled) Lemma-2 budget since;
    ``pi_estimate`` an optional ``node -> pi(s, node)`` accessor the
    staleness tracker uses for value-aware charging
    (``None`` falls back to the conservative degree-only bound).
    """

    key: CacheKey
    value: object
    version: int
    staleness: float = 0.0
    hits: int = 0
    pi_estimate: PiEstimate | None = None


class PPRCache:
    """LRU/LFU-hybrid store of PPR results, owned by one thread.

    Parameters
    ----------
    capacity:
        Maximum live entries; inserting past it evicts the hybrid
        victim (see module docstring).
    epsilon_c:
        Staleness budget per entry.  An entry whose accumulated charge
        exceeds ``epsilon_c`` is evicted by
        :meth:`charge_staleness` — the cache-side analogue of Seed's
        ``epsilon_r``, but over *applied* updates rather than pending
        ones (docs/DEVELOPMENT.md, "The result cache").
    metrics:
        Observability registry for the ``cache.*`` counters/gauges.
    """

    def __init__(
        self,
        capacity: int = 512,
        epsilon_c: float = 0.1,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not epsilon_c > 0.0:
            raise ValueError(f"epsilon_c must be positive, got {epsilon_c}")
        self.capacity = capacity
        self.epsilon_c = epsilon_c
        self.metrics = metrics if metrics is not None else get_metrics()
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._updates_seen = 0
        self._hits = 0
        self._lookups = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def updates_seen(self) -> int:
        """Applied updates charged so far."""
        return self._updates_seen

    def hit_rate(self) -> float:
        """Lifetime hit fraction h in [0, 1] (0 before any lookup)."""
        return self._hits / self._lookups if self._lookups else 0.0

    # ------------------------------------------------------------------
    def lookup(self, key: CacheKey) -> CacheEntry | None:
        """Return the live entry for ``key`` (None on miss).

        A hit bumps the entry's recency and frequency.
        """
        self._lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.metrics.counter("cache.misses").inc()
        else:
            entry.hits += 1
            self._hits += 1
            self._entries.move_to_end(key)
            self.metrics.counter("cache.hits").inc()
        self.metrics.gauge("cache.hit_rate").set(self.hit_rate())
        self.metrics.gauge("cache.size").set(float(len(self._entries)))
        return entry

    def insert(
        self,
        key: CacheKey,
        value: object,
        version: int,
        pi_estimate: PiEstimate | None = None,
    ) -> None:
        """Admit a freshly computed result.

        Re-inserting an existing key replaces the entry (fresh version,
        zero staleness) while keeping its hit count — a recompute after
        a staleness eviction should not demote the source to cold.
        """
        previous = self._entries.pop(key, None)
        while len(self._entries) >= self.capacity:
            self._evict_one()
        entry = CacheEntry(
            key,
            value,
            version,
            hits=previous.hits if previous is not None else 0,
            pi_estimate=pi_estimate,
        )
        self._entries[key] = entry
        self.metrics.counter("cache.insertions").inc()
        self.metrics.gauge("cache.size").set(float(len(self._entries)))

    def _evict_one(self) -> None:
        """Evict the hybrid victim (least hits within the LRU front)."""
        victim: CacheKey | None = None
        victim_hits = -1
        for position, key in enumerate(self._entries):
            if position >= EVICTION_SAMPLE:
                break
            hits = self._entries[key].hits
            if victim is None or hits < victim_hits:
                victim = key
                victim_hits = hits
        assert victim is not None  # caller checked non-empty
        del self._entries[victim]
        self.metrics.counter("cache.evictions_capacity").inc()

    # ------------------------------------------------------------------
    def charge_staleness(
        self, increment: Callable[[CacheEntry], float]
    ) -> list[CacheKey]:
        """Charge every live entry for one applied update.

        ``increment(entry)`` returns the staleness charge for that
        entry (the tracker closes over the updated node and its
        post-update degree).  Entries whose accumulated budget exceeds
        ``epsilon_c`` are evicted; their keys are returned.
        """
        self._updates_seen += 1
        evicted: list[CacheKey] = []
        for key in list(self._entries):
            entry = self._entries[key]
            entry.staleness += increment(entry)
            if entry.staleness > self.epsilon_c:
                del self._entries[key]
                evicted.append(key)
        if evicted:
            self.metrics.counter("cache.evictions_staleness").inc(
                len(evicted)
            )
            self.metrics.gauge("cache.size").set(
                float(len(self._entries))
            )
        return evicted

    def worst_staleness(self) -> float:
        """Largest accumulated staleness among the *live* entries.

        The invariant the scenario-fuzz oracle asserts: charging evicts
        past ``epsilon_c``, so no live entry may ever report a budget
        above it.  Returns 0.0 for an empty cache.
        """
        return max(
            (entry.staleness for entry in self._entries.values()),
            default=0.0,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Point-in-time summary (size, lookups, hits, hit rate)."""
        return {
            "size": float(len(self._entries)),
            "lookups": float(self._lookups),
            "hits": float(self._hits),
            "hit_rate": self.hit_rate(),
            "updates_seen": float(self._updates_seen),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PPRCache(size={stats['size']:.0f}/{self.capacity}, "
            f"epsilon_c={self.epsilon_c}, "
            f"hit_rate={stats['hit_rate']:.3f})"
        )
