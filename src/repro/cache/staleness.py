"""Update-driven staleness accounting for cached PPR results.

The invalidation contract
-------------------------
Seed's Lemma 2 bounds how much one *pending* edge update at node ``u``
can perturb a PPR vector for source ``s``; the same quantity prices an
*applied* update against every cached answer computed before it.  The
per-update increment the issue (and Seed) uses is

    inc(s, u) = (1 - alpha) * pi_hat(s, u) / max(d_out(u), 1)

(:func:`lemma2_increment`) — the probability mass the walk routes
through ``u``'s changed out-row.  Converting perturbed *mass at u* into
a bound on the *L1 drift of the whole vector* costs a coupling factor:
once a walk takes a different edge at ``u``, its remaining
(1 - alpha)-discounted future — up to ``2 * (1 - alpha) / alpha`` of
expected mass per unit of rerouted probability — may land elsewhere.
:class:`StalenessTracker` therefore charges
``safety * inc(s, u)`` with ``safety = 2 / alpha`` by default, which
makes the accumulated budget an empirically validated upper bound on
the normalized L1 distance between the cached vector and a fresh
recompute (the exactness oracle in ``benchmarks/
bench_cache_effectiveness.py`` and ``tests/cache/test_oracle.py``
verifies zero violations; measured worst-case drift/charge ratios sit
near half the coupling factor).

``pi_hat(s, u)`` is the *cached* estimate — the value computed when the
entry was admitted; a top-k entry reads it from its charge table
(:class:`~repro.cache.store.TopKAnswer`) as the next of 256 log-scale
bounds at or above it (capped at the degree-only 1.0), so it is charged
at least what its whole vector would be and at most ``2 ** (1 / 8)``
times that.  Entries whose
result cannot be indexed by node
(opaque ``query_fn`` results, modeled entries in a virtual-time replay) carry
no ``pi_estimate`` and fall back to the conservative degree-only bound
``pi_hat = 1``, which over-charges and never under-protects.

Call :meth:`StalenessTracker.observe` *after* the update is applied —
the charge reads the post-update out-degree — and before anything
else runs on the thread that mutated the graph, so no query can
observe a mutated graph before the cache was charged for it.
:class:`ChargingApplier` packages that ordering for the executors that
apply updates (it is itself a :class:`SupportsApplyUpdate`, so it can
stand wherever an algorithm's ``apply_update`` is called).
"""

from __future__ import annotations

from typing import Protocol

from repro.cache.store import CacheEntry, CacheKey, PPRCache
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate


class SupportsApplyUpdate(Protocol):
    """Anything that can execute one edge arrival: every
    :class:`~repro.ppr.base.DynamicPPRAlgorithm`, a graph-only shim, or
    a :class:`ChargingApplier` around either."""

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        """Apply one edge arrival; returns the resolved update."""
        ...


def lemma2_increment(alpha: float, pi_su: float, d_out: int) -> float:
    """The paper-shaped per-update staleness increment (unscaled)."""
    return (1.0 - alpha) * pi_su / max(d_out, 1)


class StalenessTracker:
    """Charges live cache entries for each applied edge update.

    Parameters
    ----------
    cache:
        The store whose entries are charged (and evicted past
        ``cache.epsilon_c``).
    graph:
        The graph the updates mutate; degrees are read from it
        post-application.
    alpha:
        Teleport probability of the cached queries.
    safety:
        Multiplier converting the Lemma-2 mass increment into an L1
        drift bound (module docstring).  Default ``2 / alpha``.
    """

    def __init__(
        self,
        cache: PPRCache,
        graph: DynamicGraph,
        alpha: float,
        safety: float | None = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if safety is not None and safety <= 0.0:
            raise ValueError(f"safety must be positive, got {safety}")
        self.cache = cache
        self.graph = graph
        self.alpha = alpha
        self.safety = safety if safety is not None else 2.0 / alpha

    def observe(self, update: EdgeUpdate) -> list[CacheKey]:
        """Charge one *applied* update; returns staleness-evicted keys."""
        u = update.u
        d_out = self.graph.out_degree(u) if self.graph.has_node(u) else 0
        base = self.safety * lemma2_increment(self.alpha, 1.0, d_out)

        def increment(entry: CacheEntry) -> float:
            if entry.pi_estimate is None:
                return base  # degree-only bound: pi_hat(s, u) <= 1
            pi_su = entry.pi_estimate(u)
            if not pi_su >= 0.0:  # guards NaN as well as negatives
                return base
            return base * min(pi_su, 1.0)

        return self.cache.charge_staleness(increment)


class ChargingApplier:
    """A :class:`SupportsApplyUpdate` that charges staleness after each
    apply.

    Wraps the real applier (an algorithm, or a bare graph-toggling
    shim) so a flush, which applies the deferred updates one at a time,
    charges each update against the degrees it actually saw, instead of
    charging the whole batch against post-batch degrees.
    """

    __slots__ = ("_inner", "_tracker")

    def __init__(
        self, inner: SupportsApplyUpdate, tracker: StalenessTracker
    ) -> None:
        self._inner = inner
        self._tracker = tracker

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        resolved = self._inner.apply_update(update)
        self._tracker.observe(resolved)
        return resolved
