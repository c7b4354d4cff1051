"""Staleness-bounded PPR result cache with update-driven invalidation.

Repeated hot sources dominate real PPR traffic (power-law query
popularity); this package makes them cost ~0 while keeping every
served answer within a provable distance of a fresh recompute:

* :mod:`~repro.cache.store` — the size-bounded LRU/LFU-hybrid
  :class:`PPRCache`, keyed by (source, algorithm, beta-signature),
  carrying per-entry graph version and accumulated staleness.
* :mod:`~repro.cache.staleness` — :class:`StalenessTracker`, charging
  each live entry a safety-scaled Lemma-2 increment per applied edge
  update and evicting past the ``epsilon_c`` budget;
  :class:`ChargingApplier` for the Seed flush paths;
  :class:`ReplayCache` for the virtual-time simulators.

Layering: this package sits beside :mod:`repro.ppr` (it imports only
``repro.graph`` and ``repro.obs``), so :mod:`repro.core`,
:mod:`repro.queueing` and :mod:`repro.serving` may all depend on it.
See docs/DEVELOPMENT.md ("The result cache") for the key/staleness/
invalidation contract and the ``epsilon_c`` vs ``epsilon_r``
distinction.
"""

from repro.cache.staleness import (
    ChargingApplier,
    ReplayCache,
    StalenessTracker,
    lemma2_increment,
)
from repro.cache.store import (
    CacheEntry,
    CacheKey,
    PPRCache,
    beta_signature,
    make_key,
)

__all__ = [
    "CacheEntry",
    "CacheKey",
    "ChargingApplier",
    "PPRCache",
    "ReplayCache",
    "StalenessTracker",
    "beta_signature",
    "lemma2_increment",
    "make_key",
]
