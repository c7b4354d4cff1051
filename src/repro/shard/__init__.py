"""Sharded serving fabric: scale the runtime past one process.

The concurrent :class:`~repro.serving.ServingRuntime` scales PPR
queries across threads but stays pinned inside one interpreter; this
package partitions the *source-id space* across N worker processes
that each replicate the graph — the deployment shape the paper's
multi-core allocation analysis assumes — and keeps the replicas
convergent through a fabric-wide versioned update broadcast.

Layering (each importable without the ones above it):

* :mod:`repro.shard.messages` — picklable command/reply protocol and
  the ordering contract (:class:`UpdateOrderError`).
* :mod:`repro.shard.router`   — pluggable ``source -> shard_id``
  mapping (hash or contiguous-range).
* :mod:`repro.shard.worker`   — :class:`ShardServer`, the
  transport-agnostic command loop around one ServingRuntime.
* :mod:`repro.shard.launch`   — ``python_child``: how every process
  of a fleet other than the front door is started.
* :mod:`repro.shard.image`    — :class:`~repro.shard.image.GraphImage`,
  the packed graph the control plane forwards but never decodes, and
  the one-shot child that builds it.
* :mod:`repro.shard.backend`  — :class:`ProcessShard` (a plain child
  process, two pipes) and :class:`InprocShard` (thread; deterministic
  tests) behind one future-based :class:`ShardHandle` interface.
* :mod:`repro.shard.manager`  — :class:`ShardManager`: routing,
  global admission (bounded per-shard inflight, shed with
  ``Retry-After`` hints), versioned broadcasts, crash respawn from
  the update log, fleet metrics aggregation.

The asyncio front door in :mod:`repro.api` exposes a manager over
HTTP; ``benchmarks/bench_shard_scaling.py`` drives one closed-loop.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.shard.backend import (
        BACKENDS,
        InprocShard,
        ProcessShard,
        ShardHandle,
        make_shard,
    )
    from repro.shard.manager import (
        QueryOutcome,
        ShardManager,
        UpdateOutcome,
    )
    from repro.shard.messages import (
        ShardReply,
        ShardSpec,
        ShardUnavailableError,
        UpdateOrderError,
    )
    from repro.shard.router import (
        ROUTERS,
        HashRouter,
        RangeRouter,
        Router,
        make_router,
    )
    from repro.shard.worker import ShardServer

__all__ = [
    "BACKENDS",
    "ROUTERS",
    "HashRouter",
    "InprocShard",
    "ProcessShard",
    "QueryOutcome",
    "RangeRouter",
    "Router",
    "ShardHandle",
    "ShardManager",
    "ShardReply",
    "ShardServer",
    "ShardSpec",
    "ShardUnavailableError",
    "UpdateOrderError",
    "UpdateOutcome",
    "make_router",
    "make_shard",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backend": [
            "BACKENDS",
            "InprocShard",
            "ProcessShard",
            "ShardHandle",
            "make_shard",
        ],
        "manager": ["QueryOutcome", "ShardManager", "UpdateOutcome"],
        "messages": [
            "ShardReply",
            "ShardSpec",
            "ShardUnavailableError",
            "UpdateOrderError",
        ],
        "router": [
            "ROUTERS",
            "HashRouter",
            "RangeRouter",
            "Router",
            "make_router",
        ],
        "worker": ["ShardServer"],
    },
)
