"""Wire protocol of the sharded serving fabric.

Everything that crosses a process boundary lives here: the
:class:`ShardSpec` a worker is built from, the command dataclasses the
manager sends, and the :class:`ShardReply` envelope workers send back.
They are plain frozen dataclasses of primitives, and their two bulky
parts — a spec's edge list, a reply's answer (:class:`PackedPairs`) —
are packed bytes, so they pickle onto a pipe without dragging graph or
algorithm state along — and this module loads no numpy until an edge
list is decoded into an array (:meth:`ShardSpec.edge_array`, in a
worker), because the front door and the graph-image builder import it
too.

Versioned update broadcast
--------------------------
Every edge update the fabric accepts is assigned one fabric-wide,
monotonically increasing ``version`` (1-based) by the
:class:`~repro.shard.manager.ShardManager` and broadcast to every
shard.  A shard MUST observe versions as a gap-free increasing
sequence; :class:`UpdateOrderError` is raised — never papered over —
when a broadcast arrives out of order, because an out-of-order apply
would silently diverge that shard's replicated graph from the rest of
the fleet (toggle semantics make apply order load-bearing: the same
multiset of updates applied in two orders can yield different edge
sets).  A shard that raises is torn down and respawned from the
manager's update log, which restores convergence by construction.
"""

from __future__ import annotations

import copy
import operator
import struct
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

#: numpy dtype string of the packed :attr:`ShardSpec.edges` buffer
_PACKED = "<i4"

#: int32 values :func:`_is_packed` decodes at a time: the check runs in
#: the front door, where one list of every id would cost megabytes of
#: small objects the allocator does not give back
_CHECK_CHUNK = 8_192


def _is_packed(num_nodes: int, edges: bytes) -> bool:
    """Whether ``edges`` already is what :func:`pack_edges` returns.

    Checked without numpy (a ``memoryview`` of native int32, hence
    little-endian hosts only): whole pairs, ids in ``[0, num_nodes)``,
    pairs strictly increasing — which rules out duplicates too.
    """
    if sys.byteorder != "little" or len(edges) % 8:
        return False
    ids = memoryview(edges).cast("i")
    last = -1
    for start in range(0, len(ids), _CHECK_CHUNK):
        flat = ids[start:start + _CHECK_CHUNK].tolist()
        if min(flat) < 0 or max(flat) >= num_nodes:
            return False
        keys = [u * num_nodes + v for u, v in zip(flat[0::2], flat[1::2])]
        if keys[0] <= last or not all(map(operator.lt, keys, keys[1:])):
            return False
        last = keys[-1]
    return True


def pack_edges(
    num_nodes: int,
    edges: "bytes | NDArray[np.integer[Any]] | Iterable[tuple[int, int]]",
) -> bytes:
    """The wire form of an edge list: sorted little-endian int32 pairs.

    ``edges`` may be an ``(m, 2)`` integer array, any iterable of
    ``(u, v)`` pairs, or an already packed buffer (re-validated — it
    may come from outside).  Raises ValueError for what a worker's bulk
    build would miscount: repeated pairs, non-integer ids, ids outside
    ``[0, num_nodes)`` or the int32 range, a buffer of half pairs.

    A buffer that is already canonical is returned as it is, checked by
    :func:`_is_packed`; everything else is sorted and checked here in
    plain Python — the front door and the graph-image builder call this
    and load no numpy.
    """
    if isinstance(edges, bytes):
        if _is_packed(num_nodes, edges):
            return edges
        if len(edges) % 8:
            raise ValueError("packed edges must be whole int32 pairs")
        edges = struct.iter_unpack("<ii", edges)
    limit = min(num_nodes, 2**31)
    keys = []
    try:
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < limit and 0 <= v < limit):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside [0, {limit})"
                )
            keys.append(u * num_nodes + v)
    except TypeError as exc:
        raise ValueError(f"edges must be integer (u, v) pairs: {exc}") from None
    keys.sort()
    for key, following in zip(keys, keys[1:]):
        if key == following:
            raise ValueError(f"duplicate edge {divmod(key, num_nodes)}")
    ids = [0] * (2 * len(keys))
    ids[0::2] = [key // num_nodes for key in keys]
    ids[1::2] = [key % num_nodes for key in keys]
    return struct.pack(f"<{len(ids)}i", *ids)


class UpdateOrderError(RuntimeError):
    """An update broadcast arrived out of snapshot-version order.

    Raised by the shard worker instead of applying the update: a
    divergent replica answering queries is strictly worse than a dead
    one (the manager respawns dead shards from the versioned log).
    """


class ShardUnavailableError(RuntimeError):
    """The target shard died (or stopped) before answering."""


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """Everything a worker process needs to build its serving stack.

    The graph is *replicated* (every shard holds all nodes and edges)
    while the query source-id space is *partitioned* by the router —
    the deployment shape the D&A multi-core allocation analysis
    assumes, and the one that keeps any single-source query local to
    one worker.

    ``num_nodes`` + ``edges`` snapshot the graph at fabric start;
    updates broadcast after start carry the state forward identically
    on every shard.  ``edges`` accepts whatever :func:`pack_edges`
    does and is *stored* packed — 8 B per edge on the wire instead of
    a tuple object per edge, still hashable and ``==``-comparable;
    read it through :meth:`edge_array`.
    """

    shard_id: int
    num_shards: int
    num_nodes: int
    edges: bytes = field(repr=False)
    algorithm: str = "FORA"
    walk_cap: int = 2_000
    seed: int = 0
    #: always "auto" (every algorithm runs one push kernel), a class
    #: constant kept for benchmarks/e2e/probe.py, which passes
    #: ``engine=spec.engine`` to ``repro.evaluation.runner``
    engine: ClassVar[str] = "auto"
    epsilon_r: float = 0.0
    #: runtime threads per shard: always 1, a class constant kept for
    #: callers that still pass ``ServingRuntime(workers=spec.workers)``
    workers: ClassVar[int] = 1
    queue_capacity: int = 1_024
    cache_epsilon: float | None = None
    #: "algorithm" serves queries through the spec'd algorithm;
    #: "exact" serves them through deterministic power iteration — the
    #: mode the cross-process equivalence oracle uses (bit-for-bit
    #: reproducible regardless of per-shard RNG interleaving)
    query_mode: str = "algorithm"
    #: build a calibrated QuotaController so `/reconfigure` can
    #: re-solve per shard (costs a calibration at worker start)
    use_controller: bool = False
    calibration_queries: int = 2

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 0 <= self.shard_id < self.num_shards:
            raise ValueError(
                f"shard_id {self.shard_id} outside [0, {self.num_shards})"
            )
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.query_mode not in ("algorithm", "exact"):
            raise ValueError(
                f"query_mode must be algorithm|exact, got {self.query_mode!r}"
            )
        object.__setattr__(
            self, "edges", pack_edges(self.num_nodes, self.edges)
        )

    def for_shard(self, shard_id: int) -> "ShardSpec":
        """This spec for another shard of the same fleet.

        Unlike :func:`dataclasses.replace` it does not run
        ``__post_init__`` again: the edge buffer was validated when this
        spec was built and is carried over as it is.
        """
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(
                f"shard_id {shard_id} outside [0, {self.num_shards})"
            )
        twin = copy.copy(self)
        object.__setattr__(twin, "shard_id", shard_id)
        return twin

    def edge_array(self) -> "NDArray[np.int32]":
        """The edges as a read-only ``(m, 2)`` int32 view of the buffer."""
        import numpy as np

        return np.frombuffer(self.edges, dtype=_PACKED).reshape(-1, 2)


# ----------------------------------------------------------------------
# commands (manager -> worker)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QueryCommand:
    """Serve one SSPPR query; reply when the runtime resolves it."""

    req_id: int
    source: int
    #: remaining deadline budget in seconds (deadline propagation: the
    #: front door subtracts time already spent queueing upstream)
    budget_s: float | None = None
    #: truncate the reply vector to its k largest entries (None = full)
    top_k: int | None = None


@dataclass(frozen=True, slots=True)
class UpdateCommand:
    """Apply one versioned edge update; acked at admission."""

    req_id: int
    version: int
    u: int
    v: int
    kind: str = "toggle"


@dataclass(frozen=True, slots=True)
class ReconfigureCommand:
    """Re-solve the shard's QuotaController at the given rates."""

    req_id: int
    lambda_q: float
    lambda_u: float


@dataclass(frozen=True, slots=True)
class MetricsCommand:
    """Snapshot the worker's metrics registry + serving state."""

    req_id: int


@dataclass(frozen=True, slots=True)
class HealthCommand:
    """Liveness/readiness probe."""

    req_id: int


@dataclass(frozen=True, slots=True)
class StopCommand:
    """Graceful shutdown: drain, stop the runtime, exit the loop."""

    req_id: int


@dataclass(frozen=True, slots=True)
class CrashCommand:
    """Hard-exit the worker without cleanup (failure-injection tests)."""

    req_id: int


Command = (
    QueryCommand
    | UpdateCommand
    | ReconfigureCommand
    | MetricsCommand
    | HealthCommand
    | StopCommand
    | CrashCommand
)


# ----------------------------------------------------------------------
# replies (worker -> manager)
# ----------------------------------------------------------------------
class PackedPairs:
    """A query answer on the wire: ``(node, value)`` pairs in two buffers.

    ``nodes`` is little-endian int32 and ``values`` little-endian
    float64, both in reply order — two objects to pickle, unpickle and
    pass along, where a list of ``[node, value]`` lists was three per
    pair.  Iterating decodes them into ``(int, float)`` tuples without
    numpy, which is how the HTTP edge writes the JSON array; ``==``
    compares the buffers, so answers compare bit for bit.
    """

    __slots__ = ("nodes", "values")

    def __init__(self, nodes: bytes, values: bytes) -> None:
        if len(nodes) % 4 or len(values) != 2 * len(nodes):
            raise ValueError(
                "packed pairs need one float64 value per int32 node"
            )
        self.nodes = nodes
        self.values = values

    @classmethod
    def from_arrays(
        cls,
        nodes: "NDArray[np.integer[Any]]",
        values: "NDArray[np.floating[Any]]",
    ) -> "PackedPairs":
        """Pack a node-id array and its value array (a worker's side)."""
        return cls(
            nodes.astype("<i4").tobytes(), values.astype("<f8").tobytes()
        )

    def __reduce__(self) -> tuple[type["PackedPairs"], tuple[bytes, bytes]]:
        return PackedPairs, (self.nodes, self.values)

    def __len__(self) -> int:
        return len(self.nodes) // 4

    def __iter__(self) -> Iterator[tuple[int, float]]:
        count = len(self)
        return zip(
            struct.unpack(f"<{count}i", self.nodes),
            struct.unpack(f"<{count}d", self.values),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedPairs):
            return NotImplemented
        return self.nodes == other.nodes and self.values == other.values

    def __repr__(self) -> str:
        return f"PackedPairs(<{len(self)} pairs>)"


@dataclass(frozen=True, slots=True)
class ShardReply:
    """Envelope for every worker response.

    ``payload`` is a plain dict of primitives (query payloads carry
    ``status``/``version``/``cached`` and, when served, ``values`` as
    :class:`PackedPairs`); ``error`` is set — and ``ok`` False — when
    the command failed worker-side.
    """

    req_id: int
    shard_id: int
    ok: bool
    payload: dict[str, object]
    error: str | None = None
