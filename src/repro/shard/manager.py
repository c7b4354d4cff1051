"""ShardManager: the control plane of the sharded serving fabric.

One manager owns ``num_shards`` workers that each replicate the full
graph and own a partition of the source-id space (see
:mod:`repro.shard.router`).  The manager

* **routes** queries to the owning shard, shedding — with a
  ``retry_after_s`` hint — when the owner is unhealthy or its bounded
  inflight window is full (global admission control on top of each
  worker's own AdmissionQueue);
* **broadcasts** edge updates to every shard under one fabric-wide
  monotonic version counter, holding the update lock across the whole
  broadcast so every shard observes the same gap-free sequence (the
  ordering contract :class:`~repro.shard.messages.UpdateOrderError`
  enforces worker-side);
* keeps the full **update log** and uses it to respawn crashed
  workers: a dead shard's range is shed until a fresh worker has
  replayed the log and converged on the fleet's graph version;
* **aggregates** per-worker metrics snapshots with its own routing
  counters for the front door's ``/metrics``.

All public methods are thread-safe; queries return
:class:`concurrent.futures.Future` objects resolving to
:class:`QueryOutcome` so both the closed-loop benchmark (threads) and
the asyncio front door (``asyncio.wrap_future``) can drive the same
manager.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING

from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry, get_metrics, process_stats
from repro.ppr.names import AUTO
from repro.shard.backend import (
    ProcessShard,
    ShardHandle,
    WorkerProcess,
    make_shard,
)
from repro.shard.image import GraphImage, ImageBuild, graph_image
from repro.shard.messages import ShardReply, ShardSpec, ShardUnavailableError
from repro.shard.router import Router, make_router

if TYPE_CHECKING:
    from repro.graph.digraph import DynamicGraph

#: how long a (re)spawned worker may take to answer its first health
#: check (spawn + imports + graph and index build + log replay)
START_TIMEOUT_S = 120.0
#: retry hint when the owning shard is down — dominated by respawn
#: latency (spawn + graph rebuild + log replay), not queueing
RETRY_AFTER_UNHEALTHY_S = 1.0
#: floor/ceiling for the inflight-full retry hint derived from the
#: observed round-trip distribution
RETRY_AFTER_MIN_S = 0.05
RETRY_AFTER_MAX_S = 5.0


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """Normalized result of one routed query.

    ``status`` is ``"ok"``, a runtime verdict (``"shed"``,
    ``"timeout"``, ``"failed"``), or ``"unavailable"`` when the owning
    worker died mid-flight.  ``values`` is the serialized PPR vector
    (``[[node, score], ...]``) on success; ``retry_after_s`` is set on
    every shed so callers can map it straight onto a ``Retry-After``
    header.
    """

    status: str
    shard_id: int
    source: int
    version: int = -1
    cached: bool = False
    values: list[list[float]] | None = None
    response_s: float = 0.0
    retry_after_s: float | None = None
    shed_reason: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True, slots=True)
class UpdateOutcome:
    """Result of one versioned broadcast: who acked version N."""

    version: int
    update: EdgeUpdate
    acked_shards: tuple[int, ...]
    skipped_shards: tuple[int, ...] = ()


@dataclass(slots=True)
class _ShardSlot:
    """Manager-side bookkeeping for one shard id."""

    handle: ShardHandle
    inflight: int = 0  # guarded-by: lock
    lock: threading.Lock = field(default_factory=threading.Lock)
    respawning: bool = False  # guarded-by: lock


class ShardManager:
    """Route queries and broadcast updates across shard workers.

    ``graph`` is the fleet's start state: a
    :class:`~repro.shard.image.GraphImage` or a running
    :class:`~repro.shard.image.ImageBuild` (what ``repro serve`` has —
    this process then never holds a graph), or a ``DynamicGraph``, which
    is packed into one here.  A process fleet on an ``ImageBuild``
    launches its workers before it waits for the image, so they import
    while it is built.  Either way the image is validated once, when
    the base :class:`ShardSpec` is built; per-shard specs for spawns and
    respawns are derived from it without another pass.
    """

    def __init__(
        self,
        graph: "DynamicGraph | GraphImage | ImageBuild",
        num_shards: int,
        *,
        backend: str = "process",
        router: str | Router = "hash",
        algorithm: str = "FORA",
        walk_cap: int = 2_000,
        seed: int = 0,
        engine: str = AUTO,
        epsilon_r: float = 0.0,
        queue_capacity: int = 1_024,
        cache_epsilon: float | None = None,
        query_mode: str = "algorithm",
        use_controller: bool = False,
        max_inflight_per_shard: int = 64,
        auto_respawn: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if max_inflight_per_shard < 1:
            raise ValueError("max_inflight_per_shard must be >= 1")
        # a worker imports for ~0.25 s before it reads its first message
        # (the spec), about as long as the builder child takes anyway
        launched = (
            [WorkerProcess() for _ in range(num_shards)]
            if backend == "process" and isinstance(graph, ImageBuild)
            else []
        )
        try:
            image = graph_image(graph)
            self._base_spec = ShardSpec(
                shard_id=0,
                num_shards=num_shards,
                num_nodes=image.num_nodes,
                edges=image.edges,
                algorithm=algorithm,
                walk_cap=walk_cap,
                seed=seed,
                engine=engine,
                epsilon_r=epsilon_r,
                queue_capacity=queue_capacity,
                cache_epsilon=cache_epsilon,
                query_mode=query_mode,
                use_controller=use_controller,
            )
            self.router: Router = (
                router
                if isinstance(router, Router)
                else make_router(router, num_shards, image.num_nodes)
            )
            if self.router.num_shards != num_shards:
                raise ValueError(
                    f"router covers {self.router.num_shards} shards, "
                    f"manager has {num_shards}"
                )
        except BaseException:
            for worker in launched:
                worker.discard()
            raise
        self.num_shards = num_shards
        self.backend = backend
        self.max_inflight_per_shard = max_inflight_per_shard
        self.auto_respawn = auto_respawn
        self.metrics = metrics if metrics is not None else get_metrics()
        self._stopped = False  # guarded-by: self._update_lock
        # fabric-wide version assignment + log; held across the whole
        # broadcast so per-shard delivery order matches version order
        self._update_lock = threading.RLock()
        self._update_log: list[EdgeUpdate] = []  # guarded-by: self._update_lock
        self._slots: list[_ShardSlot] = []
        for shard_id in range(num_shards):
            worker = launched.pop() if launched else None
            self._slots.append(
                _ShardSlot(handle=self._spawn(shard_id, worker))
            )
        self._await_ready()
        self._publish_health_gauge()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(
        self, shard_id: int, worker: WorkerProcess | None = None
    ) -> ShardHandle:
        spec = self._base_spec.for_shard(shard_id)
        handle = (
            make_shard(spec, self.backend)
            if worker is None
            else ProcessShard(spec, worker)
        )
        handle.on_death = self._on_shard_death
        return handle

    def _await_ready(self) -> None:
        deadline = perf_counter() + START_TIMEOUT_S
        for slot in self._slots:
            remaining = max(0.1, deadline - perf_counter())
            reply = slot.handle.health().result(remaining)
            if not reply.ok:  # pragma: no cover - worker init bug
                raise RuntimeError(
                    f"shard {slot.handle.shard_id} unhealthy at start: "
                    f"{reply.error}"
                )

    def stop(self, timeout_s: float = 30.0) -> None:
        """Stop every worker; the manager is unusable afterwards."""
        with self._update_lock:
            self._stopped = True
        for slot in self._slots:
            slot.handle.on_death = None
            slot.handle.stop(timeout_s)
        self._publish_health_gauge()

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        deadline_s: float | None = None,
        top_k: int | None = None,
    ) -> "Future[QueryOutcome]":
        """Route one query; always resolves (sheds resolve immediately)."""
        self.metrics.counter("shard.queries_routed").inc()
        shard_id = self.router.route(source)
        slot = self._slots[shard_id]
        outcome: "Future[QueryOutcome]" = Future()
        if not slot.handle.healthy:
            self.metrics.counter("shard.shed_unhealthy").inc()
            outcome.set_result(
                QueryOutcome(
                    status="shed",
                    shard_id=shard_id,
                    source=source,
                    shed_reason="shard-unhealthy",
                    retry_after_s=RETRY_AFTER_UNHEALTHY_S,
                )
            )
            return outcome
        with slot.lock:
            if slot.inflight >= self.max_inflight_per_shard:
                admitted = False
            else:
                slot.inflight += 1
                admitted = True
        if not admitted:
            self.metrics.counter("shard.shed_inflight").inc()
            outcome.set_result(
                QueryOutcome(
                    status="shed",
                    shard_id=shard_id,
                    source=source,
                    shed_reason="inflight-full",
                    retry_after_s=self._inflight_retry_hint(),
                )
            )
            return outcome
        self._publish_inflight_gauge()
        started = perf_counter()
        reply_future = slot.handle.query(source, deadline_s, top_k)

        def _finish(done: "Future[ShardReply]") -> None:
            with slot.lock:
                slot.inflight -= 1
            self._publish_inflight_gauge()
            self.metrics.histogram("shard.roundtrip").observe(
                perf_counter() - started
            )
            outcome.set_result(
                self._reply_to_outcome(done, shard_id, source)
            )

        reply_future.add_done_callback(_finish)
        return outcome

    def query_sync(
        self,
        source: int,
        deadline_s: float | None = None,
        top_k: int | None = None,
        timeout_s: float | None = None,
    ) -> QueryOutcome:
        return self.query(source, deadline_s, top_k).result(timeout_s)

    def _reply_to_outcome(
        self,
        done: "Future[ShardReply]",
        shard_id: int,
        source: int,
    ) -> QueryOutcome:
        try:
            reply = done.result()
        except ShardUnavailableError as exc:
            return QueryOutcome(
                status="unavailable",
                shard_id=shard_id,
                source=source,
                retry_after_s=RETRY_AFTER_UNHEALTHY_S,
                error=str(exc),
            )
        except Exception as exc:  # pragma: no cover - transport bug
            return QueryOutcome(
                status="failed",
                shard_id=shard_id,
                source=source,
                error=repr(exc),
            )
        payload = reply.payload
        if not reply.ok:
            return QueryOutcome(
                status="failed",
                shard_id=shard_id,
                source=source,
                error=reply.error,
            )
        status = str(payload.get("status", "failed"))
        retry_after = (
            self._inflight_retry_hint() if status == "shed" else None
        )
        raw_values = payload.get("values")
        values = (
            [list(pair) for pair in raw_values]
            if isinstance(raw_values, list)
            else None
        )
        return QueryOutcome(
            status=status,
            shard_id=shard_id,
            source=source,
            version=int(payload.get("version", -1)),  # type: ignore[call-overload]
            cached=bool(payload.get("cached", False)),
            values=values,
            response_s=float(payload.get("response_s", 0.0)),  # type: ignore[arg-type]
            retry_after_s=retry_after,
            shed_reason=(
                str(payload["shed_reason"])
                if payload.get("shed_reason") is not None
                else None
            ),
            error=reply.error,
        )

    def _inflight_retry_hint(self) -> float:
        """Retry hint from the observed round-trip distribution."""
        mean = self.metrics.histogram("shard.roundtrip").mean()
        if mean <= 0.0:
            return RETRY_AFTER_MIN_S
        hint = mean * self.max_inflight_per_shard
        return min(RETRY_AFTER_MAX_S, max(RETRY_AFTER_MIN_S, hint))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(
        self, u: int, v: int, kind: str = "toggle", timeout_s: float = 60.0
    ) -> UpdateOutcome:
        """Assign the next fabric version and broadcast to all shards.

        Blocks until every *healthy* shard acked admission of this
        version.  A shard that fails its ack is killed on the spot —
        its graph can no longer be trusted to match the fleet — and
        left to the respawn path, which replays the full log.
        """
        edge_update = EdgeUpdate(u, v, kind)
        self.metrics.counter("shard.updates_broadcast").inc()
        with self._update_lock:
            if self._stopped:
                raise RuntimeError("manager is stopped")
            self._update_log.append(edge_update)
            version = len(self._update_log)
            acked: list[int] = []
            skipped: list[int] = []
            pending: list[tuple[_ShardSlot, "Future[ShardReply]"]] = []
            for slot in self._slots:
                if not slot.handle.healthy:
                    skipped.append(slot.handle.shard_id)
                    continue
                pending.append(
                    (slot, slot.handle.update(version, edge_update))
                )
            for slot, ack in pending:
                shard_id = slot.handle.shard_id
                try:
                    reply = ack.result(timeout_s)
                except Exception:
                    slot.handle.kill()
                    skipped.append(shard_id)
                    continue
                if reply.ok:
                    acked.append(shard_id)
                else:
                    # worker refused (e.g. order fault) and is dying
                    skipped.append(shard_id)
        return UpdateOutcome(
            version=version,
            update=edge_update,
            acked_shards=tuple(acked),
            skipped_shards=tuple(skipped),
        )

    @property
    def fabric_version(self) -> int:
        """Number of updates the fabric has accepted (latest version)."""
        with self._update_lock:
            return len(self._update_log)

    # ------------------------------------------------------------------
    # crash handling / respawn
    # ------------------------------------------------------------------
    def _on_shard_death(self, handle: ShardHandle, reason: str) -> None:
        """Death callback — runs on a transport thread; must not block."""
        self._publish_health_gauge()
        if "order" in reason.lower():
            self.metrics.counter("shard.order_faults").inc()
        # racy read of the stop flag is fine: a respawn that loses the
        # race with stop() sees _stopped under the update lock and bails
        if self._stopped or not self.auto_respawn:
            return
        slot = self._slots[handle.shard_id]
        with slot.lock:
            if slot.respawning or slot.handle is not handle:
                return
            slot.respawning = True
        threading.Thread(
            target=self._respawn,
            args=(handle.shard_id,),
            name=f"shard-{handle.shard_id}-respawn",
            daemon=True,
        ).start()

    def _respawn(self, shard_id: int) -> None:
        """Replace a dead worker and replay the update log into it.

        Holds the update lock for the replay so no new version can be
        assigned mid-replay; the fresh worker re-enters the routing
        table exactly converged with the fleet.
        """
        slot = self._slots[shard_id]
        try:
            with self._update_lock:
                if self._stopped:
                    return
                handle = self._spawn(shard_id)
                try:
                    handle.health().result(START_TIMEOUT_S)
                    for version, edge_update in enumerate(
                        self._update_log, start=1
                    ):
                        reply = handle.update(version, edge_update).result(
                            60.0
                        )
                        if not reply.ok:  # pragma: no cover - replay bug
                            raise RuntimeError(
                                f"replay of v{version} refused: {reply.error}"
                            )
                except Exception:
                    handle.kill()
                    raise
                slot.handle = handle
                with slot.lock:
                    slot.inflight = 0
            self.metrics.counter("shard.respawns").inc()
            self._publish_health_gauge()
        finally:
            with slot.lock:
                slot.respawning = False

    # ------------------------------------------------------------------
    # health / metrics / reconfigure
    # ------------------------------------------------------------------
    def healthz(self, timeout_s: float = 5.0) -> dict[str, object]:
        """Fleet health: manager view plus a live probe of each worker."""
        shards: list[dict[str, object]] = []
        probes: list[tuple[_ShardSlot, "Future[ShardReply]" | None]] = []
        for slot in self._slots:
            probe = slot.handle.health() if slot.handle.healthy else None
            probes.append((slot, probe))
        healthy = 0
        for slot, probe in probes:
            info: dict[str, object] = {
                "shard_id": slot.handle.shard_id,
                "healthy": False,
                "inflight": slot.inflight,
            }
            if probe is not None:
                try:
                    reply = probe.result(timeout_s)
                    info.update(reply.payload)
                    info["healthy"] = bool(reply.ok)
                except Exception:
                    info["error"] = slot.handle.death_reason or "probe timeout"
            else:
                info["error"] = slot.handle.death_reason
            if info["healthy"]:
                healthy += 1
            shards.append(info)
        return {
            "healthy": healthy == self.num_shards,
            "num_shards": self.num_shards,
            "healthy_shards": healthy,
            "fabric_version": self.fabric_version,
            "shards": shards,
        }

    def metrics_snapshot(self, timeout_s: float = 5.0) -> dict[str, object]:
        """Manager metrics plus every reachable worker's snapshot."""
        probes = [
            (slot.handle.shard_id, slot.handle.metrics())
            for slot in self._slots
            if slot.handle.healthy
        ]
        workers: dict[str, object] = {}
        for shard_id, probe in probes:
            try:
                reply = probe.result(timeout_s)
            except Exception:
                continue
            if reply.ok:
                workers[str(shard_id)] = reply.payload
        return {
            "manager": self.metrics.snapshot(),
            "process": process_stats(),
            "shards": workers,
        }

    def reconfigure(
        self, lambda_q: float, lambda_u: float, timeout_s: float = 60.0
    ) -> dict[str, object]:
        """Broadcast a QuotaController re-solve to every healthy shard."""
        self.metrics.counter("shard.reconfigurations").inc()
        probes = [
            (slot.handle.shard_id, slot.handle.reconfigure(lambda_q, lambda_u))
            for slot in self._slots
            if slot.handle.healthy
        ]
        results: dict[str, object] = {}
        for shard_id, probe in probes:
            try:
                reply = probe.result(timeout_s)
            except Exception as exc:
                results[str(shard_id)] = {"ok": False, "error": repr(exc)}
                continue
            results[str(shard_id)] = (
                dict(reply.payload)
                if reply.ok
                else {"ok": False, "error": reply.error}
            )
        return results

    # ------------------------------------------------------------------
    def healthy_shard_count(self) -> int:
        return sum(1 for slot in self._slots if slot.handle.healthy)

    def shard_handle(self, shard_id: int) -> ShardHandle:
        """Direct handle access (tests and failure injection)."""
        return self._slots[shard_id].handle

    def _publish_health_gauge(self) -> None:
        self.metrics.gauge("shard.healthy").set(
            float(self.healthy_shard_count())
        )

    def _publish_inflight_gauge(self) -> None:
        self.metrics.gauge("shard.inflight").set(
            float(sum(slot.inflight for slot in self._slots))
        )

    def __repr__(self) -> str:
        return (
            f"ShardManager(num_shards={self.num_shards}, "
            f"backend={self.backend!r}, "
            f"healthy={self.healthy_shard_count()})"
        )
