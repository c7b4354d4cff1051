"""Shared abstractions for the PPR algorithms.

* :class:`PPRParams` — the (alpha, epsilon, delta, p_f) accuracy setting
  of Definition 1 plus the derived walk count K.
* :class:`PPRVector` — a dense single-source PPR estimate with node-id
  accessors and top-k extraction.
* :class:`SubProcessTimers` — wall-clock accounting per sub-process
  (Forward Push, Random Walk, ...), feeding both the tau-calibration of
  Quota (Step 1) and the Table VIII cost-balance experiment.
* :class:`DynamicPPRAlgorithm` — the query/update interface every base
  algorithm implements and Quota configures, plus the two Push+Walk
  steps every method shares: the index-free update and the walk phase.
* :class:`WalkIndexOwner` — the one owner of the
  :class:`~repro.ppr.random_walk.WalkIndex` lifecycle (FORA+,
  SpeedPPR+, Agenda): build on first use, version-keyed validity,
  rebuild on reseed / retune, per-update maintenance chosen by class.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.ppr.csr import CSRView, csr_view
from repro.ppr.kernels import resolve_engine
from repro.ppr.names import AUTO, ENGINE_CHOICES
from repro.ppr.pushwalk import add_walk_estimates
from repro.ppr.random_walk import WalkIndex

# Default cap on the walk-count parameter K.  The paper's theoretical K
# with delta = p_f = 1/n is Theta(n log n), far beyond what pure Python
# sustains at interactive rates; capping K preserves every push/walk
# trade-off Quota tunes (see DESIGN.md, substitutions table).
DEFAULT_WALK_CAP = 20_000


@dataclass(frozen=True, slots=True)
class PPRParams:
    """Accuracy configuration of an SSPPR query (Definition 1).

    Parameters
    ----------
    alpha:
        Teleport (termination) probability of the random walk.
    epsilon:
        Relative error bound of Eq. 1.
    delta:
        PPR threshold above which the guarantee applies.  ``None``
        means the paper's default 1/n, resolved against the live graph.
    p_f:
        Failure probability.  ``None`` means 1/n.
    walk_cap:
        Upper cap applied to the derived walk count K (reproduction
        substitution; see DESIGN.md).
    """

    alpha: float = 0.2
    epsilon: float = 0.5
    delta: float | None = None
    p_f: float | None = None
    walk_cap: int = DEFAULT_WALK_CAP

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        for name in ("delta", "p_f"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.walk_cap < 1:
            raise ValueError("walk_cap must be >= 1")

    def resolved_delta(self, n: int) -> float:
        """delta, defaulting to 1/n as in the paper's experiments."""
        return self.delta if self.delta is not None else 1.0 / max(n, 2)

    def resolved_p_f(self, n: int) -> float:
        """p_f, defaulting to 1/n as in the paper's experiments."""
        return self.p_f if self.p_f is not None else 1.0 / max(n, 2)

    def num_walks(self, n: int) -> int:
        """The FORA walk count K = (2eps/3 + 2) ln(2/p_f) / (eps^2 delta).

        Capped at ``walk_cap`` (see class docstring).
        """
        delta = self.resolved_delta(n)
        p_f = self.resolved_p_f(n)
        k = (2 * self.epsilon / 3 + 2) * math.log(2 / p_f) / (self.epsilon**2 * delta)
        return max(1, min(int(math.ceil(k)), self.walk_cap))


class PPRVector:
    """Single-source PPR estimate over a graph snapshot.

    Wraps the dense estimate array together with the CSR snapshot it was
    computed on, so callers can address entries by node id.
    """

    __slots__ = ("values", "_view", "source")

    def __init__(self, values: np.ndarray, view: CSRView, source: int) -> None:
        self.values = values
        self._view = view
        self.source = source

    def __getitem__(self, node: int) -> float:
        return float(self.values[self._view.to_index(node)])

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self._view.nodes)

    def get(self, node: int, default: float = 0.0) -> float:
        try:
            return self[node]
        except KeyError:
            return default

    def as_dict(self, threshold: float = 0.0) -> dict[int, float]:
        """Materialize {node: estimate} for entries > ``threshold``."""
        mask = self.values > threshold
        nodes = self._view.nodes[mask]
        vals = self.values[mask]
        return {int(v): float(p) for v, p in zip(nodes, vals)}

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """The k largest (node, estimate) pairs, descending by estimate."""
        k = min(k, self.values.size)
        if k == 0:
            return []
        idx = np.argpartition(-self.values, k - 1)[:k]
        idx = idx[np.argsort(-self.values[idx], kind="stable")]
        return [(int(self._view.nodes[i]), float(self.values[i])) for i in idx]

    def total_mass(self) -> float:
        return float(self.values.sum())


class SubProcessTimers:
    """Accumulates wall time and invocation counts per sub-process.

    The paper's cost model (Table VI) is built from exactly these
    measurements: "the values of tau are easy to be gauged as we can
    independently time the actual sub-process costs".
    """

    def __init__(self) -> None:
        self._total: dict[str, float] = {}
        self._count: dict[str, int] = {}

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager charging elapsed wall time to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._total[name] = self._total.get(name, 0.0) + elapsed
            self._count[name] = self._count.get(name, 0) + 1

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Charge a pre-measured duration (used by vectorized paths)."""
        self._total[name] = self._total.get(name, 0.0) + seconds
        self._count[name] = self._count.get(name, 0) + count

    def total(self, name: str) -> float:
        return self._total.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._count.get(name, 0)

    def mean(self, name: str) -> float:
        count = self._count.get(name, 0)
        return self._total.get(name, 0.0) / count if count else 0.0

    def names(self) -> list[str]:
        return sorted(self._total)

    def snapshot(self) -> dict[str, float]:
        """Copy of the accumulated totals (seconds per sub-process)."""
        return dict(self._total)

    def reset(self) -> None:
        self._total.clear()
        self._count.clear()


@dataclass(slots=True)
class QueryStats:
    """Bookkeeping for the most recent query (exposed for tests/benches)."""

    pushes: int = 0
    walks: int = 0
    walk_steps: int = 0
    refreshed_nodes: int = 0
    extra: dict = field(default_factory=dict)


class DynamicPPRAlgorithm(ABC):
    """A PPR algorithm serving interleaved queries and edge updates.

    Subclasses implement :meth:`query` and declare their tunable
    hyperparameters; :meth:`apply_update` defaults to the index-free
    graph mutation.  Quota treats instances uniformly through this
    interface: it reads/writes hyperparameters, reads the sub-process
    timers for calibration, and replays workloads.
    """

    #: short name used in reports ("Agenda", "FORA+", ...)
    name: str = "base"
    #: True when updates must maintain a precomputed walk index
    is_index_based: bool = False
    #: names of tunable hyperparameters, in beta-vector order
    hyperparameter_names: tuple[str, ...] = ()
    #: kernel engines this algorithm can execute (subset of
    #: ``repro.ppr.names.ENGINES``); algorithms opt in per engine
    supported_engines: tuple[str, ...] = ("scalar",)

    def __init__(
        self, graph: DynamicGraph, params: PPRParams | None = None
    ) -> None:
        self.graph = graph
        self.params = params or PPRParams()
        self.timers = SubProcessTimers()
        self.last_query_stats = QueryStats()
        self.engine = "scalar"
        self._rng = np.random.default_rng()

    def seed(self, seed: int) -> None:
        """Reseed the algorithm's internal randomness (reproducibility).

        Index-based algorithms also (re)build their walk index from
        the new generator (via the hyperparameter-change hook) so that
        two identically seeded instances produce identical estimates.
        """
        self._rng = np.random.default_rng(seed)
        self._on_hyperparameters_changed()

    # -- hyperparameters ------------------------------------------------
    def get_hyperparameters(self) -> dict[str, float]:
        """Current values of the tunable hyperparameters."""
        return {name: getattr(self, name) for name in self.hyperparameter_names}

    def set_hyperparameters(self, **values: float) -> None:
        """Set tunable hyperparameters; unknown names raise ValueError.

        As in the paper, tuning these never affects the worst-case
        accuracy guarantee — only the split of work between
        sub-processes.
        """
        for name, value in values.items():
            if name not in self.hyperparameter_names:
                raise ValueError(
                    f"{self.name} has no hyperparameter {name!r}; "
                    f"tunable: {self.hyperparameter_names}"
                )
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
            setattr(self, name, float(value))
        self._on_hyperparameters_changed()

    def _on_hyperparameters_changed(self) -> None:
        """Hook for index-based algorithms to resize their index."""

    # -- kernel engine ----------------------------------------------------
    def set_engine(self, engine: str) -> None:
        """Select the push-kernel engine for this algorithm instance.

        ``engine`` must be ``"auto"`` or a valid kernel name this
        algorithm supports (:attr:`supported_engines`).  ``"auto"``
        means the vectorized kernel of each family (see
        :mod:`repro.ppr.kernels`); on algorithms without vectorized
        paths it degrades to ``"scalar"`` (there is nothing to pick).
        """
        resolve_engine(engine, ENGINE_CHOICES)
        if engine == AUTO:
            self.engine = AUTO if len(self.supported_engines) > 1 else "scalar"
            return
        if engine not in self.supported_engines:
            raise ValueError(
                f"{self.name} does not support engine {engine!r}; "
                f"supported: {self.supported_engines}"
            )
        self.engine = engine

    # -- views -----------------------------------------------------------
    @property
    def view(self) -> CSRView:
        """CSR snapshot of the current graph (cached per version)."""
        return csr_view(self.graph)

    # -- the core interface ----------------------------------------------
    @abstractmethod
    def query(self, source: int) -> PPRVector:
        """Answer an SSPPR query from ``source`` on the current graph."""

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        """Apply one edge arrival; returns the resolved insert/delete.

        The index-free default only mutates the graph — the constant
        ``t_u = tau_3`` row of Table I; :class:`WalkIndexOwner` adds
        the index maintenance.
        """
        with self.timers.measure("Graph Update"):
            resolved = update.apply(self.graph)
            self.view  # refresh the CSR snapshot inside the update cost
        return resolved

    # -- the walk phase shared by Push+Walk algorithms --------------------
    def _num_walks(self) -> int:
        """Walks per unit of residue: FORA's K unless overridden."""
        return self.params.num_walks(self.view.n)

    def _walk_index(self) -> WalkIndex | None:
        """Precomputed walk store; ``None`` samples walks online."""
        return None

    def _walk_phase(
        self,
        view: CSRView,
        reserve: np.ndarray,
        residue: np.ndarray,
        stats: QueryStats,
    ) -> None:
        """Fold the residues into ``reserve`` through random walks."""
        with self.timers.measure("Random Walk"):
            walk = add_walk_estimates(
                view,
                reserve,
                residue,
                self.params.alpha,
                self._num_walks(),
                self._rng,
                index=self._walk_index(),
            )
            stats.walks += walk.num_walks

    # -- defaults shared by Push+Walk algorithms --------------------------
    def default_hyperparameters(self) -> dict[str, float]:
        """Paper-default hyperparameter values for the current graph."""
        return {}

    def reset_to_defaults(self) -> None:
        defaults = self.default_hyperparameters()
        if defaults:
            self.set_hyperparameters(**defaults)

    def __repr__(self) -> str:
        hps = ", ".join(
            f"{k}={v:.3g}" for k, v in self.get_hyperparameters().items()
        )
        return f"{type(self).__name__}({hps})"


#: per-update WalkIndex policies: regenerate (the paper's Table I row
#: and the distributional oracle) or FIRM-style affected-walk patching
INDEX_MAINTENANCE_MODES = ("rebuild", "incremental")


class WalkIndexOwner(DynamicPPRAlgorithm):
    """The walk-index lifecycle of the index-based methods.

    Mixed in ahead of the index-free class (``class ForaPlus(
    WalkIndexOwner, Fora)``).  The index holds ceil(r_max * W *
    d_out(v)) walks per node, W = :meth:`_num_walks`; it is built by
    :meth:`seed`, the first query or the first update — whichever
    comes first — never by the constructor, and is rebuilt whenever
    the hyperparameters or the generator change.

    ``index_maintenance`` is a *class* attribute: the registry name
    ("FORA+" vs "FORA+inc") is the only selector of the update policy,
    which is what ``COST_MODELS[algorithm.name]`` assumes.
    """

    is_index_based = True
    index_maintenance = "rebuild"
    r_max: float
    _index: WalkIndex | None = None
    _incremental_updates = 0
    _walks_resampled = 0

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.index_maintenance not in INDEX_MAINTENANCE_MODES:
            raise ValueError(
                f"{cls.__name__}.index_maintenance must be one of "
                f"{INDEX_MAINTENANCE_MODES}, got {cls.index_maintenance!r}"
            )

    def _build_index(self) -> WalkIndex:
        with self.timers.measure("Index Build"):
            self._index = WalkIndex(
                self.view,
                self.params.alpha,
                self.r_max * self._num_walks(),
                self._rng,
                track_edges=self.index_maintenance == "incremental",
            )
        return self._index

    def _walk_index(self) -> WalkIndex:
        """The index at the graph's current version.

        Keyed on the snapshot *version*, not view object identity: a
        slack-slot compaction yields a fresh view object at the same
        version and must not trigger an O(m r_max K) rebuild.
        """
        index = self._index
        if index is None or index.view.version != self.view.version:
            index = self._build_index()
        return index

    @property
    def index(self) -> WalkIndex:
        """Public name of :meth:`_walk_index` (builds on first use)."""
        return self._walk_index()

    def _on_hyperparameters_changed(self) -> None:
        """r_max (or a reseed) changes the stored walks: rebuild them."""
        self._build_index()

    def apply_update(self, update: EdgeUpdate) -> EdgeUpdate:
        resolved = super().apply_update(update)
        self._maintain_index(resolved)
        return resolved

    def _maintain_index(self, resolved: EdgeUpdate) -> None:
        """Bring the index to the post-update snapshot.

        ``rebuild`` regenerates it (the ``t_u = r_max * tau_3`` row of
        Table I); ``incremental`` resamples only the affected walks, on
        the thread that applied the update (the serving runtime's).
        Agenda overrides this with its inaccuracy tracking.
        """
        if self._index is None or self.index_maintenance == "rebuild":
            self._build_index()
            return
        view = self.view
        with self.timers.measure("Index Update"):
            resampled = self._index.apply_edge_update(
                view,
                view.to_index(resolved.u),
                view.to_index(resolved.v),
                resolved.kind,
            )
        self._incremental_updates += 1
        self._walks_resampled += resampled

    def index_stats(self) -> dict[str, int]:
        """Point-in-time index accounting of *this* algorithm instance
        (a shard exports it as the ``"index"`` block of ``/metrics``;
        the ``index.*`` counters in :mod:`repro.obs` are per process)."""
        index = self._index
        emap = None if index is None else index.edge_map
        return {
            "total_walks": 0 if index is None else index.total_walks,
            "incremental_updates": self._incremental_updates,
            "walks_resampled": self._walks_resampled,
            "edge_map_bytes": 0 if emap is None else emap.nbytes,
            "arena_live_steps": 0 if emap is None else emap.live_steps,
            "arena_dead_steps": 0 if emap is None else emap.dead_steps,
        }


def clip_unit(value: float, lo: float = 1e-12, hi: float = 1.0 - 1e-12) -> float:
    """Clamp a hyperparameter into the open unit interval."""
    return min(max(value, lo), hi)
