"""Scaled synthetic counterparts of the paper's datasets (Table II).

The six real graphs are not redistributable (and at up to 1.5 B edges
far beyond pure Python), so each is replaced by a synthetic graph that
preserves the properties the experiments exercise:

* the *relative size ladder* (Webs < DBLP < Pokec < LJ < Orkut-ish <
  Twitter), which drives per-operation cost and hence where each
  dataset sits on the stable/unstable spectrum;
* directedness (DBLP and Orkut are undirected);
* heavy-tailed degree distributions (preferential attachment).

Per-dataset default query rates and windows mirror the paper's scheme
("stable on the small graphs, heavily contended on the large ones"),
re-anchored to pure-Python service times exactly as the paper anchors
its rates to C++ service times.  Use ``scale`` to shrink everything
further for quick runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.graph.digraph import DynamicGraph


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """Recipe for one benchmark dataset.

    Attributes
    ----------
    name:
        Paper dataset this stands in for.
    nodes, edges:
        Target size of the synthetic graph.
    directed:
        Matches the Table II type column.
    kind:
        "ba" (preferential attachment) or "er" (uniform random).
    lambda_q:
        Default query arrival rate (per virtual second) used by the
        Figure 3 family of experiments.
    window:
        Default simulation window T in virtual seconds.
    walk_cap:
        Per-dataset cap on the walk parameter K (see PPRParams).
    """

    name: str
    nodes: int
    edges: int
    directed: bool
    kind: str
    lambda_q: float
    window: float
    walk_cap: int

    def edge_list(
        self, seed: int = 0, scale: float = 1.0
    ) -> tuple[int, list[tuple[int, int]]]:
        """``(num_nodes, pairs)`` of the graph, pairs in insertion order
        (deterministic per seed).

        ``scale`` < 1 shrinks node/edge counts proportionally — handy
        for smoke tests and CI.
        """
        # the registry is read by processes that never build a graph
        from repro.graph.generators import (
            barabasi_albert_edges,
            erdos_renyi_edges,
        )

        if scale <= 0:
            raise ValueError("scale must be positive")
        n = max(int(self.nodes * scale), 16)
        m = max(int(self.edges * scale), 2 * n)
        if self.kind == "ba":
            attach = max(round(m / (1.5 * n)), 1)
            return n, barabasi_albert_edges(
                n, attach=attach, directed=self.directed, seed=seed
            )
        if self.kind == "er":
            return n, erdos_renyi_edges(
                n, m=m if self.directed else m // 2,
                directed=self.directed, seed=seed,
            )
        raise ValueError(f"unknown dataset kind {self.kind!r}")

    def build(self, seed: int = 0, scale: float = 1.0) -> DynamicGraph:
        """Materialize the graph of :meth:`edge_list`."""
        from repro.graph.digraph import DynamicGraph

        return DynamicGraph.from_edge_array(*self.edge_list(seed, scale))


# Sizes are the paper's divided by ~1000 (Twitter by 10000); rates are
# re-anchored so that, with the default Agenda configuration, the queue
# is comfortably stable at lambda_u/lambda_q = 1/8 and saturates as the
# ratio approaches 8 — the paper's sweep design.
DATASETS: dict[str, DatasetSpec] = {
    "webs": DatasetSpec(
        name="webs", nodes=280, edges=2300, directed=True, kind="er",
        lambda_q=40.0, window=8.0, walk_cap=2000,
    ),
    "dblp": DatasetSpec(
        name="dblp", nodes=610, edges=2000, directed=False, kind="ba",
        lambda_q=25.0, window=8.0, walk_cap=2500,
    ),
    "pokec": DatasetSpec(
        name="pokec", nodes=1600, edges=30600, directed=True, kind="ba",
        lambda_q=8.0, window=10.0, walk_cap=4000,
    ),
    "lj": DatasetSpec(
        name="lj", nodes=4800, edges=69000, directed=True, kind="ba",
        lambda_q=4.0, window=10.0, walk_cap=6000,
    ),
    "orkut": DatasetSpec(
        name="orkut", nodes=3100, edges=117000, directed=False, kind="ba",
        lambda_q=3.0, window=10.0, walk_cap=6000,
    ),
    "twitter": DatasetSpec(
        name="twitter", nodes=4200, edges=150000, directed=True, kind="ba",
        lambda_q=2.0, window=10.0, walk_cap=8000,
    ),
}


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec by (case-insensitive) name."""
    try:
        return DATASETS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
