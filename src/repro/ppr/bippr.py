"""Single-pair bidirectional PPR estimation (BiPPR / FAST-PPR style).

Estimates one value pi(s, t) by combining a *reverse push* from the
target with *forward random walks* from the source (Lofgren et al.
[57], [61] — the lineage the paper's Reverse Push machinery comes
from).  The backward invariant

    pi(s, t) = reserve_b(s) + sum_v pi(s, v) * residue_b(v)

lets the walks estimate only the residue part: each walk samples v from
pi(s, .), so averaging residue_b(v) over walk terminals is an unbiased
estimator of the sum.

Cost: O(d_bar / (alpha r_max_b)) for the push + O(walks / alpha) steps,
versus O(n)-ish for a full single-source query — the point of
bidirectional estimation when only one pair is needed (e.g. "how close
is player u to player v").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import PPRParams
from repro.ppr.csr import csr_view
from repro.ppr.random_walk import sample_walk_terminals
from repro.ppr.reverse_push import reverse_push


@dataclass(frozen=True, slots=True)
class PairEstimate:
    """Outcome of one single-pair estimation."""

    value: float
    backward_reserve: float
    walk_contribution: float
    num_walks: int
    reverse_pushes: int


def ppr_single_pair(
    graph: DynamicGraph,
    source: int,
    target: int,
    params: PPRParams | None = None,
    r_max_b: float | None = None,
    num_walks: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> PairEstimate:
    """Estimate pi(source, target) bidirectionally.

    Parameters
    ----------
    graph:
        The graph to query.
    source, target:
        The node pair.
    params:
        Accuracy configuration; defaults to the paper's standard
        setting.
    r_max_b:
        Reverse-push threshold.  Default sqrt(alpha * d_bar / n) — the
        FAST-PPR balance point between push work and walk count.
    num_walks:
        Forward walks; default r_max_b * K (so that walk noise matches
        the residue magnitude), at least 100.
    rng:
        Numpy generator or seed.

    Returns
    -------
    PairEstimate
        ``value`` combines the backward reserve at the source with the
        Monte-Carlo estimate of the residue sum.
    """
    params = params or PPRParams()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    view = csr_view(graph, reverse=True)
    s = view.to_index(source)
    t = view.to_index(target)

    if r_max_b is None:
        d_bar = max(view.m / max(view.n, 1), 1.0)
        r_max_b = min(max((params.alpha * d_bar / max(view.n, 2)) ** 0.5,
                          1e-6), 0.5)
    back = reverse_push(view, t, params.alpha, r_max_b)

    if num_walks is None:
        k = params.num_walks(view.n)
        num_walks = max(int(r_max_b * k), 100)

    residue = back.residue
    walk_part = 0.0
    if residue.any():
        starts = np.full(num_walks, s, dtype=np.int64)
        terminals = sample_walk_terminals(view, starts, params.alpha, rng)
        walk_part = float(residue[terminals].mean())

    reserve_part = float(back.reserve[s])
    return PairEstimate(
        value=reserve_part + walk_part,
        backward_reserve=reserve_part,
        walk_contribution=walk_part,
        num_walks=num_walks if residue.any() else 0,
        reverse_pushes=back.pushes,
    )
