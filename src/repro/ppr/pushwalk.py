"""Shared residue-to-walk estimation step of the Push+Walk framework.

FORA, FORA+, SpeedPPR(+), Agenda and the top-k methods all finish a
query the same way: after a (forward-push or power-iteration) phase
leaves residues r(v), each node v contributes ceil(r(v) * K) random
walks of weight r(v) / ceil(r(v) * K), whose terminals are added to the
reserve.  This preserves the FORA invariant

    pi(s, t) = reserve(t) + sum_v r(v) * pi(v, t)

in expectation, which yields the Eq. 1 guarantee with the standard
Chernoff argument for K = (2 eps/3 + 2) ln(2/p_f) / (eps^2 delta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.adjacency import ragged_indices
from repro.ppr.csr import CSRView
from repro.ppr.random_walk import WalkIndex, sample_walk_terminals


@dataclass(slots=True)
class WalkPhaseResult:
    """Walk counts of the estimation step (for cost accounting)."""

    num_walks: int
    num_source_nodes: int


def add_walk_estimates(
    view: CSRView,
    reserve: np.ndarray,
    residue: np.ndarray,
    alpha: float,
    num_walks_k: int,
    rng: np.random.Generator,
    index: WalkIndex | None = None,
) -> WalkPhaseResult:
    """Fold residues into the reserve via random walks.

    Parameters
    ----------
    view:
        Graph snapshot the walks run on.
    reserve:
        The length-``n`` estimate, mutated in place.
    residue:
        Residues left by the push phase, same shape (read-only).
    alpha:
        Walk termination probability (ignored when ``index`` given —
        the index was sampled with its own alpha).
    num_walks_k:
        The K parameter: walks per unit of residue.
    rng:
        Randomness for online sampling.
    index:
        When provided (index-based algorithms), terminals are read from
        the precomputed store instead of being simulated.

    Online, the walks of all residue holders (ascending node index) run
    as one lock-step :func:`~repro.ppr.random_walk.sample_walk_terminals`
    call.  Indexed, every holder's first ``count`` stored terminals are
    read in one ragged gather over the index's slack rows; a holder that
    needs more walks than it stores recycles its row round-robin (slot
    modulo the stored count, :meth:`WalkIndex.terminals_for`'s rule).
    Both branches end in one ``np.add.at`` that adds in holder order,
    stored order within a holder — the order a per-holder loop would.

    Returns
    -------
    WalkPhaseResult
        Number of walks consumed and number of residue holders.
    """
    holders = np.flatnonzero(residue > 0.0)
    if holders.size == 0:
        return WalkPhaseResult(0, 0)
    res = residue[holders]
    counts = np.ceil(res * num_walks_k).astype(np.int64)
    np.maximum(counts, 1, out=counts)
    weights = res / counts

    if index is None:
        starts = np.repeat(holders, counts)
        terminals = sample_walk_terminals(view, starts, alpha, rng)
    else:
        rows = index.rows
        slots = ragged_indices(np.zeros_like(counts), counts)
        stored = rows.lens[holders]
        short = counts > stored
        if short.any():
            recycled = np.repeat(short, counts)
            slots[recycled] %= np.repeat(stored[short], counts[short])
        slots += np.repeat(rows.starts[holders], counts)
        terminals = rows.data[slots]
    np.add.at(reserve, terminals, np.repeat(weights, counts))
    return WalkPhaseResult(int(counts.sum()), int(holders.size))
