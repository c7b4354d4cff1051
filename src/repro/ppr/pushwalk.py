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

from repro.ppr.csr import CSRView
from repro.ppr.random_walk import WalkIndex, sample_walk_terminals


@dataclass(slots=True)
class WalkPhaseResult:
    """Walk counts of the estimation step (for cost accounting)."""

    num_walks: int
    num_source_nodes: int


def add_walk_estimates(
    view: CSRView,
    reserves: np.ndarray,
    residues: np.ndarray,
    alpha: float,
    num_walks_k: int,
    rng: np.random.Generator,
    index: WalkIndex | None = None,
) -> WalkPhaseResult:
    """Fold residues into reserves via random walks.

    Parameters
    ----------
    view:
        Graph snapshot the walks run on.
    reserves:
        Estimates, mutated in place: one length-``n`` vector or a
        ``(B, n)`` batch of push results (a single vector is the
        ``B = 1`` batch — same holder order, same generator draws).
    residues:
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
        the precomputed store instead of being simulated; a node's
        stored terminals are shared deterministic samples, so every
        row is served per-node from the store.

    Residue holders of *all* rows are flattened into one
    :func:`~repro.ppr.random_walk.sample_walk_terminals` call (the
    walks are independent, so lock-step simulation across rows is
    exact), and terminals scatter into the flat reserve at
    ``row * n + terminal``.

    Returns
    -------
    WalkPhaseResult
        Number of walks consumed and number of residue holders.
    """
    reserves = np.atleast_2d(reserves)
    residues = np.atleast_2d(residues)
    b_idx, v_idx = np.nonzero(residues > 0.0)
    if b_idx.size == 0:
        return WalkPhaseResult(0, 0)
    res = residues[b_idx, v_idx]
    counts = np.ceil(res * num_walks_k).astype(np.int64)
    np.maximum(counts, 1, out=counts)
    weights = res / counts

    if index is None:
        starts = np.repeat(v_idx, counts)
        walk_rows = np.repeat(b_idx, counts)
        per_walk_weight = np.repeat(weights, counts)
        terminals = sample_walk_terminals(view, starts, alpha, rng)
        np.add.at(
            reserves.reshape(-1), walk_rows * view.n + terminals, per_walk_weight
        )
    else:
        # np.nonzero is row-major, so each row's holders are one slice
        bounds = np.searchsorted(b_idx, np.arange(len(reserves) + 1))
        for reserve, lo, hi in zip(reserves, bounds[:-1], bounds[1:]):
            for node, count, weight in zip(
                v_idx[lo:hi], counts[lo:hi], weights[lo:hi]
            ):
                terminals = index.terminals_for(int(node), int(count))
                np.add.at(reserve, terminals, weight)
    return WalkPhaseResult(int(counts.sum()), int(b_idx.size))
