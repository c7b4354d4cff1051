"""Exact PPR via power iteration — the ground truth oracle.

pi_s = alpha * sum_k (1 - alpha)^k (P^T)^k e_s, where P is the random
walk transition matrix with the repository-wide dangling convention
(out-degree-zero rows act as self loops).

Used for:

* accuracy validation of every approximate algorithm (tests),
* the "true PPR error" series of Figures 4, 8 and 10,
* the TopPPR/FORA-TopK exactness checks on small graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import PPRVector
from repro.ppr.csr import CSRView, csr_view

if TYPE_CHECKING:
    from scipy import sparse


def transition_matrix(view: CSRView) -> "sparse.csr_matrix":
    """Row-stochastic random-walk matrix P of a graph snapshot.

    Row u holds 1/d_out(u) on each out-neighbor; dangling rows hold a
    single 1 on the diagonal (implicit self loop).  scipy is imported
    here, on first use: the push-family serving processes import this
    module (the registry, the exact-mode executor) without calling it.
    """
    from scipy import sparse

    n = view.n
    rows = np.repeat(np.arange(n, dtype=np.int64), view.out_deg)
    # delta-patched views carry slack slots; gather the packed columns
    _, cols = view.packed_out()
    degs = np.maximum(view.out_deg, 1)
    data = 1.0 / degs[rows]
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    dangling = np.flatnonzero(view.out_deg == 0)
    if dangling.size:
        loop = sparse.csr_matrix(
            (np.ones(dangling.size), (dangling, dangling)), shape=(n, n)
        )
        matrix = matrix + loop
    return matrix


def ppr_exact(
    graph: DynamicGraph,
    source: int,
    alpha: float = 0.2,
    tol: float = 1e-12,
    max_iter: int = 1_000,
) -> PPRVector:
    """Exact single-source PPR by geometric-series power iteration.

    Iterates p_{k+1} = (1 - alpha) P^T p_k, accumulating
    pi += alpha * p_k, until the residual mass ||p_k||_1 < tol.  The
    residual shrinks by (1 - alpha) per step, so convergence takes
    log(1/tol) / log(1/(1-alpha)) iterations regardless of the graph.
    """
    view = csr_view(graph)
    s = view.to_index(source)
    matrix_t = transition_matrix(view).T.tocsr()
    p = np.zeros(view.n, dtype=np.float64)
    p[s] = 1.0
    pi = np.zeros(view.n, dtype=np.float64)
    for _ in range(max_iter):
        pi += alpha * p
        p = (1.0 - alpha) * (matrix_t @ p)
        if p.sum() < tol:
            break
    pi += p  # hand the (tiny) leftover mass to its current holders
    return PPRVector(pi, view, source)


def ppr_exact_all_pairs(
    graph: DynamicGraph, alpha: float = 0.2, tol: float = 1e-12
) -> np.ndarray:
    """Dense all-pairs PPR matrix (row s = pi_s).  Small graphs only.

    Solves (I - (1 - alpha) P) X^T = alpha I column-block-wise via the
    same geometric series, vectorized over all sources at once.
    """
    view = csr_view(graph)
    n = view.n
    if n == 0:
        return np.zeros((0, 0))
    matrix_t = transition_matrix(view).T.tocsr()
    p = np.eye(n, dtype=np.float64)
    pi = np.zeros((n, n), dtype=np.float64)
    while p.sum() >= tol:
        pi += alpha * p
        p = (1.0 - alpha) * (matrix_t @ p)
    return pi.T + p.T  # row s = pi_s
