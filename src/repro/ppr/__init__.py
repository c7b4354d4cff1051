"""PPR algorithms: push primitives, ground truth, and the base methods.

The base algorithms Quota configures (Section V / Table I):

=============  =================  ======================================
Algorithm      Index              Tunable hyperparameters
=============  =================  ======================================
FORA           no                 r_max
FORA+          yes                r_max
FORA+inc       yes (incremental)  r_max
SpeedPPR       no                 r_max
SpeedPPR+      yes                r_max
SpeedPPR+inc   yes (incremental)  r_max
Agenda         yes (lazy)         r_max, r_max_b
ResAcc         no                 r_max           (baseline only)
FORA-TopK      no                 r_max
TopPPR         no                 r_max, r_max_b
=============  =================  ======================================

The index column is a property of the *class*: every index-based
method mixes in :class:`~repro.ppr.base.WalkIndexOwner`, the one owner
of the walk-index lifecycle, and the "+inc" variants are subclasses
whose ``index_maintenance`` class attribute selects FIRM-style
affected-walk resampling (:mod:`repro.ppr.incremental`) instead of a
full per-update rebuild.  The registry name is the only selector.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ppr.agenda import Agenda
    from repro.ppr.base import (
        DynamicPPRAlgorithm,
        PPRParams,
        PPRVector,
        QueryStats,
        SubProcessTimers,
    )
    from repro.ppr.bippr import PairEstimate, ppr_single_pair
    from repro.ppr.csr import CSRView, csr_view
    from repro.ppr.fora import Fora, ForaPlus, ForaPlusIncremental
    from repro.ppr.forward_push import PushResult, forward_push
    from repro.ppr.kernels import (
        frontier_push,
        reference_frontier_push,
        resolve_engine,
    )
    from repro.ppr.names import ENGINE_CHOICES, ENGINES
    from repro.ppr.power_iteration import ppr_exact, ppr_exact_all_pairs
    from repro.ppr.random_walk import WalkIndex, sample_walk_terminals
    from repro.ppr.registry import ALGORITHMS
    from repro.ppr.resacc import ResAcc
    from repro.ppr.reverse_push import ReversePushResult, reverse_push
    from repro.ppr.speedppr import (
        SpeedPPR,
        SpeedPPRPlus,
        SpeedPPRPlusIncremental,
    )
    from repro.ppr.topk import ForaTopK, TopPPR
    from repro.ppr.tracking import TrackedPPR, signed_forward_push

__all__ = [
    "ALGORITHMS",
    "ENGINES",
    "ENGINE_CHOICES",
    "Agenda",
    "CSRView",
    "frontier_push",
    "reference_frontier_push",
    "resolve_engine",
    "DynamicPPRAlgorithm",
    "Fora",
    "ForaPlus",
    "ForaPlusIncremental",
    "ForaTopK",
    "PairEstimate",
    "PPRParams",
    "PPRVector",
    "PushResult",
    "TrackedPPR",
    "ppr_single_pair",
    "signed_forward_push",
    "QueryStats",
    "ResAcc",
    "ReversePushResult",
    "SpeedPPR",
    "SpeedPPRPlus",
    "SpeedPPRPlusIncremental",
    "SubProcessTimers",
    "TopPPR",
    "WalkIndex",
    "csr_view",
    "forward_push",
    "ppr_exact",
    "ppr_exact_all_pairs",
    "reverse_push",
    "sample_walk_terminals",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "agenda": ["Agenda"],
        "base": [
            "DynamicPPRAlgorithm",
            "PPRParams",
            "PPRVector",
            "QueryStats",
            "SubProcessTimers",
        ],
        "bippr": ["PairEstimate", "ppr_single_pair"],
        "csr": ["CSRView", "csr_view"],
        "fora": ["Fora", "ForaPlus", "ForaPlusIncremental"],
        "forward_push": ["PushResult", "forward_push"],
        "kernels": [
            "frontier_push",
            "reference_frontier_push",
            "resolve_engine",
        ],
        "names": ["ENGINE_CHOICES", "ENGINES"],
        "power_iteration": ["ppr_exact", "ppr_exact_all_pairs"],
        "random_walk": ["WalkIndex", "sample_walk_terminals"],
        "registry": ["ALGORITHMS"],
        "resacc": ["ResAcc"],
        "reverse_push": ["ReversePushResult", "reverse_push"],
        "speedppr": ["SpeedPPR", "SpeedPPRPlus", "SpeedPPRPlusIncremental"],
        "topk": ["ForaTopK", "TopPPR"],
        "tracking": ["TrackedPPR", "signed_forward_push"],
    },
)
