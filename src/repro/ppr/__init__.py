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
