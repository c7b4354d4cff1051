"""Names only: what a process that never computes a PPR may import.

The serving front door offers ``--algorithm`` choices but holds no
graph and loads no numpy; the classes behind these names live in
:data:`repro.ppr.registry.ALGORITHMS`; import these names from here.
"""

from __future__ import annotations

#: registry names, in :data:`repro.ppr.registry.ALGORITHMS` order
ALGORITHM_NAMES = (
    "FORA",
    "FORA+",
    "FORA+inc",
    "SpeedPPR",
    "SpeedPPR+",
    "SpeedPPR+inc",
    "Agenda",
    "ResAcc",
    "FORA-TopK",
    "TopPPR",
)
