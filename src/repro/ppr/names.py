"""Names only: what a process that never computes a PPR may import.

The serving front door offers ``--algorithm`` choices and stamps an
engine name into every :class:`~repro.shard.messages.ShardSpec`, but
holds no graph and loads no numpy; the classes behind these names live
in :data:`repro.ppr.registry.ALGORITHMS` and the kernels in
:mod:`repro.ppr.kernels`; import these names from here.
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

#: kernel engines selectable on Push+Walk algorithms: ``scalar`` is the
#: deque-based reference path (the property-test oracle for
#: algorithm-level behavior), ``frontier`` the vectorized whole-frontier
#: kernel.
ENGINES = ("scalar", "frontier")

#: pseudo-engine accepted by algorithms and the CLI: the vectorized
#: kernel of each family (see :mod:`repro.ppr.kernels`).
AUTO = "auto"

#: engine names accepted at the algorithm/CLI layer.
ENGINE_CHOICES: tuple[str, ...] = (AUTO,) + ENGINES
