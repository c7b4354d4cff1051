"""The algorithm registry: name -> class, the only selector there is."""

from __future__ import annotations

from repro.ppr.agenda import Agenda
from repro.ppr.base import DynamicPPRAlgorithm
from repro.ppr.fora import Fora, ForaPlus, ForaPlusIncremental
from repro.ppr.resacc import ResAcc
from repro.ppr.speedppr import SpeedPPR, SpeedPPRPlus, SpeedPPRPlusIncremental
from repro.ppr.topk import ForaTopK, TopPPR

#: keys are :data:`repro.ppr.names.ALGORITHM_NAMES` (tests/ppr pins it)
ALGORITHMS: dict[str, type[DynamicPPRAlgorithm]] = {
    "FORA": Fora,
    "FORA+": ForaPlus,
    "FORA+inc": ForaPlusIncremental,
    "SpeedPPR": SpeedPPR,
    "SpeedPPR+": SpeedPPRPlus,
    "SpeedPPR+inc": SpeedPPRPlusIncremental,
    "Agenda": Agenda,
    "ResAcc": ResAcc,
    "FORA-TopK": ForaTopK,
    "TopPPR": TopPPR,
}
