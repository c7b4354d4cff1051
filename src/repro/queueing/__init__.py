"""Queueing substrate: arrivals, workloads, theory, and the simulator.

The paper's experiments replay mixed query/update request streams
through an FCFS single-server queue and measure *response time* —
queueing delay plus service time.  This subpackage provides:

* arrival-time processes (Poisson and the Table III alternatives),
* workload generation, including the Figure 4 dynamic rate patterns,
* the queueing-theory formulas of Section IV-A (Eq. 2, Lemma 1),
* one virtual-time discrete-event replay loop (:mod:`~repro.queueing.replay`)
  and its two simulator front ends: strict FCFS and Seed-aware.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.queueing.arrivals import (
        ArrivalProcess,
        GammaArrivals,
        GeometricArrivals,
        NormalArrivals,
        PoissonArrivals,
        TraceArrivals,
        UniformArrivals,
        wikipedia_like_trace,
    )
    from repro.queueing.seed_simulator import SeedAwareQueueSimulator
    from repro.queueing.simulator import (
        CompletedRequest,
        FCFSQueueSimulator,
        MeasuredParallelWarning,
        SimulationResult,
    )
    from repro.queueing.theory import (
        expected_response_time,
        heavy_traffic_response_time,
        is_stable,
        mm1_response_time,
        traffic_intensity,
        unstable_response_growth,
    )
    from repro.queueing.workload import (
        Request,
        Workload,
        WorkloadSegment,
        dynamic_pattern_segments,
        generate_segmented_workload,
        generate_workload,
    )

__all__ = [
    "ArrivalProcess",
    "CompletedRequest",
    "FCFSQueueSimulator",
    "MeasuredParallelWarning",
    "GammaArrivals",
    "GeometricArrivals",
    "NormalArrivals",
    "PoissonArrivals",
    "Request",
    "SeedAwareQueueSimulator",
    "SimulationResult",
    "TraceArrivals",
    "UniformArrivals",
    "Workload",
    "WorkloadSegment",
    "dynamic_pattern_segments",
    "expected_response_time",
    "generate_segmented_workload",
    "generate_workload",
    "heavy_traffic_response_time",
    "is_stable",
    "mm1_response_time",
    "traffic_intensity",
    "unstable_response_growth",
    "wikipedia_like_trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arrivals": [
            "ArrivalProcess",
            "GammaArrivals",
            "GeometricArrivals",
            "NormalArrivals",
            "PoissonArrivals",
            "TraceArrivals",
            "UniformArrivals",
            "wikipedia_like_trace",
        ],
        "seed_simulator": ["SeedAwareQueueSimulator"],
        "simulator": [
            "CompletedRequest",
            "FCFSQueueSimulator",
            "MeasuredParallelWarning",
            "SimulationResult",
        ],
        "theory": [
            "expected_response_time",
            "heavy_traffic_response_time",
            "is_stable",
            "mm1_response_time",
            "traffic_intensity",
            "unstable_response_growth",
        ],
        "workload": [
            "Request",
            "Workload",
            "WorkloadSegment",
            "dynamic_pattern_segments",
            "generate_segmented_workload",
            "generate_workload",
        ],
    },
)
