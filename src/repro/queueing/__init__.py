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

# imported last: seed_simulator pulls in repro.core (Seed), which in
# turn imports repro.queueing.replay/workload — both fully loaded by
# this point, keeping the package import acyclic
from repro.queueing.seed_simulator import SeedAwareQueueSimulator  # noqa: E402

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
