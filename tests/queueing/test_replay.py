"""Property tests for the one replay loop (``repro.queueing.replay``).

Every virtual-time engine runs this loop, so comparing two of them no
longer proves anything by itself.  The independent references here are
the Lindley recursion computed straight from the workload
(``lindley_reference``) and, for the Seed schedule, the
measured-vs-modeled contract: a measured executor (real algorithm calls
timed on a clock) and a modeled one (a cost function) that are given
identical service durations must produce identical timelines.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seed import SeedQueue
from repro.core.system import QuotaSystem
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import PPRParams, DynamicPPRAlgorithm
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import ModeledExecutor, replay
from repro.queueing.workload import Request, Workload
from repro.scenarios.oracles import lindley_reference

NODES = 24

# dyadic times (multiples of 2^-10 below 2^3): every sum and difference
# the engines form is exact in binary floating point, so timelines can
# be compared with ==
ticks = st.integers(0, 1 << 11).map(lambda n: n / 1024)


@st.composite
def workloads(draw):
    requests = []
    for arrival in sorted(draw(st.lists(ticks, min_size=1, max_size=40))):
        if draw(st.booleans()):
            requests.append(
                Request(arrival, QUERY, source=draw(st.integers(0, NODES - 1)))
            )
        else:
            u = draw(st.integers(0, NODES - 1))
            v = (u + draw(st.integers(1, NODES - 1))) % NODES
            requests.append(Request(arrival, UPDATE, update=EdgeUpdate(u, v)))
    return Workload(requests, 2.0, 1.0, 1.0)


def service_fn(request):
    """Service duration as a function of what is asked, not when."""
    if request.kind == QUERY:
        return (1 + request.source % 5) / 64
    return (1 + request.update.u % 3) / 256


def timeline(result):
    return [
        (c.arrival, c.kind, c.start, c.finish, c.service)
        for c in result.completed
    ]


@settings(max_examples=60, deadline=None)
@given(workload=workloads())
def test_strict_fcfs_configurations_match_the_lindley_recursion(workload):
    expected = timeline(lindley_reference(workload, service_fn))
    fcfs = replay(workload, ModeledExecutor(service_fn))
    assert timeline(fcfs) == expected
    graph = barabasi_albert_graph(NODES, attach=2, seed=1)
    seed_off = replay(
        workload,
        ModeledExecutor(service_fn, graph=graph),
        seed_queue=SeedQueue(graph, 0.2, 0.0),
    )
    assert timeline(seed_off) == expected


class ClockedAlgorithm(DynamicPPRAlgorithm):
    """Real graph mutation; each call advances ``clock`` by its
    ``service_fn`` duration instead of taking wall time."""

    name = "clocked"

    def __init__(self, graph, clock):
        super().__init__(graph, PPRParams(alpha=0.2))
        self.clock = clock

    def query(self, source):
        self.clock[0] += service_fn(Request(0.0, QUERY, source=source))
        return ppr_exact(self.graph, source, alpha=self.params.alpha)

    def apply_update(self, update):
        self.clock[0] += service_fn(Request(0.0, UPDATE, update=update))
        return update.apply(self.graph)


@settings(max_examples=40, deadline=None)
@given(
    workload=workloads(),
    epsilon_r=st.sampled_from([0.05, 0.5, 5.0, 500.0]),
)
def test_measured_and_modeled_executors_agree(workload, epsilon_r):
    """epsilon_r > 0, one server: deferral, idle drain, forced flush and
    the closing drain all schedule the same whether service time is
    measured or modeled."""
    modeled_graph = barabasi_albert_graph(NODES, attach=2, seed=1)
    measured_graph = modeled_graph.copy()
    modeled = replay(
        workload,
        ModeledExecutor(service_fn, graph=modeled_graph),
        seed_queue=SeedQueue(modeled_graph, 0.2, epsilon_r),
    )

    clock = [0.0]
    system = QuotaSystem(
        ClockedAlgorithm(measured_graph, clock),
        epsilon_r=epsilon_r,
        metrics=MetricsRegistry(),
    )
    with mock.patch("repro.queueing.replay.perf_counter", lambda: clock[0]):
        measured = system.process(workload)

    assert timeline(measured) == timeline(modeled)
    assert set(measured_graph.edges()) == set(modeled_graph.edges())
