"""Every algorithm that pushes runs the whole-frontier kernel.

The fleet serves ``frontier_push``, so virtual time, Quota calibration
and the paper benches must measure it too: the deque ``forward_push``
is only the reference the kernel tests compare against.  A profile hook
sees every Python call by code object, however a module imported the
function.
"""

import sys

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.ppr.forward_push import forward_push
from repro.ppr.kernels import frontier_push
from repro.ppr.registry import ALGORITHMS, build_algorithm

#: SpeedPPR's first phase is a power iteration, not a push
POWER_PHASE = {"SpeedPPR", "SpeedPPR+", "SpeedPPR+inc"}


def kernels_called(call):
    """Which of the two push schedules ``call()`` entered."""
    codes = {frontier_push.__code__: "frontier", forward_push.__code__: "deque"}
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.add(codes[frame.f_code])

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_query_pushes_only_with_the_frontier_kernel(name):
    graph = barabasi_albert_graph(120, attach=3, seed=4)
    algorithm = build_algorithm(name, graph, 300, seed=1)
    seen = kernels_called(lambda: algorithm.query(5))
    assert seen == (set() if name in POWER_PHASE else {"frontier"})

