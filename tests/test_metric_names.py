"""Metric names, checked on the source against ``repro.obs.names``.

Every string literal passed to ``.counter`` / ``.histogram`` / ``.time``
/ ``.gauge`` under ``src/repro`` must be registered under that kind,
and every registered name must have a call site.  A typo'd name splits
a time series; a histogram observed under a counter's name charges cost
to a metric nobody charts; a registered name nothing records is a
series every report shows as empty.
"""

import ast
from pathlib import Path

import pytest

from repro.obs import names

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the registry, by kind; ``.time()`` records a histogram
KINDS = {"counter": names.COUNTERS, "histogram": names.HISTOGRAMS,
         "gauge": names.GAUGES}


def metric_calls(tree, where):
    """(place, method, name) of each literal name passed to a registry."""
    return [
        (f"{where}:{node.lineno}", method, node.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (method := getattr(node.func, "attr", None)) in (*KINDS, "time")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


UNREGISTERED = "not registered in repro/obs/names.py"
WRONG_KIND = "registered as a {} (wrong metric kind)"


def misfiled(calls, kinds):
    """(place, call, verdict) of each unregistered or wrong-kind literal."""
    found = []
    for place, method, name in calls:
        if name in kinds["histogram" if method == "time" else method]:
            continue
        other = [kind for kind, registered in kinds.items() if name in registered]
        verdict = WRONG_KIND.format(other[0]) if other else UNREGISTERED
        found.append((place, f".{method}({name!r})", verdict))
    return found


def unused(calls, kinds):
    """Each registered name that no call site passes."""
    used = {name for _, _, name in calls}
    return [
        f"{name!r} is a registered {kind} no call site uses"
        for kind, registered in kinds.items()
        for name in sorted(registered - used)
    ]


def test_metric_names_match_the_registry_both_ways():
    calls = [
        call
        for path in sorted(SRC.rglob("*.py"))
        for call in metric_calls(ast.parse(path.read_text("utf-8")),
                                 path.relative_to(SRC).as_posix())
    ]
    assert misfiled(calls, KINDS) == []
    assert unused(calls, KINDS) == []


def test_the_check_sees_all_three_faults():
    tree = ast.parse(
        "m.counter('a.hits').inc()\n"
        "m.time('a.hits')\n"
        "m.histogram('a.typo').observe(1)\n"
        "m.gauge(name).set(1)\n"
    )
    kinds = {"counter": {"a.hits"}, "histogram": {"a.wait"}, "gauge": set()}
    calls = metric_calls(tree, "f.py")
    assert misfiled(calls, kinds) == [
        ("f.py:2", ".time('a.hits')", "registered as a counter (wrong metric kind)"),
        ("f.py:3", ".histogram('a.typo')", UNREGISTERED),
    ]
    assert unused(calls, kinds) == [
        "'a.wait' is a registered histogram no call site uses"
    ]


#: a registry pinned for the call sites below
PINNED = {"counter": {"cache.hits"}, "histogram": {"service.query"},
          "gauge": {"cache.hit_rate"}}

#: case: (source, the verdict on each call it flags)
CALL_SITES = {
    "unregistered": ("m.histogram('service.qurey')", [UNREGISTERED]),
    "wrong-kind": ("m.counter('service.query')", [WRONG_KIND.format("histogram")]),
    "registered": ("m.counter('cache.hits')\nwith m.time('service.query'): pass", []),
    "non-literal": ("m.counter(name).inc()", []),
    "unregistered-cache-name": ("m.counter('cache.hit')", [UNREGISTERED]),
    "cache-counter-as-histogram": ("m.histogram('cache.hits')",
                                   [WRONG_KIND.format("counter")]),
    "cache-gauge-as-counter": ("m.counter('cache.hit_rate')",
                               [WRONG_KIND.format("gauge")]),
    # the pinned names pass, and a name registered only elsewhere does not
    "pinned-registry-only": ("m.counter('cache.hits')\nm.gauge('cache.hit_rate')\n"
                             "m.histogram('cache.misses')", [UNREGISTERED]),
}


@pytest.mark.parametrize("case", list(CALL_SITES))
def test_each_call_site_against_a_pinned_registry(case):
    source, verdicts = CALL_SITES[case]
    found = misfiled(metric_calls(ast.parse(source), "f.py"), PINNED)
    assert [verdict for _, _, verdict in found] == verdicts
