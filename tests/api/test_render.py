"""The HTTP edge writes an answer's packed pairs as the JSON it always did.

Answers cross the worker pipe as :class:`~repro.shard.messages.PackedPairs`
and are encoded once, by :func:`repro.api.http._render`.  Every body it
writes must be byte-identical to ``json.dumps`` of the body the fleet
used to carry — ``[[node, value], ...]`` lists built from the vector with
the old selection code, reproduced here as the oracle — so clients, the
end-to-end output check and ``http.response_bytes_mean`` see no change.
"""

import json
import pickle

import numpy as np
import pytest

from repro.api.frontdoor import ApiResponse
from repro.api.http import _render
from repro.graph.digraph import DynamicGraph
from repro.ppr.base import PPRVector
from repro.ppr.csr import csr_view
from repro.shard.worker import serialize_result

N = 64


def vector(values):
    # nodes() in an order that is not the id order: the full vector sorts
    graph = DynamicGraph.from_edges([(u, (u + 1) % N) for u in range(N)][::-1])
    return PPRVector(np.asarray(values, dtype=np.float64), csr_view(graph), 0)


def old_pairs(result, top_k):
    """The reply values as ``serialize_result`` built them before packing."""
    if top_k is None:
        return [[node, value] for node, value in sorted(result.as_dict().items())]
    k = min(top_k, result.values.size)
    if k == 0:
        return []
    idx = np.argpartition(-result.values, k - 1)[:k]
    idx = idx[np.argsort(-result.values[idx], kind="stable")]
    return [[int(result._view.nodes[i]), float(result.values[i])] for i in idx]


def body_of(values):
    return {
        "status": "ok",
        "source": 0,
        "shard": 1,
        "version": 7,
        "cached": False,
        "values": values,
        "response_s": 0.0123,
    }


def rendered_body(response):
    head, _, body = _render(response).partition(b"\r\n\r\n")
    assert f"Content-Length: {len(body)}".encode() in head
    return body


def assert_identical(result, top_k):
    # the answer crosses the pipe pickled, as it does between processes
    packed = pickle.loads(pickle.dumps(serialize_result(result, top_k)))
    expected = json.dumps(body_of(old_pairs(result, top_k))).encode()
    assert rendered_body(ApiResponse(200, body_of(packed))) == expected


rng = np.random.default_rng(3)
SKEWED = rng.random(N) ** 6
TIED = np.repeat([0.25, 0.125, 1 / 3, 0.0], N // 4)
AWKWARD = np.where(np.arange(N) % 2 == 0, 1 / 3, 2.5e-07)
AWKWARD[5] = 1e-300
AWKWARD[9] = 0.1 + 0.2


@pytest.mark.parametrize("top_k", [1, 50, N + 10, None])
@pytest.mark.parametrize(
    "values", [SKEWED, TIED, AWKWARD], ids=["skewed", "tied", "awkward"]
)
def test_answer_bytes_match_json_dumps_of_the_old_lists(values, top_k):
    assert_identical(vector(values), top_k)


@pytest.mark.parametrize("top_k", [1, N + 10, None])
def test_empty_vector(top_k):
    # all-zero estimate: the full vector has no positive entry, a
    # truncation still lists its zeros
    assert_identical(vector(np.zeros(N)), top_k)


def test_ties_keep_the_argpartition_order():
    result = vector(TIED)
    assert [list(pair) for pair in serialize_result(result, 40)] == old_pairs(
        result, 40
    )
    assert result.top_k(40) == [tuple(pair) for pair in old_pairs(result, 40)]


@pytest.mark.parametrize(
    "response",
    [
        ApiResponse(400, {"status": "error", "error": "bad query param"}),
        ApiResponse(
            503,
            {"status": "shed", "source": 3, "shard": 0, "shed_reason": "full"},
            retry_after_s=0.2,
        ),
        ApiResponse(504, {"status": "timeout", "source": 3, "reason": "gone"}),
        ApiResponse(200, {"status": "ok", "version": 2, "acked_shards": [0, 1]}),
    ],
)
def test_bodies_without_an_answer_are_json_dumps(response):
    assert rendered_body(response) == json.dumps(response.body).encode()


def test_other_objects_still_refuse_to_encode():
    with pytest.raises(TypeError, match="set"):
        _render(ApiResponse(200, {"values": {1, 2}}))
