"""The graph image: packed once, checked cheaply, built in a child."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation.datasets import get_dataset
from repro.graph import DynamicGraph
from repro.shard import ShardSpec
from repro.shard.image import GraphImage, ImageBuild, graph_image
from repro.shard.messages import _CHECK_CHUNK, _is_packed, pack_edges
from repro.shard.worker import build_graph


def packed(pairs):
    return np.array(pairs, dtype="<i4").reshape(-1, 2).tobytes()


def test_graph_image_packs_a_graph_and_passes_an_image_through():
    graph = DynamicGraph.from_edges([(2, 0), (0, 1), (1, 2), (0, 2)])
    image = graph_image(graph)
    assert image == GraphImage(3, packed([(0, 1), (0, 2), (1, 2), (2, 0)]))
    assert image.num_edges == 4
    assert graph_image(image) is image


def test_builder_child_ships_the_dataset_graph_bit_for_bit():
    """Adjacency order, ``version == m`` and the seeded goldens all hang
    on the image being what packing the generated graph gives here."""
    spec = get_dataset("webs")
    image = graph_image(ImageBuild(spec.name, 3))
    assert image == graph_image(spec.build(seed=3))
    rebuilt = build_graph(ShardSpec(0, 1, image.num_nodes, image.edges))
    assert rebuilt.version == rebuilt.num_edges == image.num_edges


def test_builder_child_failure_is_an_error_not_an_empty_graph(capfd):
    with pytest.raises(RuntimeError, match="exited with 1"):
        ImageBuild("no-such-dataset", 0).result()
    assert "no-such-dataset" in capfd.readouterr().err


def test_children_find_repro_when_the_parent_ignores_pythonpath():
    """``-E`` is copied to every child, which then ignores ``PYTHONPATH``
    too: the launcher has to put the package on the child's ``sys.path``
    itself, as ``multiprocessing``'s spawn did."""
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [
            sys.executable, "-E", "-c",
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from repro.shard.image import ImageBuild; "
            "print(ImageBuild('webs', 0).result().num_nodes)",
        ],
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True, text=True, timeout=120, cwd=Path(__file__).parent,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["280"]


PAIRS_PER_CHUNK = _CHECK_CHUNK // 2
NODES = 3 * PAIRS_PER_CHUNK


def canonical():
    """Sorted distinct pairs spanning three chunks of the streaming check."""
    count = 2 * PAIRS_PER_CHUNK + 10
    return np.array([(u, (u * 7) % NODES) for u in range(count)], dtype="<i4")


@pytest.mark.skipif(sys.byteorder != "little", reason="native int32 view")
def test_canonical_buffer_is_recognised_without_numpy_and_kept():
    buffer = canonical().tobytes()
    assert _is_packed(NODES, buffer)
    assert pack_edges(NODES, buffer) is buffer
    assert _is_packed(5, b"")


def swap(pairs, i, j):
    pairs[[i, j]] = pairs[[j, i]]


def duplicate(pairs, i):
    pairs[i] = pairs[i - 1]


@pytest.mark.parametrize(
    "spoil, verdict",
    [
        (lambda a: swap(a, 10, 11), "sorted"),
        # the same defects on either side of a chunk boundary
        (lambda a: swap(a, PAIRS_PER_CHUNK - 1, PAIRS_PER_CHUNK), "sorted"),
        (lambda a: duplicate(a, 100), ValueError),
        (lambda a: duplicate(a, PAIRS_PER_CHUNK), ValueError),
        (lambda a: a.__setitem__((5, 1), NODES), ValueError),
        (lambda a: a.__setitem__((2 * PAIRS_PER_CHUNK + 3, 0), -1), ValueError),
    ],
)
def test_anything_else_falls_through_to_the_numpy_path(spoil, verdict):
    """The cheap check only ever says "already canonical"; what it
    refuses is sorted or rejected exactly as before it existed."""
    pairs = canonical()
    spoil(pairs)
    buffer = pairs.tobytes()
    assert not _is_packed(NODES, buffer)
    if verdict == "sorted":
        assert pack_edges(NODES, buffer) == canonical().tobytes()
    else:
        with pytest.raises(verdict):
            pack_edges(NODES, buffer)


def test_half_a_pair_is_rejected():
    assert not _is_packed(3, b"\x00" * 12)
    with pytest.raises(ValueError, match="whole int32 pairs"):
        pack_edges(3, b"\x00" * 12)


def test_for_shard_derives_a_twin_without_revalidating(monkeypatch):
    base = ShardSpec(0, 3, 4, [(0, 1), (1, 2), (2, 3)], algorithm="FORA+")
    monkeypatch.setattr(
        "repro.shard.messages.pack_edges",
        lambda *_: pytest.fail("for_shard validated the buffer again"),
    )
    twin = base.for_shard(2)
    assert twin.edges is base.edges and twin.shard_id == 2
    monkeypatch.undo()
    assert twin == dataclasses.replace(base, shard_id=2)
    assert hash(twin) == hash(dataclasses.replace(base, shard_id=2))
    assert base.shard_id == 0
    with pytest.raises(ValueError, match="outside"):
        base.for_shard(3)
