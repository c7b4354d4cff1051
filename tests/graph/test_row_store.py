"""The slack-row store against a list-of-lists model.

``Adjacency`` is the one row store: a graph's out- and in-rows, a walk
index's terminal rows and the edge→walk map's posting rows.  The graph
reaches it through ``insert`` / ``remove`` (``reference_rows.py`` pins
that order); the walk index and the map through the bulk operations —
``extend`` (many rows at once), ``append_rows``, ``relocate``,
``resize`` and ``repack``.  Hypothesis drives all of them, mixed, against plain
Python lists, and after every operation each row must list the model's
entries in order, rows must not overlap, and no row may have lost
capacity: a walk is addressed by ``(row, slot)``, and the edge→walk
map counts on a dropped slot still belonging to its row.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import Adjacency

OPS = (
    "extend", "append_rows", "relocate", "grow", "shrink", "insert",
    "remove", "compact", "repack",
)


class Model:
    def __init__(self, rows):
        self.rows = [list(row) for row in rows]
        self.next = 1000  # fresh values, so a misplaced copy shows

    def values(self, count):
        out = list(range(self.next, self.next + count))
        self.next += count
        return out


def build(rng):
    lens = [rng.randrange(4) for _ in range(rng.randrange(1, 6))]
    model = Model([[rng.randrange(100) for _ in range(k)] for k in lens])
    flat = [v for row in model.rows for v in row]
    # spare room past the packed rows, as the map's posting rows have
    data = np.zeros(len(flat) + rng.randrange(8), dtype=np.int64)
    data[:len(flat)] = flat
    return Adjacency(np.array(lens, dtype=np.int64), data), model


def apply(op, rng, store, model):
    n = len(model.rows)
    i = rng.randrange(n)
    if op == "extend":
        rows = sorted(rng.sample(range(n), rng.randint(1, n)))
        rng.shuffle(rows)  # distinct, in any order
        adds = [rng.randrange(4) for _ in rows]
        values = model.values(sum(adds))
        store.extend(
            np.array(rows, dtype=np.int64), np.array(adds, dtype=np.int64),
            np.array(values, dtype=np.int64),
        )
        at = 0
        for row, add in zip(rows, adds):
            model.rows[row] += values[at:at + add]
            at += add
    elif op == "append_rows":
        lens = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
        store.append_rows(np.array(lens, dtype=np.int64))
        for k in lens:
            values = model.values(k)
            store.row(len(model.rows))[:] = values  # the caller writes
            model.rows.append(values)
    elif op == "relocate":
        start = int(store.starts[i])
        cap = len(model.rows[i]) + rng.randrange(4)
        assert store.relocate(i, max(cap, int(store.caps[i]))) == start
    elif op == "grow":
        # within capacity, then write the slots gained
        length = rng.randint(len(model.rows[i]), int(store.caps[i]))
        store.resize(i, length)
        values = model.values(length - len(model.rows[i]))
        store.row(i)[len(model.rows[i]):] = values
        model.rows[i] += values
    elif op == "shrink":
        length = rng.randint(0, len(model.rows[i]))
        store.resize(i, length)
        del model.rows[i][length:]
    elif op == "insert":
        value = model.values(1)[0]
        store.insert(i, value)
        model.rows[i].append(value)
    elif op == "remove" and model.rows[i]:
        value = rng.choice(model.rows[i])
        store.remove(i, store.find(i, value))
        model.rows[i].remove(value)
    elif op == "compact":
        return store.packed()
    elif op == "repack":
        # every slot of every row's capacity, moved as it is, in row order
        old = store.data.copy()
        moved = store.repack()
        assert store.data.tolist() == old[moved].tolist()
        assert store.tail == store.data.size == int(store.caps[:n].sum())
    return store


def check(store, model, caps_before):
    n = len(model.rows)
    assert store.n == n
    for i, row in enumerate(model.rows):
        assert store.row(i).tolist() == row
    lens = store.lens[:n]
    caps = store.caps[:n]
    assert (lens <= caps).all()
    assert store.live == int(lens.sum())
    assert store.entries().tolist() == [v for row in model.rows for v in row]
    # rows sit below the tail, inside the data, and never overlap
    # (a row without capacity holds no slot)
    starts = store.starts[:n]
    assert (starts + caps <= store.tail).all()
    assert store.tail <= store.data.size
    held = np.flatnonzero(caps > 0)
    order = held[np.argsort(starts[held], kind="stable")]
    assert (starts[order][:-1] + caps[order][:-1] <= starts[order][1:]).all()
    # a grown row never loses capacity
    assert (caps[:caps_before.size] >= caps_before).all()


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**16),
)
def test_row_store_agrees_with_a_list_model(ops, seed):
    store, model = build(random.Random(seed))
    check(store, model, np.zeros(0, dtype=np.int64))
    for op, op_seed in ops:
        caps = store.caps[:store.n].copy()
        store = apply(op, random.Random(op_seed), store, model)
        if op == "compact":
            # a repack drops the slack but keeps every row in order
            assert store.is_packed and store.slack == 0
            caps = np.zeros(0, dtype=np.int64)
        check(store, model, caps)


def test_extend_moves_a_full_row_to_twice_what_it_needs():
    store = Adjacency(np.array([2, 1]), np.array([5, 6, 7], dtype=np.int64))
    store.extend(
        np.array([1, 0]), np.array([3, 0]), np.array([8, 9, 10])
    )
    assert store.row(1).tolist() == [7, 8, 9, 10]
    assert (int(store.starts[1]), int(store.caps[1])) == (3, 8)
    assert store.row(0).tolist() == [5, 6] and store.starts[0] == 0
    assert store.tail == 11 and store.slack == 11 - 6


def test_relocate_reports_the_span_it_moved():
    store = Adjacency(np.array([2, 2]), np.arange(4, dtype=np.int64))
    assert store.relocate(0, 6) == 0
    assert int(store.starts[0]) == 4 and store.row(0).tolist() == [0, 1]
    assert not store.is_packed and store.tail == 10
