"""Slack-slot rows: the one row store of the repository.

Every ragged, growable per-node store keeps its rows here: a
:class:`~repro.graph.digraph.DynamicGraph`'s out-edges (and its
in-edges once a reverse-push caller asks for them), a
:class:`~repro.ppr.random_walk.WalkIndex`'s walk terminals, and the
posting rows of its edge→walk map
(:class:`~repro.ppr.incremental.EdgeWalkMap`).  Each row owns a
capacity >= its length inside one flat int64 array.

* A row that outgrows its capacity is relocated to the array tail
  (:meth:`Adjacency.relocate`), abandoning its old slots as *slack*; the
  array itself grows by an eighth (:func:`growth`).  The caller picks
  the new capacity: a graph row doubles, a walk or posting row gets
  twice the length it needs.  No row ever loses capacity.
* A graph delete removes the entry in place and shifts the rest of the
  row down (O(deg), like ``list.remove``), so a row always lists its
  entries in the order they were appended.
* Once slack exceeds :data:`REBUILD_SLACK_RATIO` x the live entries
  (above :data:`SLACK_FLOOR`, :func:`excessive`) :meth:`Adjacency.compacted`
  repacks the graph's rows, each in the order it had.  Row order never
  depends on when that happens.  Walk rows are addressed by
  ``(node, slot)``, so their repack (:meth:`Adjacency.repack`) keeps
  every row's capacity and drops only the slots relocations abandoned;
  posting rows are rebuilt whole by their map.

Row ``i`` occupies ``data[starts[i] : starts[i] + lens[i]]``.  Rows
fresh from a bulk build, :meth:`Adjacency.packed` or a transpose are packed
(:attr:`Adjacency.is_packed`): one after another in index order, with
``starts[n]`` the entry count.  Any patch or new row clears that; zero
slack alone does not restore it, because a relocated row sits at the
tail in relocation order, not in index order.
"""

from __future__ import annotations

import numpy as np

#: repack once slack exceeds this fraction of the live entries
REBUILD_SLACK_RATIO = 0.5

#: slack is never considered excessive below this absolute floor, so
#: small graphs do not thrash repacks
SLACK_FLOOR = 256

#: rows up to this length are searched as a Python list, longer ones
#: with one numpy compare: the list scan grows ~25 ns an entry, the
#: numpy compare costs 2.5-5 us at any length, and they cross between
#: 96 and 160 entries on a Xeon core
#: (``benchmarks/bench_csr_incremental.py::test_row_scan_paths``)
LIST_SCAN_MAX = 128


def ragged_indices(
    starts: np.ndarray, lens: np.ndarray, dtype: type = np.int64
) -> np.ndarray:
    """Flat indices of the rows ``[starts[i], starts[i] + lens[i])``,
    row after row — the gather every slack-row layout here needs.

    ``dtype=np.int32`` halves the result (and the temporary beside it)
    for callers whose positions are known to stay below 2**31.
    """
    ends = np.cumsum(lens)
    flat = np.repeat((starts - (ends - lens)).astype(dtype, copy=False), lens)
    flat += np.arange(flat.size, dtype=dtype)
    return flat


def excessive(slack: int, live: int) -> bool:
    """Whether ``slack`` unused slots beside ``live`` entries call for a
    repack: more than :data:`REBUILD_SLACK_RATIO` x ``live`` and more
    than :data:`SLACK_FLOOR`."""
    return slack > SLACK_FLOOR and slack > REBUILD_SLACK_RATIO * live


def growth(size: int, need: int) -> int:
    """Entries to add to a ``size``-entry backing array that must take
    ``need`` more: an eighth of it at least, so appends stay O(1)
    amortised, where doubling would pin a second copy of the whole
    store (the old array lives on in the snapshot being replaced) the
    first time one row outgrows a packed build."""
    return max(size // 8, need, 64)


def reserved(array: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``array``, followed by :func:`growth` zeroed entries when
    ``extra`` entries past ``used`` do not fit."""
    if used + extra <= array.size:
        return array
    more = growth(array.size, used + extra - array.size)
    return np.concatenate([array, np.zeros(more, dtype=array.dtype)])


def position_dtype(array: np.ndarray) -> type:
    """Narrowest index type addressing every slot of ``array``: the
    position temporaries of a bulk gather are often its largest."""
    return np.int32 if array.size < 2**31 else np.int64


class Adjacency:
    """``n`` rows with spare capacity inside one flat array.

    ``starts``, ``lens`` and ``caps`` have room for more than ``n + 1``
    rows, so appending a row is O(1) amortised; ``data[tail:]`` is
    unused and ``live`` counts the entries, ``tail - live`` the slack.
    ``is_packed`` holds from construction until the first patch.
    """

    __slots__ = ("n", "starts", "lens", "caps", "data", "tail", "live", "is_packed")

    def __init__(self, lens: np.ndarray, data: np.ndarray) -> None:
        # packed rows: row i is the lens[i] entries after the rows before
        # it; ``data`` may run past them, as room for the first appends
        self.n = n = lens.size
        self.starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=self.starts[1:])
        self.lens = np.zeros(n + 1, dtype=np.int64)
        self.lens[:n] = lens
        self.caps = self.lens.copy()
        self.data = data
        self.tail = self.live = int(self.starts[n])
        self.is_packed = True

    @property
    def slack(self) -> int:
        """Dead + spare slots below the high-water mark."""
        return self.tail - self.live

    @property
    def nbytes(self) -> int:
        arrays = (self.data, self.starts, self.lens, self.caps)
        return sum(a.nbytes for a in arrays)

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` (a view into :attr:`data`)."""
        start = self.starts[i]
        return self.data[start:start + self.lens[i]]

    def entries(self) -> np.ndarray:
        """Every row's entries, row after row, in index order."""
        return self.data[ragged_indices(self.starts[:self.n], self.lens[:self.n])]

    def packed(self) -> "Adjacency":
        """A copy without slack: the same rows in the same order."""
        return Adjacency(self.lens[:self.n].copy(), self.entries())

    def compacted(self) -> "Adjacency":
        """These rows, or :meth:`packed` once slack exceeds
        :data:`REBUILD_SLACK_RATIO` x the live entries (and
        :data:`SLACK_FLOOR`)."""
        if excessive(self.slack, self.live):
            return self.packed()
        return self

    def repack(self) -> np.ndarray:
        """Drop, in place, the slots relocations abandoned: the rows move
        to the front in index order, each keeping its capacity and its
        slot order, so a ``(row, slot)`` address names the same entry
        after.  Returns the old position of every slot of the new
        :attr:`data`, for a caller keeping arrays parallel to it."""
        n = self.n
        caps = self.caps[:n]
        moved = ragged_indices(self.starts[:n], caps, position_dtype(self.data))
        self.data = self.data[moved]
        self.starts[:n] = np.cumsum(caps) - caps
        self.starts[n] = self.tail = moved.size
        return moved

    def find(self, i: int, j: int) -> int:
        """Position of ``j`` in row ``i``; -1 if the row lacks it."""
        row = self.row(i)
        if row.size <= LIST_SCAN_MAX:
            items = row.tolist()
            return items.index(j) if j in items else -1
        hits = np.flatnonzero(row == j)
        return int(hits[0]) if hits.size else -1

    def insert(self, i: int, j: int) -> None:
        """Append ``j`` to row ``i`` (a full row doubles its capacity)."""
        if self.lens[i] == self.caps[i]:
            self.relocate(i, max(4, 2 * int(self.caps[i])))
        self.data[self.starts[i] + self.lens[i]] = j
        self.lens[i] += 1
        self.live += 1
        self.is_packed = False

    def relocate(self, i: int, cap: int) -> int:
        """Move row ``i`` to the tail with capacity ``cap`` (at least its
        length); returns its old start, so a caller keeping arrays
        parallel to :attr:`data` can move the same span."""
        self.data = reserved(self.data, self.tail, cap)
        start, length = int(self.starts[i]), int(self.lens[i])
        self.data[self.tail:self.tail + length] = self.data[
            start:start + length
        ]
        self.starts[i] = self.tail
        self.caps[i] = cap
        self.tail += cap
        self.is_packed = False
        return start

    def remove(self, i: int, pos: int) -> None:
        """Delete the entry at ``pos`` of row ``i`` (a :meth:`find`
        result), keeping the rest of the row in order."""
        row = self.row(i)
        row[pos:-1] = row[pos + 1:]
        self.lens[i] -= 1
        self.live -= 1
        self.is_packed = False

    def resize(self, i: int, length: int) -> None:
        """Set row ``i``'s length, at most its capacity: slots it gains
        hold stale entries for the caller to overwrite."""
        self.live += length - int(self.lens[i])
        self.lens[i] = length
        self.is_packed = False

    def extend(
        self, rows: np.ndarray, adds: np.ndarray, values: np.ndarray
    ) -> None:
        """Append to many distinct ``rows`` at once: ``rows[k]`` gets the
        next ``adds[k]`` entries of ``values``.  A row without room moves
        to the tail with twice the length it needs (a compaction cycle
        roughly doubles a posting row, so packed rows would all move at
        once)."""
        need = self.lens[rows] + adds
        full = need > self.caps[rows]
        if full.any():
            moved, caps = rows[full], 2 * need[full]
            held = self.lens[moved]
            total = int(caps.sum())
            self.data = reserved(self.data, self.tail, total)
            narrow = position_dtype(self.data)
            starts = self.tail + np.cumsum(caps) - caps
            self.data[ragged_indices(starts, held, narrow)] = self.data[
                ragged_indices(self.starts[moved], held, narrow)
            ]
            self.starts[moved] = starts
            self.caps[moved] = caps
            self.tail += total
        slots = ragged_indices(
            self.starts[rows] + self.lens[rows], adds, position_dtype(self.data)
        )
        self.data[slots] = values
        self.lens[rows] = need
        self.live += int(adds.sum())
        self.is_packed = False

    def append_rows(self, lens: np.ndarray) -> None:
        """Add rows of the given lengths, packed at the tail without
        spare slots (an empty row's first append relocates it); their
        entries are for the caller to write."""
        n, k = self.n, lens.size
        self.starts, self.lens, self.caps = (
            reserved(a, n + 1, k) for a in (self.starts, self.lens, self.caps)
        )
        total = int(lens.sum())
        self.data = reserved(self.data, self.tail, total)
        self.starts[n:n + k] = self.tail + np.cumsum(lens) - lens
        self.lens[n:n + k] = self.caps[n:n + k] = lens
        self.tail += total
        self.live += total
        self.n = n = n + k
        self.starts[n] = self.tail
        self.lens[n] = self.caps[n] = 0
        self.is_packed = False

    def drop_row(self, i: int) -> None:
        """Remove the empty row ``i``: every later row, and every entry
        naming one, moves down one index (packed rows stay packed)."""
        n = self.n
        self.starts, self.lens, self.caps = (
            np.delete(a[:n + 1], i) for a in (self.starts, self.lens, self.caps)
        )
        held = self.data[:self.tail]
        held[held > i] -= 1
        self.n = n - 1


def transpose(rows: Adjacency) -> Adjacency:
    """The in-rows of ``rows``, packed, each listing its in-neighbours
    by ascending source index (one stable sort of the sources by
    target)."""
    n = rows.n
    sources = np.repeat(np.arange(n, dtype=np.int64), rows.lens[:n])
    targets = rows.entries()
    return Adjacency(
        np.bincount(targets, minlength=n),
        sources[np.argsort(targets, kind="stable")],
    )
