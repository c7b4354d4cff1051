"""Slack-slot rows: the one adjacency layout of a dynamic graph.

:class:`~repro.graph.digraph.DynamicGraph` stores its out-edges, and
its in-edges once a reverse-push caller asks for them, as
:class:`Adjacency` rows: each row owns a capacity >= its degree inside
one flat int64 array of dense node indices.

* An insert appends into the row's spare slots; a full row is relocated
  to the array tail with doubled capacity, abandoning its old slots as
  *slack*; the array itself grows by an eighth (:func:`growth`).
* A delete removes the entry in place and shifts the rest of the row
  down (O(deg), like ``list.remove``), so a row always lists its
  neighbours in insertion order.
* Once slack exceeds :data:`REBUILD_SLACK_RATIO` x the live entries
  (above :data:`SLACK_FLOOR`) the rows are repacked, each in the order
  it had.  Row order never depends on when that happens.

Row ``i`` occupies ``data[starts[i] : starts[i] + lens[i]]``.  Rows
fresh from a bulk build, a repack or a transpose are packed
(:attr:`Adjacency.is_packed`): one after another in index order, with
``starts[n]`` the entry count.  Any insert, delete or new row clears
that; zero slack alone does not restore it, because a relocated row
sits at the tail in relocation order, not in index order.
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


def growth(size: int, need: int) -> int:
    """Entries to add to a ``size``-entry backing array that must take
    ``need`` more: an eighth of it at least, so appends stay O(1)
    amortised, where doubling would pin a second copy of the whole
    store (the old array lives on in the snapshot being replaced) the
    first time one row outgrows a packed build."""
    return max(size // 8, need, 64)


def grown(array: np.ndarray, need: int) -> np.ndarray:
    """``array`` followed by :func:`growth` zeroed entries."""
    extra = np.zeros(growth(array.size, need), dtype=array.dtype)
    return np.concatenate([array, extra])


class Adjacency:
    """``n`` rows with spare capacity inside one flat array.

    ``starts``, ``lens`` and ``caps`` have room for more than ``n + 1``
    rows, so appending a row is O(1) amortised; ``data[tail:]`` is
    unused and ``live`` counts the entries, ``tail - live`` the slack.
    ``is_packed`` holds from construction until the first patch.
    """

    __slots__ = ("n", "starts", "lens", "caps", "data", "tail", "live", "is_packed")

    def __init__(self, lens: np.ndarray, data: np.ndarray) -> None:
        # packed rows: row i is the lens[i] entries after the rows before it
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
        slack = self.slack
        if slack > SLACK_FLOOR and slack > REBUILD_SLACK_RATIO * self.live:
            return self.packed()
        return self

    def find(self, i: int, j: int) -> int:
        """Position of ``j`` in row ``i``; -1 if the row lacks it."""
        row = self.row(i)
        if row.size <= LIST_SCAN_MAX:
            items = row.tolist()
            return items.index(j) if j in items else -1
        hits = np.flatnonzero(row == j)
        return int(hits[0]) if hits.size else -1

    def insert(self, i: int, j: int) -> None:
        """Append ``j`` to row ``i``."""
        if self.lens[i] == self.caps[i]:
            self._relocate(i)
        self.data[self.starts[i] + self.lens[i]] = j
        self.lens[i] += 1
        self.live += 1
        self.is_packed = False

    def _relocate(self, i: int) -> None:
        """Move row ``i`` to the tail with doubled capacity."""
        new_cap = max(4, 2 * int(self.caps[i]))
        if self.tail + new_cap > self.data.size:
            self.data = grown(self.data, new_cap)
        start, length = int(self.starts[i]), int(self.lens[i])
        self.data[self.tail:self.tail + length] = self.data[
            start:start + length
        ]
        self.starts[i] = self.tail
        self.caps[i] = new_cap
        self.tail += new_cap

    def remove(self, i: int, pos: int) -> None:
        """Delete the entry at ``pos`` of row ``i`` (a :meth:`find`
        result), keeping the rest of the row in order."""
        row = self.row(i)
        row[pos:-1] = row[pos + 1:]
        self.lens[i] -= 1
        self.live -= 1
        self.is_packed = False

    def append_row(self) -> None:
        """Add an empty row (capacity 0; its first insert relocates it)."""
        n = self.n
        if n + 2 > self.starts.size:
            self.starts, self.lens, self.caps = (
                grown(a, 1) for a in (self.starts, self.lens, self.caps)
            )
        self.starts[n] = self.starts[n + 1] = self.tail
        self.lens[n] = self.caps[n] = 0
        self.n = n + 1
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
