"""Feasible window enumeration over a piece bag through one color index.

A window is a (2k+1)-by-(2k+1) block of distinct pieces whose internal
edges all match. Colors are ranked densely, with 0 first, and the bag is
indexed once, in one sorted array of keys ``up * s + left`` (s the number
of ranks) in which color 0 means "unconstrained": every piece is filed
under (up, left), (0, left), (up, 0) and (0, 0). The ids filed under one
key form a run in increasing order. Each distinct key is kept once with
its run, and a key above every query closes the list with an empty run,
so a lookup is one binary search and one equality test.

Cells are placed in growing L-shells from the top-left corner: shell s
is its right column top-down, then its bottom row left to right. Every
cell then finds its left and upper neighbors already placed, and in each
shell past the corner all but two cells are pinned by two colors. All
partial windows grow by one cell at a time, breadth first in numpy, each
looking its candidates up by the down color above the cell and the right
color left of it; a neighbor outside the window reads as a sentinel
column of color 0. Each cell sorts its keys, searches them in increasing
order and scatters the runs back, which is several times faster than
searching them as they come. Parents keep their order and candidates
come in increasing piece id, so the rows are lexicographic in cell
order. The budget counts candidate rows, checked before each cell's are
allocated. A cell with more candidate rows than ``_CHUNK_ROWS`` is
expanded a run of parents at a time, which bounds its index temporaries
and leaves the rows as they are.

The windows are one array, :func:`window_rows`; :func:`enumerate_windows`
adapts it to a stream of :class:`WindowAssembly` tuples for the readers
that take one. :func:`aggregate_candidates` folds the stream into
:class:`Candidates`: per piece, the neighbors that all of its windows
agree on, as one array.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, PieceBag

#: Default cap on candidate rows materialised by one enumeration.
DEFAULT_BUDGET = 10**7

#: A cell with more candidate rows than this is expanded in chunks of parents.
_CHUNK_ROWS = 1 << 18


class BudgetExceededError(Exception):
    """Enumeration aborted; any results gathered so far are incomplete."""

    def __init__(self, budget: int):
        super().__init__(f"window enumeration exceeded the budget of {budget} candidate rows")
        self.budget = budget


class WindowAssembly(NamedTuple):
    """A feasible window: piece ids in row-major order, top row first."""

    k: int
    cells: tuple[int, ...]


class CandidateStatus(NamedTuple):
    """Aggregate of all windows centered on one piece.

    ``stable`` holds, per direction, the neighbor id claimed identically
    by every window (None where windows disagree); a unique status has
    no None, and its ``stable`` is the one neighborhood.
    """

    kind: str  # "none" | "unique" | "multiple"
    stable: tuple[int | None, int | None, int | None, int | None] = (None, None, None, None)


class Candidates:
    """Candidate statuses of the pieces ``0..N-1``, held as arrays.

    ``stable`` is (N, 4): ``stable[pid, d]`` is the neighbor in direction
    ``d`` that every window centered on ``pid`` claims, or -1 where those
    windows disagree or there are none. ``windows[pid]`` counts the
    windows centered on ``pid``. A piece is "unique" when it has windows
    and no -1, "multiple" when it has windows and some -1, else "none".
    """

    def __init__(self, stable: np.ndarray, windows: np.ndarray):
        self.stable = stable
        self.windows = windows
        seen = windows > 0
        self.unique = seen & (stable >= 0).all(axis=1)
        self.multiple = seen & ~self.unique

    def values(self) -> list[CandidateStatus]:
        """Every piece's :class:`CandidateStatus`, by id, for the benchmark's
        tracer; pieces without windows share one "none" status."""
        rows = self.stable.tolist()
        statuses = [CandidateStatus("none")] * len(rows)
        for pid in np.flatnonzero(self.unique).tolist():
            statuses[pid] = CandidateStatus("unique", tuple(rows[pid]))
        for pid in np.flatnonzero(self.multiple).tolist():
            statuses[pid] = CandidateStatus("multiple", tuple(None if c < 0 else c for c in rows[pid]))
        return statuses


def window_rows(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Every feasible window of the bag exactly once, one row each.

    The array is (windows, (2k+1)^2) piece ids in the smallest unsigned
    dtype that holds them, cells row-major, rows lexicographic in L-shell
    cell order. Raises :class:`BudgetExceededError` once more than
    ``budget`` candidate rows would be materialised.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget <= 0:
        raise ValueError("budget must be positive")

    npieces = len(bag.colors)
    side = 2 * k + 1

    # colors ranked densely, with a sentinel piece of color 0 appended as id
    # npieces; 0 ranks first, and a key fits int64 whatever q is
    sentinel = np.zeros((1, 4), dtype=np.int64)
    colors, ranks = np.unique(np.concatenate((bag.colors, sentinel)), return_inverse=True)
    ranks = ranks.reshape(npieces + 1, 4)
    stride = len(colors)
    up, left = ranks[:npieces, UP] * stride, ranks[:npieces, LEFT]
    keys = np.stack([up + left, left, up, np.zeros_like(up)], axis=1).ravel()
    order = np.argsort(keys, kind="stable")  # ids stay ascending within a key
    keys = keys[order]
    ids = (order // 4).astype(np.min_scalar_type(npieces))
    # one run ids[run_lo[j]:run_lo[j] + run_cnt[j]] per distinct key run_key[j],
    # then an empty run under a key above every query, which every miss reads
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    run_key = np.append(keys[first], stride * stride)
    run_lo = np.append(first, len(keys))
    run_cnt = np.diff(run_lo, append=len(keys))

    def runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ranked = np.argsort(key)
        at = np.empty_like(ranked)
        at[ranked] = np.searchsorted(run_key, key[ranked])
        at[run_key[at] != key] = len(run_key) - 1
        return run_lo[at], run_cnt[at]

    below, beside = ranks[:, DOWN] * stride, ranks[:, RIGHT]

    # cells as (column, row), row 0 on top, in L-shells from the top-left
    cells: list[tuple[int, int]] = []
    for s in range(side):
        cells += [(s, r) for r in range(s)]
        cells += [(c, s) for c in range(s + 1)]
    slot_of = {cell: s for s, cell in enumerate(cells)}
    assert all(
        slot_of.get(nb, -1) < s for s, (c, r) in enumerate(cells) for nb in ((c - 1, r), (c, r - 1))
    ), "cell order must place constraints first"
    # row column 0 holds the sentinel, slot s is column s + 1
    left_col = [slot_of.get((c - 1, r), -1) + 1 for c, r in cells]
    above_col = [slot_of.get((c, r - 1), -1) + 1 for c, r in cells]
    canon = [slot_of[(c, r)] + 1 for r in range(side) for c in range(side)]

    rows = np.full((1, 1), npieces, dtype=ids.dtype)
    materialised = 0
    for a, b in zip(above_col, left_col):
        lo, cnt = runs(below[rows[:, a]] + beside[rows[:, b]])
        total = int(cnt.sum())
        materialised += total
        if materialised > budget:
            raise BudgetExceededError(budget)
        # parents in order, about _CHUNK_ROWS candidate rows a chunk, which bounds the int64 temporaries
        cuts = np.searchsorted(np.cumsum(cnt), np.arange(_CHUNK_ROWS, total, _CHUNK_ROWS))
        edges = [0, *cuts.tolist(), len(rows)]
        parts = [_extend(rows[i:j], lo[i:j], cnt[i:j], ids) for i, j in zip(edges, edges[1:])]
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts  # the chunks would otherwise live on beside rows through the next cell
    return rows[:, canon]


def enumerate_windows(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> Iterator[WindowAssembly]:
    """The rows of :func:`window_rows` as :class:`WindowAssembly` tuples, in order.

    An adapter for readers of a stream: it raises, like
    :func:`window_rows`, on the first ``next`` and before yielding anything.
    """
    rows = window_rows(bag, k, budget)
    for start in range(0, len(rows), 1024):
        for window in zip(*rows[start : start + 1024].T.tolist()):
            yield WindowAssembly(k, window)


def _extend(rows: np.ndarray, lo: np.ndarray, cnt: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Extend each row by each of its candidates ``ids[lo:lo + cnt]`` that it
    does not hold yet; parents keep their order and candidates ascend."""
    parent = np.repeat(np.arange(len(rows)), cnt)
    piece = ids[np.arange(len(parent)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
    fresh = np.ones(len(parent), dtype=bool)
    for col in range(1, rows.shape[1]):
        fresh &= rows[parent, col] != piece
    return np.column_stack((rows[parent[fresh]], piece[fresh]))


def aggregate_candidates(num_pieces: int, windows: Iterator[WindowAssembly]) -> Candidates:
    """Fold a window stream into the candidate statuses of pieces ``0..num_pieces-1``.

    Each window becomes one row: its center and the four neighbors of the
    center. A direction is stable for a piece exactly when the grouped
    minimum of its column over the piece's windows equals the grouped
    maximum, so the result depends only on the multiset of windows, not
    on their order.
    """
    lo = np.full((num_pieces, 4), num_pieces, dtype=np.int64)
    hi = np.full((num_pieces, 4), -1, dtype=np.int64)
    count = np.zeros(num_pieces, dtype=np.int64)
    stream = iter(windows)
    first = next(stream, None)
    if first is not None:
        side = 2 * first.k + 1
        mid = first.k * side + first.k
        pick = itemgetter(mid, mid + 1, mid - side, mid - 1, mid + side)
        cells = map(pick, map(attrgetter("cells"), chain((first,), stream)))
        rows = np.fromiter(chain.from_iterable(cells), dtype=np.int64).reshape(-1, 5)
        center, claims = rows[:, 0], rows[:, 1:]
        count = np.bincount(center, minlength=num_pieces)
        np.minimum.at(lo, center, claims)
        np.maximum.at(hi, center, claims)
    return Candidates(np.where(lo == hi, lo, -1), count)


def candidate_neighborhoods(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> Candidates:
    """Candidate status of every piece, from the full window stream."""
    return aggregate_candidates(len(bag.colors), enumerate_windows(bag, k, budget))
