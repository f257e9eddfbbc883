"""Feasible window enumeration over a piece bag, by dominoes.

A window is a (2k+1)-by-(2k+1) block of distinct pieces whose internal
edges all match. Colors are ranked densely, and three indexes are built
once per enumeration. Each is one sorted array of keys ``a * s + b`` of
two ranks (s the number of ranks); each distinct key is kept once with
the run of entries filed under it, and a key above every query closes
the list with an empty run, so a lookup is one binary search and one
equality test.

* singles: each piece under its (up, left) colors, ids ascending;
* horizontal dominoes: each pair (p, r) of distinct pieces with
  p.right = r.left, under (p.up, r.up);
* vertical dominoes: each pair of distinct pieces p above r with
  p.down = r.up, under (p.left, r.left).

The dominoes are built from per-color runs of piece ids and come in
(p, r) order within a key.

Cells (column, row), row 0 on top, are placed in growing L-shells from
the top-left corner: shell s is its right column top-down, then its
bottom row left to right. The first step places cells (0,0) and (1,0)
as every horizontal domino. Cells (0,s) and (1,s) take one horizontal
domino, pinned by the down colors of the two cells above them, and for
s >= 2 cells (s,0) and (s,1) take one vertical domino, pinned by the
right colors of the two cells left of them. Every other cell finds its
left and upper neighbors placed and takes one single, pinned by two
colors. A cell of the top row or the left column is thus never looked
up by one color alone, which would multiply the rows by about N/q only
for the next cell to divide them again.

Partial windows grow one step at a time in numpy, held as one array
per cell. Each step sorts its keys, searches them in increasing order
and scatters the runs back, which is several times faster than searching
them as they come. The walk is depth first, from an explicit stack: a
step splits its parents into runs of about ``_CHUNK_ROWS`` candidate
rows, and each run goes through every later step before the next run
starts. So no step is held whole, only one extended run per step; the
rows a step extends go once the last run cut from them is extended, and
only finished windows are kept, joined once at the end. Parents keep
their order and entries keep theirs, so the rows are lexicographic in
cell order: the same rows, in the same order, as placing one cell at a
time.

The budget counts candidate rows before they are allocated: first both
domino tables, each piece paired with every piece of its run (the
horizontal table is the first step's rows), then for each later step
every entry of the run that each row looks up, before the entries that
repeat a piece of the row are dropped. The total is the same however
the parents are split into runs.

The windows are one array, :func:`window_rows`. :func:`enumerate_windows`
returns a :class:`WindowStream`, which enumerates on first use: its
``rows`` are that array, and iterating it gives each row as a
:class:`WindowAssembly` tuple, built by :func:`window_tuples` with no
Python frame per row, for the readers that take a stream.
:func:`aggregate_candidates` folds the windows into :class:`Candidates`:
per piece, the neighbors that all of its windows agree on, as one array.
It reads each window's center and the center's four neighbors, straight
from the rows of a fresh :class:`WindowStream` or from the tuples of any
other stream. The fold writes every window's four claims into its
center's row, so each entry holds one window's claim, then clears each
entry that some window of the same center contradicts.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, PieceBag

#: Default cap on candidate rows materialised by one enumeration.
DEFAULT_BUDGET = 10**7

#: Candidate rows of one run of parents, which the walk takes through every later step at once.
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
    """The kind of one piece's candidate status: "none" | "unique" | "multiple"."""

    kind: str


#: The three statuses, shared by every piece of their kind.
_STATUSES = tuple(map(CandidateStatus, ("none", "unique", "multiple")))


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
        """Every piece's :class:`CandidateStatus`, by id, for the benchmark's tracer."""
        kind = self.unique + 2 * self.multiple  # index into _STATUSES
        return [_STATUSES[i] for i in kind.tolist()]


def window_rows(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Every feasible window of the bag exactly once, one row each.

    The array is (windows, (2k+1)^2) piece ids in the smallest unsigned
    dtype that holds them, cells row-major, rows lexicographic in L-shell
    cell order. Raises :class:`BudgetExceededError` once more than
    ``budget`` candidate rows, counted as the module describes, would be
    materialised.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget <= 0:
        raise ValueError("budget must be positive")

    npieces = len(bag.colors)
    side = 2 * k + 1
    dtype = np.min_scalar_type(npieces)
    # colors ranked densely, so that a key of two ranks fits int64 whatever q is
    colors, ranks = np.unique(bag.colors, return_inverse=True)
    ranks = ranks.reshape(npieces, 4)
    stride = len(colors)
    right, down = ranks[:, RIGHT], ranks[:, DOWN]
    # the same ranks in the smallest dtype, which numpy sorts stably by radix
    small = ranks.astype(np.min_scalar_type(stride - 1)).T

    materialised = 0

    def charge(rows: int) -> None:
        nonlocal materialised
        materialised += rows
        if materialised > budget:
            raise BudgetExceededError(budget)

    # a domino is a piece and a distinct piece of the run that matches its right or down side
    ids = np.arange(npieces, dtype=dtype)
    runs = [_color_runs(facing, small[faced], stride) for facing, faced in ((right, LEFT), (down, UP))]
    charge(sum(int(cnt.sum()) for _, _, cnt in runs))
    across, under = (_extend([ids], lo, cnt, (ids[by],)) for by, lo, cnt in runs)
    single = _Index(small[UP], small[LEFT], (ids,), stride)
    pairs = _Index(small[UP][across[0]], small[UP][across[1]], across, stride)
    stacks = _Index(small[LEFT][under[0]], small[LEFT][under[1]], under, stride)

    # cells as (column, row), row 0 on top, in L-shells from the top-left
    cells: list[tuple[int, int]] = []
    for s in range(side):
        cells += [(s, r) for r in range(s)]
        cells += [(c, s) for c in range(s + 1)]
    slot = {cell: s for s, cell in enumerate(cells)}
    # each step looks its cells up by key a[row[i]] * stride + b[row[j]]
    steps = []
    for s in range(1, side):
        if s >= 2:
            steps.append((stacks, right, slot[s - 1, 0], right, slot[s - 1, 1]))
            steps += [(single, down, slot[s, r - 1], right, slot[s - 1, r]) for r in range(2, s)]
        steps.append((pairs, down, slot[0, s - 1], down, slot[1, s - 1]))
        steps += [(single, down, slot[c, s - 1], right, slot[c - 1, s]) for c in range(2, s + 1)]

    found: list[np.ndarray] = []
    stack: list[tuple[int, list[np.ndarray], np.ndarray, np.ndarray]] = []

    def split(t: int, cols: list[np.ndarray]) -> None:
        """Keep a finished run's windows, or push its parents' runs for step ``t``."""
        if t == len(steps):
            assert len(cols) == side * side, "the steps must place every cell"
            found.append(np.stack([cols[slot[c, r]] for r in range(side) for c in range(side)], axis=1))
            return
        index, a, i, b, j = steps[t]
        lo, cnt = index.runs(a[cols[i]] * stride + b[cols[j]])
        charge(int(cnt.sum()))
        # a parent whose candidate rows reach a new multiple of _CHUNK_ROWS opens a run
        edges = [0, *(np.flatnonzero(np.diff(np.cumsum(cnt) // _CHUNK_ROWS)) + 1).tolist(), len(cnt)]
        for x, y in reversed(list(zip(edges, edges[1:]))):
            stack.append((t, [col[x:y] for col in cols], lo[x:y], cnt[x:y]))

    split(0, list(across))  # the first two cells are every horizontal domino
    while stack:
        t, cols, lo, cnt = stack.pop()
        grown = _extend(cols, lo, cnt, steps[t][0].ids)
        del cols, lo, cnt  # the last run of a step holds the last references to its parents
        split(t + 1, grown)
    return np.concatenate(found)


def enumerate_windows(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> WindowStream:
    """The windows of :func:`window_rows` as a :class:`WindowStream`.

    The call enumerates nothing: it raises, like :func:`window_rows`, on
    the stream's first use, before giving anything.
    """
    return WindowStream(bag, k, budget)


class WindowStream:
    """One enumeration's windows, enumerated on first use.

    ``rows`` is the array of :func:`window_rows`. Iterating gives its rows
    as :class:`WindowAssembly` tuples, in order, once: ``iter`` hands back
    one C-level chain of 1024-row batches, so a ``for`` loop pays no Python
    frame per window, and ``next`` reads the same chain.
    """

    def __init__(self, bag: PieceBag, k: int, budget: int):
        self.k = k
        self._args = (bag, k, budget)
        self._rows: np.ndarray | None = None
        self._tuples: Iterator[WindowAssembly] | None = None

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = window_rows(*self._args)
        return self._rows

    def __iter__(self) -> Iterator[WindowAssembly]:
        if self._tuples is None:
            rows = self.rows
            batches = (rows[start : start + 1024] for start in range(0, len(rows), 1024))
            self._tuples = chain.from_iterable(map(partial(window_tuples, self.k), batches))
        return self._tuples

    def __next__(self) -> WindowAssembly:
        return next(self._tuples or iter(self))  # a chain is always true


def window_tuples(k: int, rows: np.ndarray) -> Iterator[WindowAssembly]:
    """Each row as a :class:`WindowAssembly` of radius ``k`` with Python int
    cells, built by ``tuple.__new__`` with no Python frame per row."""
    return map(partial(tuple.__new__, WindowAssembly), zip(repeat(k), zip(*rows.T.tolist())))


class _Index:
    """Entries filed in runs under the key ``major * stride + minor`` of
    two ranks, as the module describes; a run keeps its entries' order."""

    def __init__(self, major: np.ndarray, minor: np.ndarray, ids: tuple[np.ndarray, ...], stride: int):
        order = np.argsort(minor, kind="stable")
        order = order[np.argsort(major[order], kind="stable")]
        keys = major[order].astype(np.int64) * stride + minor[order]
        self.ids = tuple(col[order] for col in ids)
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        self.key = np.append(keys[first], stride * stride)
        self.lo = np.append(first, len(keys))
        self.cnt = np.diff(self.lo, append=len(keys))

    def runs(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of each key's run, empty for a key not filed."""
        ranked = np.argsort(key)
        at = np.empty_like(ranked)
        at[ranked] = np.searchsorted(self.key, key[ranked])
        at[self.key[at] != key] = len(self.key) - 1
        return self.lo[at], self.cnt[at]


def _color_runs(facing: np.ndarray, faced: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pieces by the rank of their ``faced`` side, ids ascending within a
    rank, and for each piece the start and length of the run whose
    ``faced`` rank equals its ``facing`` one."""
    by = np.argsort(faced, kind="stable")
    per = np.bincount(faced, minlength=stride)
    start = np.cumsum(per) - per
    return by, start[facing], per[facing]


def _extend(cols: list[np.ndarray], lo: np.ndarray, cnt: np.ndarray, ids: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Extend each row, held as columns, by each of its candidates
    ``ids[lo:lo + cnt]`` none of whose pieces it holds yet; parents keep
    their order and candidates keep theirs."""
    parent = np.repeat(np.arange(len(lo)), cnt)
    at = np.arange(len(parent)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    pieces = [col[at] for col in ids]
    grown = [col[parent] for col in cols]
    fresh = np.ones(len(parent), dtype=bool)
    for held in grown:
        for piece in pieces:
            fresh &= held != piece
    grown += pieces
    if not fresh.all():
        keep = np.flatnonzero(fresh)  # a gather is several times faster than a boolean mask
        for i, col in enumerate(grown):
            grown[i] = col[keep]  # one at a time, so each full column goes as its copy comes
    return grown


def aggregate_candidates(num_pieces: int, windows: Iterable[WindowAssembly]) -> Candidates:
    """Fold windows into the candidate statuses of pieces ``0..num_pieces-1``.

    Each window becomes one row: its center and the four neighbors of the
    center. A :class:`WindowStream` not yet iterated gives them as five
    columns of its ``rows``, with no tuple built; any other stream gives
    them from its :class:`WindowAssembly` tuples. Every row's claims are
    written into its center's entries, so each entry holds the claim of
    one of the center's windows; an entry that any other window of the
    center contradicts becomes -1. Which write lands does not matter, so
    the result depends only on the multiset of windows, not on their
    order. A center outside ``0..num_pieces-1`` raises :class:`IndexError`.
    """
    if isinstance(windows, WindowStream) and windows._tuples is None:
        rows = windows.rows[:, _fold_cells(windows.k)].astype(np.int64)
    else:
        stream = iter(windows)
        first = next(stream, None)
        cells: Iterable[tuple[int, ...]] = ()
        if first is not None:
            # five cells, not all: reading every cell through fromiter grew peak RSS by 4-6 MB at n=30
            pick = itemgetter(*_fold_cells(first.k))
            cells = map(pick, map(attrgetter("cells"), chain((first,), stream)))
        rows = np.fromiter(chain.from_iterable(cells), dtype=np.int64).reshape(-1, 5)
    center, claims = rows[:, 0], rows[:, 1:]
    count = np.bincount(center, minlength=num_pieces)
    stable = np.full((num_pieces, 4), -1, dtype=np.int64)
    stable[center] = claims
    at, d = np.nonzero(claims != stable[center])
    stable[center[at], d] = -1
    return Candidates(stable, count)


def _fold_cells(k: int) -> list[int]:
    """A radius-``k`` window's center cell, then its right, up, left and down neighbors, row-major."""
    side = 2 * k + 1
    mid = k * side + k
    return [mid, mid + 1, mid - side, mid - 1, mid + side]


def candidate_neighborhoods(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> Candidates:
    """Candidate status of every piece, folded from the rows of one enumeration."""
    return aggregate_candidates(len(bag.colors), enumerate_windows(bag, k, budget))
