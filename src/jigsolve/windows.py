"""Feasible window enumeration over a piece bag through one color index.

A window is a (2k+1)-by-(2k+1) block of distinct pieces whose internal
edges all match. Colors are ranked densely, with 0 first, and the bag is
indexed once, in one sorted array of keys ``up * s + left`` (s the number
of ranks) in which color 0 means "unconstrained": every piece is filed
under (up, left), (0, left), (up, 0) and (0, 0).

Cells are placed in growing L-shells from the top-left corner: shell s
is its right column top-down, then its bottom row left to right. Every
cell then finds its left and upper neighbors already placed, and in each
shell past the corner all but two cells are pinned by two colors. All
partial windows grow by one cell at a time, breadth first in numpy, each
looking its candidates up by the down color above the cell and the right
color left of it; a neighbor outside the window reads as a sentinel
column of color 0. Parents keep their order and candidates come in
increasing piece id, so the stream is lexicographic in cell order. The
budget counts candidate rows, checked before each cell's are allocated.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .grid import PieceBag

#: Default cap on candidate rows materialised by one enumeration.
DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Enumeration aborted; any results gathered so far are incomplete."""

    def __init__(self, budget: int):
        super().__init__(f"window enumeration exceeded the budget of {budget} candidate rows")
        self.budget = budget


class WindowAssembly(NamedTuple):
    """A feasible window: piece ids in row-major order, top row first."""

    k: int
    cells: tuple[int, ...]

    @property
    def side(self) -> int:
        return 2 * self.k + 1

    @property
    def center(self) -> int:
        return self.cells[self.k * self.side + self.k]

    def neighborhood(self) -> "CandidateNeighborhood":
        mid = self.k * self.side + self.k
        return CandidateNeighborhood(
            right=self.cells[mid + 1],
            up=self.cells[mid - self.side],
            left=self.cells[mid - 1],
            down=self.cells[mid + self.side],
        )


class CandidateNeighborhood(NamedTuple):
    """The four claimed neighbors of a center piece, keyed by direction."""

    right: int
    up: int
    left: int
    down: int


class CandidateStatus(NamedTuple):
    """Aggregate of all windows centered on one piece.

    ``stable`` holds, per direction, the neighbor id claimed identically
    by every window (None where windows disagree); a unique status has
    no None, and its ``stable`` is the one neighborhood.
    """

    kind: str  # "none" | "unique" | "multiple"
    stable: tuple[int | None, int | None, int | None, int | None] = (None, None, None, None)


NO_WINDOW = CandidateStatus("none")


def enumerate_windows(bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET) -> Iterator[WindowAssembly]:
    """Yield every feasible window assembly of the bag exactly once.

    Raises :class:`BudgetExceededError`, before yielding anything, once
    more than ``budget`` candidate rows would be materialised.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget <= 0:
        raise ValueError("budget must be positive")

    RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3
    npieces = len(bag.pieces)
    side = 2 * k + 1

    # colors ranked densely, the sentinel's 0 first, so a key fits int64 whatever q is
    colors, ranks = np.unique(np.array(bag.pieces + ((0, 0, 0, 0),)), return_inverse=True)
    ranks = ranks.reshape(npieces + 1, 4)
    stride = len(colors)
    up, left = ranks[:npieces, UP] * stride, ranks[:npieces, LEFT]
    keys = np.stack([up + left, left, up, np.zeros_like(up)], axis=1).ravel()
    order = np.argsort(keys, kind="stable")  # ids stay ascending within a key
    keys = keys[order]
    ids = (order // 4).astype(np.min_scalar_type(npieces))
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
        key = below[rows[:, a]] + beside[rows[:, b]]
        lo = np.searchsorted(keys, key, "left")
        cnt = np.searchsorted(keys, key, "right") - lo
        materialised += int(cnt.sum())
        if materialised > budget:
            raise BudgetExceededError(budget)
        parent = np.repeat(np.arange(len(rows)), cnt)
        piece = ids[np.arange(len(parent)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
        fresh = np.ones(len(parent), dtype=bool)
        for col in range(1, rows.shape[1]):
            fresh &= rows[parent, col] != piece
        rows = np.column_stack((rows[parent[fresh]], piece[fresh]))

    for start in range(0, len(rows), 1024):
        for window in zip(*rows[start : start + 1024, canon].T.tolist()):
            yield WindowAssembly(k, window)


def aggregate_candidates(
    num_pieces: int, windows: Iterator[WindowAssembly]
) -> dict[int, CandidateStatus]:
    """Fold a window stream into per-piece candidate statuses.

    Order independent: the result depends only on the set of windows. A
    piece is "multiple" exactly when two of its windows disagree on some
    neighbor, which leaves a None in its ``stable``.
    """
    stable: dict[int, list[int | None]] = {}
    for wa in windows:
        nb = wa.neighborhood()
        agreed = stable.get(wa.center)
        if agreed is None:
            stable[wa.center] = list(nb)
            continue
        for d in range(4):
            if agreed[d] != nb[d]:
                agreed[d] = None
    statuses: dict[int, CandidateStatus] = {}
    for pid in range(num_pieces):
        agreed = stable.get(pid)
        if agreed is None:
            statuses[pid] = NO_WINDOW
        else:
            statuses[pid] = CandidateStatus("multiple" if None in agreed else "unique", tuple(agreed))
    return statuses


def candidate_neighborhoods(
    bag: PieceBag, k: int, budget: int = DEFAULT_BUDGET
) -> dict[int, CandidateStatus]:
    """Candidate status of every piece, from the full window stream."""
    return aggregate_candidates(len(bag.pieces), enumerate_windows(bag, k, budget))
