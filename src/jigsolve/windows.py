"""Feasible window enumeration over a piece bag through one color index.

A window is a (2k+1)-by-(2k+1) block of distinct pieces whose internal
edges all match. The bag is indexed once, in a dict keyed by
``up * (q + 1) + left`` in which color 0 means "unconstrained": every
piece is filed under (up, left), (0, left), (up, 0) and (0, 0).

Cells are placed in growing L-shells from the top-left corner: shell s
is its right column top-down, then its bottom row left to right. Every
cell then finds its left and upper neighbors already placed, and in each
shell past the corner all but two cells are pinned by two colors. A
neighbor outside the window reads as a sentinel piece whose colors are
all 0, so every cell's candidates come from the same single lookup,
keyed by the down color above it and the right color left of it. The
stream is deterministic: candidates are tried in increasing piece id.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .grid import Piece, PieceBag

#: Default cap on explored partial assemblies.
DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Enumeration aborted; any results gathered so far are incomplete."""

    def __init__(self, budget: int):
        super().__init__(f"window enumeration exceeded the budget of {budget} partial assemblies")
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

    Raises :class:`BudgetExceededError` once more than ``budget`` partial
    assemblies (piece placements) have been explored.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget <= 0:
        raise ValueError("budget must be positive")

    RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3
    npieces = len(bag.pieces)
    pieces = bag.pieces + (Piece(0, 0, 0, 0),)  # pieces[npieces]: the sentinel
    stride = bag.q + 1
    side = 2 * k + 1
    ncells = side * side

    index: dict[int, list[int]] = {}
    for pid, piece in enumerate(bag.pieces):
        up, left = piece[UP] * stride, piece[LEFT]
        for key in (up + left, left, up, 0):
            index.setdefault(key, []).append(pid)

    # cells as (column, row), row 0 on top, in L-shells from the top-left
    cells: list[tuple[int, int]] = []
    for s in range(side):
        cells += [(s, r) for r in range(s)]
        cells += [(c, s) for c in range(s + 1)]
    slot_of = {cell: s for s, cell in enumerate(cells)}
    assert all(
        slot_of.get(nb, -1) < s for s, (c, r) in enumerate(cells) for nb in ((c - 1, r), (c, r - 1))
    ), "cell order must place constraints first"
    # slot ncells is outside the window and always holds the sentinel
    left_slot = [slot_of.get((c - 1, r), ncells) for c, r in cells]
    above_slot = [slot_of.get((c, r - 1), ncells) for c, r in cells]
    canon = [r * side + c for c, r in cells]

    get = index.get
    used = bytearray(npieces)
    slots = [npieces] * (ncells + 1)
    out = [0] * ncells
    explored = 0
    last = ncells - 1
    stack: list[Iterator[int]] = [iter(index[0])]
    depth = 0
    make = WindowAssembly

    while stack:
        for pid in stack[-1]:
            if used[pid]:
                continue
            explored += 1
            if explored > budget:
                raise BudgetExceededError(budget)
            out[canon[depth]] = pid
            if depth == last:
                yield make(k, tuple(out))
                continue
            slots[depth] = pid
            used[pid] = 1
            depth += 1
            key = pieces[slots[above_slot[depth]]][DOWN] * stride + pieces[slots[left_slot[depth]]][RIGHT]
            stack.append(iter(get(key, ())))
            break
        else:
            stack.pop()
            if not stack:
                break
            depth -= 1
            used[slots[depth]] = 0


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
