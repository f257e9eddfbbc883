"""Brute-force ground truth at tiny scale.

Everything here is deliberately naive: no color index, no chain seeding.
Assemblies are found by backtracking over the board in row-major order;
windows by breadth-first extension over the window in row-major order,
in numpy, holding every partial window at once. Both prune only by
direct color comparison with the left and upper neighbors. The windows
are one array, :func:`brute_force_window_rows`; :func:`brute_force_windows`
lists its rows as :class:`WindowAssembly` tuples. The point is to be an
independent reference for the fast enumeration and for uniqueness
questions at tiny n, not to be quick.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, Assembly, PieceBag, Puzzle, piece_colors
from .windows import WindowAssembly

#: Default cap on enumerated assemblies.
DEFAULT_LIMIT = 10**6


class LimitExceededError(Exception):
    """An exhaustive enumeration produced more results than allowed."""

    def __init__(self, limit: int):
        super().__init__(f"enumeration exceeded the limit of {limit} results")
        self.limit = limit


class UniquenessReport(NamedTuple):
    num_feasible: int
    unique_vertex: bool  # only the planted assembly is feasible
    unique_edge: bool  # every feasible assembly recolors no internal edge


def enumerate_feasible_assemblies(bag: PieceBag, limit: int = DEFAULT_LIMIT) -> list[Assembly]:
    """All bijective placements passing the color check, by backtracking.

    Positions are filled row by row; a candidate must match the piece to
    its left and the piece below. Raises :class:`LimitExceededError` when
    more than ``limit`` assemblies exist.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n = bag.n
    colors = bag.colors.tolist()
    num = n * n
    results: list[Assembly] = []
    chosen = [0] * num
    used = [False] * num

    def search(idx: int) -> None:
        if idx == num:
            results.append(Assembly(np.reshape(chosen, (n, n))))
            if len(results) > limit:
                raise LimitExceededError(limit)
            return
        left = colors[chosen[idx - 1]][RIGHT] if idx % n else None
        below = colors[chosen[idx - n]][UP] if idx >= n else None
        for pid in range(num):
            if used[pid]:
                continue
            piece = colors[pid]
            if left is not None and piece[LEFT] != left:
                continue
            if below is not None and piece[DOWN] != below:
                continue
            used[pid] = True
            chosen[idx] = pid
            search(idx + 1)
            used[pid] = False

    search(0)
    return results


def uniqueness_report(puzzle: Puzzle, limit: int = DEFAULT_LIMIT) -> UniquenessReport:
    """Classify a tiny puzzle by exhausting its feasible assemblies.

    The bag is taken in planted order (piece id = canonical position
    index), so the planted assembly is the identity placement.
    """
    n = puzzle.n
    bag = PieceBag(n, puzzle.q, piece_colors(puzzle))
    assemblies = enumerate_feasible_assemblies(bag, limit)
    # colors by position, [j - 1, i - 1, side]; an internal edge shows as the
    # right side of a piece not in the last column or the up side of one not in the top row
    planted = bag.colors.reshape(n, n, 4)
    unique_edge = all(
        np.array_equal(placed[:, :-1, RIGHT], planted[:, :-1, RIGHT])
        and np.array_equal(placed[:-1, :, UP], planted[:-1, :, UP])
        for placed in (bag.colors[a.grid] for a in assemblies)
    )
    return UniquenessReport(
        num_feasible=len(assemblies),
        unique_vertex=len(assemblies) == 1,
        unique_edge=unique_edge,
    )


def brute_force_window_rows(bag: PieceBag, center: int, k: int = 1) -> np.ndarray:
    """Exhaustive enumeration of feasible windows with a given center.

    Starting from one empty window, each cell in row-major order extends
    every partial window by every piece (by ``center`` alone at the
    middle cell). An extension is kept when the piece matches its left
    and upper neighbors by direct color comparison and is not yet in the
    window. The windows come out as one row each, cells row-major, in
    ascending order. The cost is O(partial windows x pieces) per cell,
    so this is for tiny n only.
    """
    # each partial window lies in a frame with a blank row above it and a
    # blank column left of it; the blank piece's colors are 0, which the
    # comparisons let any color match
    blank = len(bag.colors)
    colors = np.concatenate((bag.colors, np.zeros((1, 4), dtype=np.int64)))
    side = 2 * k + 1
    width = side + 1
    cells = [r * width + c for r in range(1, width) for c in range(1, width)]
    mid = cells[len(cells) // 2]
    everyone = np.arange(blank)
    # ids in the smallest dtype that holds them keep the partial windows small
    rows = np.full((1, width * width), blank, dtype=np.min_scalar_type(blank))
    for cell in cells:
        pids = np.array([center]) if cell == mid else everyone
        left = colors[rows[:, cell - 1], RIGHT][:, None]
        up = colors[rows[:, cell - width], DOWN][:, None]
        fits = (left == 0) | (left == colors[pids, LEFT])
        fits &= (up == 0) | (up == colors[pids, UP])
        parent, ix = np.nonzero(fits)  # by parent, then by piece id: the order stays ascending
        piece = pids[ix]
        fresh = np.ones(len(piece), dtype=bool)
        for before in range(width, cell):
            fresh &= rows[parent, before] != piece
        rows = rows[parent[fresh]]
        rows[:, cell] = piece[fresh]
    return rows[:, cells]


def brute_force_windows(bag: PieceBag, center: int, k: int = 1) -> list[WindowAssembly]:
    """The rows of :func:`brute_force_window_rows` as :class:`WindowAssembly` tuples."""
    return [WindowAssembly(k, c) for c in zip(*brute_force_window_rows(bag, center, k).T.tolist())]
