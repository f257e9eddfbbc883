"""Brute-force ground truth at tiny scale.

Everything here is deliberately naive: no color index, no chain seeding.
Assemblies are found by backtracking over the board in row-major order,
windows by one breadth-first numpy pass over the window in row-major
order that holds every partial window of the bag at once; both prune
only by direct color comparison with the left and upper neighbors. The
point is an independent reference for the fast enumeration and for
uniqueness questions at tiny n, not speed.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, Assembly, PieceBag, Puzzle, piece_colors
from .windows import WindowAssembly, window_tuples

#: Default cap on enumerated assemblies.
DEFAULT_LIMIT = 10**6

#: Entries (partial windows x pieces) of one slice of the window pass.
_FITS_ENTRIES = 2**16


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


def brute_force_window_rows(bag: PieceBag, k: int = 1) -> np.ndarray:
    """Every feasible window of the bag, one row each, cells row-major, rows ascending.

    Starting from one empty window, each cell in row-major order extends
    every partial window by every piece that matches its left and upper
    neighbors by direct color comparison and is not yet in the window.
    The cost is O(partial windows x pieces) per cell: tiny n only.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    right, up, left, down = (bag.colors[:, s] for s in (RIGHT, UP, LEFT, DOWN))
    npieces, side = len(bag.colors), 2 * k + 1
    # ids in the smallest dtype that holds them keep the partial windows small
    rows = np.empty((1, 0), dtype=np.min_scalar_type(npieces))
    step = max(1, _FITS_ENTRIES // npieces)
    for cell in range(side * side):
        parts = []
        for block in np.split(rows, range(step, len(rows), step)):  # at least one block, maybe empty
            fits = np.ones((len(block), npieces), dtype=bool)
            if cell % side:
                fits &= right[block[:, cell - 1], None] == left
            if cell >= side:
                fits &= down[block[:, cell - side], None] == up
            fits[np.arange(len(block))[:, None], block] = False  # pieces already in the window
            parent, piece = np.nonzero(fits)  # by parent, then by piece id: the order stays ascending
            parts.append(np.column_stack((block[parent], piece.astype(rows.dtype))))
        del block, rows  # the previous cell's rows go before the slices are joined
        rows = np.concatenate(parts)
    return rows


# keyed by identity, as PieceBag is; holding the last bag keeps its id from being reused
_bag_rows = functools.lru_cache(maxsize=1)(brute_force_window_rows)


def brute_force_windows(bag: PieceBag, center: int, k: int = 1) -> list[WindowAssembly]:
    """The bag's windows around ``center`` as :class:`WindowAssembly` tuples, from one pass per bag."""
    if not 0 <= center < len(bag.colors):
        raise ValueError(f"center must be a piece id in [0..{len(bag.colors) - 1}]")
    rows = _bag_rows(bag, k)
    return list(window_tuples(k, rows[rows[:, rows.shape[1] // 2] == center]))
