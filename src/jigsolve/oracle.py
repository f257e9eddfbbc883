"""Brute-force ground truth at tiny scale.

Everything here is deliberately naive: no color index, no chain seeding.
Windows and whole-board assemblies are both the square blocks of one
numpy pass over the block's cells in row-major order, depth first over
slices of partial blocks, pruned only by direct color comparison with
the left and upper neighbors. The point is an independent reference for
the fast enumeration and for uniqueness questions at tiny n, not speed.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, Assembly, PieceBag, Puzzle, piece_colors
from .windows import WindowAssembly, window_tuples

#: Default cap on enumerated assemblies.
DEFAULT_LIMIT = 10**6

#: Entries (partial blocks x pieces) of one slice of the block pass.
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
    """All bijective placements passing the color check, in ascending order of
    their ids read row by row from (1, 1).

    They are the blocks of side n of the bag with each piece's up and down
    colors swapped, since a block's rows run downward and a grid's upward.
    Raises :class:`LimitExceededError` when more than ``limit`` exist.
    """
    n = bag.n
    return [Assembly(grid) for grid in _assembly_rows(bag, limit).reshape(-1, n, n)]


def uniqueness_report(puzzle: Puzzle, limit: int = DEFAULT_LIMIT) -> UniquenessReport:
    """Classify a tiny puzzle by exhausting its feasible assemblies.

    The bag is taken in planted order (piece id = canonical position
    index), so the planted assembly is the identity placement.
    """
    n = puzzle.n
    colors = piece_colors(puzzle)
    rows = _assembly_rows(PieceBag(n, puzzle.q, colors), limit)  # ids by position, row by row from (1, 1)
    # an internal edge shows as the right side of a piece not in the last column
    # or the up side of one not in the top row; fits[piece, position] says whether
    # the piece there shows the planted colors on the position's internal edges
    at = np.arange(n * n)
    fits = (colors[:, None, RIGHT] == colors[None, :, RIGHT]) | (at % n == n - 1)
    fits &= (colors[:, None, UP] == colors[None, :, UP]) | (at // n == n - 1)
    return UniquenessReport(
        num_feasible=len(rows),
        unique_vertex=len(rows) == 1,
        unique_edge=bool(fits[rows, at].all()),
    )


def _assembly_rows(bag: PieceBag, limit: int) -> np.ndarray:
    """The ids of every feasible assembly, one row each, read row by row from (1, 1), rows ascending."""
    if limit < 1:
        raise ValueError("limit must be positive")
    return _blocks(bag.colors[:, [RIGHT, DOWN, LEFT, UP]], bag.n, limit)


def _blocks(colors: np.ndarray, side: int, limit: int | None = None) -> np.ndarray:
    """Every square block of distinct pieces, one row each, that matches on
    every internal edge, cells row-major with the top row first, rows ascending.

    ``colors`` holds each piece's (right, up, left, down). Each cell in
    row-major order extends a partial block by every piece that matches
    its left and upper neighbors by direct color comparison and is not yet
    in the block. The walk is depth first over slices of at most
    ``_FITS_ENTRIES`` (partial block, piece) entries, from a stack holding
    at most one slice per cell, so finished rows come in ascending order.
    Raises :class:`LimitExceededError` once it holds more than ``limit``
    rows. The cost is O(partial blocks x pieces) per cell: tiny n only.
    """
    right, up, left, down = colors.T
    npieces, cells = len(colors), side * side
    # ids in the smallest dtype that holds them keep the partial blocks small
    dtype = np.min_scalar_type(npieces)
    step = max(1, _FITS_ENTRIES // npieces)
    done, held = [np.empty((0, cells), dtype=dtype)], 0
    stack = [np.empty((1, 0), dtype=dtype)]  # the next cell of a slice is its width
    while stack:
        rows = stack.pop()
        cell = rows.shape[1]
        if cell == cells:
            done.append(rows)
            held += len(rows)
            if limit is not None and held > limit:
                raise LimitExceededError(limit)
            continue
        if len(rows) > step:
            stack.append(rows[step:])  # the later partial blocks wait below this slice's extensions
            rows = rows[:step]
        fits = np.ones((len(rows), npieces), dtype=bool)
        if cell % side:
            fits &= right[rows[:, cell - 1], None] == left
        if cell >= side:
            fits &= down[rows[:, cell - side], None] == up
        fits[np.arange(len(rows))[:, None], rows] = False  # pieces already in the block
        parent, piece = np.nonzero(fits)  # by parent, then by piece id: the order stays ascending
        if len(parent):
            stack.append(np.column_stack((rows[parent], piece.astype(dtype))))
    return np.concatenate(done)


def brute_force_window_rows(bag: PieceBag, k: int = 1) -> np.ndarray:
    """Every feasible window of the bag, one row each, cells row-major, rows ascending:
    the blocks of side 2k+1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _blocks(bag.colors, 2 * k + 1)


# keyed by identity, as PieceBag is; holding the last bag keeps its id from being reused
_bag_rows = functools.lru_cache(maxsize=1)(brute_force_window_rows)


def brute_force_windows(bag: PieceBag, center: int, k: int = 1) -> list[WindowAssembly]:
    """The bag's windows around ``center`` as :class:`WindowAssembly` tuples, from one pass per bag."""
    if not 0 <= center < len(bag.colors):
        raise ValueError(f"center must be a piece id in [0..{len(bag.colors) - 1}]")
    rows = _bag_rows(bag, k)
    return list(window_tuples(k, rows[rows[:, rows.shape[1] // 2] == center]))
