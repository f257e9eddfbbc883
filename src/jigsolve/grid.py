"""Board geometry, edge identities, puzzles, pieces, bags, and assemblies.

Positions are 1-indexed ``(col, row)`` pairs over ``[1..n] x [1..n]``, rows
increasing upward. Window coordinates elsewhere in the library are signed
pairs over ``[-k..k]^2`` centered at ``(0, 0)``.

Every position carries four edges labeled Right/Up/Left/Down. Positions on
the outer boundary keep all four as half edges, so each piece always shows
exactly four colors. Edge identities use the anchored convention:

* the horizontal edge between ``(i, j)`` and ``(i+1, j)`` is
  ``EdgeId('h', i, j)``, valid for ``i in [0..n]``, ``j in [1..n]``;
* the vertical edge between ``(i, j)`` and ``(i, j+1)`` is
  ``EdgeId('v', i, j)``, valid for ``i in [1..n]``, ``j in [0..n]``.

Anchors 0 and n name the boundary half edges.

File formats (plain text, whitespace separated):

* puzzle: ``n q`` on line 1; then the n rows of ``hcolors`` (row j = 1..n,
  entries i = 0..n); then the n+1 rows of ``vcolors`` (row j = 0..n,
  entries i = 1..n).
* piece bag: ``n q`` on line 1; then n^2 lines ``right up left down``.
* assembly (CLI plumbing): ``n`` on line 1; then n lines of n piece ids,
  one line per row j = 1..n, entries i = 1..n.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, TextIO

import numpy as np

from .rng import generator

Coord = tuple[int, int]

#: Largest q whose colors fit int64 arrays.
MAX_Q = 2**63 - 1

HORIZONTAL = "h"
VERTICAL = "v"


#: Side indices into a piece's four colors, counter-clockwise from the right.
RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3

#: Unit step toward each side, indexed by side; the side opposite ``d`` is ``d ^ 2``.
STEPS: tuple[Coord, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


class EdgeId(NamedTuple):
    """Identity of one grid edge (orient 'h' or 'v', anchor indices)."""

    orient: str
    i: int
    j: int


#: Orientation and anchor offset of the edge leaving a position, by direction.
_EDGE_OFFSETS = ((HORIZONTAL, 0, 0), (VERTICAL, 0, 0), (HORIZONTAL, -1, 0), (VERTICAL, 0, -1))


def edge_in_direction(v: Coord, d: int) -> EdgeId:
    """The edge leaving position ``v`` toward side ``d``."""
    orient, di, dj = _EDGE_OFFSETS[d]
    return EdgeId(orient, v[0] + di, v[1] + dj)


def check_n_q(n: int, q: int) -> None:
    """Reject a board without positions or colors, or with colors past int64."""
    if n < 1 or q < 1:
        raise ValueError("n and q must be positive")
    # past int64, color arrays fall back to float64 and neighboring colors compare equal
    if q > MAX_Q:
        raise ValueError(f"q must be at most 2**63 - 1; got q={q}")


def check_radius(n: int, k: int) -> None:
    """Reject a window radius outside 1 <= k < n/2, where no window fits the board."""
    if k < 1 or 2 * k >= n:
        raise ValueError("need 1 <= k < n/2")


@dataclass(frozen=True, eq=False)
class Puzzle:
    """An n-by-n board with a color on every edge, boundary included.

    Both color arrays hold one row per j, like ``Assembly.grid``.
    ``hcolors`` has shape ``(n, n+1)``: entry ``[j-1, i]`` is the color of
    the horizontal edge anchored at ``(i, j)``. ``vcolors`` has shape
    ``(n+1, n)``: entry ``[j, i-1]`` is the color of the vertical edge
    anchored at ``(i, j)``.
    """

    n: int
    q: int
    hcolors: np.ndarray
    vcolors: np.ndarray

    def __post_init__(self) -> None:
        check_n_q(self.n, self.q)
        h = np.ascontiguousarray(self.hcolors, dtype=np.int64)
        v = np.ascontiguousarray(self.vcolors, dtype=np.int64)
        if h.shape != (self.n, self.n + 1) or v.shape != (self.n + 1, self.n):
            raise ValueError("color arrays have the wrong shape")
        for arr in (h, v):
            if arr.size and (arr.min() < 1 or arr.max() > self.q):
                raise ValueError(f"colors must lie in [1..{self.q}]")
            arr.flags.writeable = False
        object.__setattr__(self, "hcolors", h)
        object.__setattr__(self, "vcolors", v)

    def edge_color(self, e: EdgeId) -> int:
        orient, i, j = e
        if orient == HORIZONTAL:
            if not (0 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            return int(self.hcolors[j - 1, i])
        if orient == VERTICAL:
            if not (1 <= i <= self.n and 0 <= j <= self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            return int(self.vcolors[j, i - 1])
        raise ValueError(f"unknown edge orientation {orient!r}")


@dataclass(frozen=True, eq=False)
class PieceBag:
    """The disassembled pieces, in presentation order.

    ``colors`` is a read-only (n^2, 4) int64 array: row ``pid`` holds
    piece ``pid``'s (right, up, left, down).
    """

    n: int
    q: int
    colors: np.ndarray

    def __post_init__(self) -> None:
        check_n_q(self.n, self.q)
        colors = np.ascontiguousarray(self.colors, dtype=np.int64)
        if colors.shape != (self.n * self.n, 4):
            raise ValueError("a bag must hold exactly n^2 pieces of four colors")
        if colors.min() < 1 or colors.max() > self.q:
            raise ValueError(f"piece colors must lie in [1..{self.q}]")
        colors.flags.writeable = False
        object.__setattr__(self, "colors", colors)


@dataclass(frozen=True, eq=False)
class Assembly:
    """A placement of piece ids on the board, as a read-only (n, n) int64
    grid: ``grid[j - 1, i - 1]`` holds the id at position ``(i, j)``, so
    the grid reads row by row from the bottom. It may also be given as a
    mapping from every position to its id.
    """

    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = self.grid
        if isinstance(grid, Mapping):
            n = math.isqrt(len(grid))
            if set(grid) != set(positions_row_major(n)):
                raise ValueError("placement must cover every position of a square board")
            grid = [[grid[(i, j)] for i in range(1, n + 1)] for j in range(1, n + 1)]
        grid = np.ascontiguousarray(grid, dtype=np.int64)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("an assembly grid must be square")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @cached_property
    def placement(self) -> dict[Coord, int]:
        """Position -> piece id, built on first access."""
        return {(i, j): pid for j, row in enumerate(self.grid.tolist(), 1) for i, pid in enumerate(row, 1)}


def positions_row_major(n: int) -> list[Coord]:
    """Canonical position order: row j = 1..n, within a row i = 1..n."""
    return [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)]


def piece_at(puzzle: Puzzle, v: Coord) -> tuple[int, int, int, int]:
    """The (right, up, left, down) colors incident to position ``v``, boundary included."""
    i, j = v
    n = puzzle.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"position {v} out of range for n={n}")
    return tuple(puzzle.edge_color(edge_in_direction(v, d)) for d in (RIGHT, UP, LEFT, DOWN))


def piece_colors(puzzle: Puzzle) -> np.ndarray:
    """:func:`piece_at` for every position, in :func:`positions_row_major`
    order, as an (n^2, 4) int64 array."""
    h, v = puzzle.hcolors, puzzle.vcolors
    return np.stack([h[:, 1:], v[1:], h[:, :-1], v[:-1]], axis=-1).reshape(-1, 4)


def disassemble(puzzle: Puzzle, seed: int) -> tuple[PieceBag, Assembly]:
    """Shuffle the pieces into a bag; return it with the planted placement.

    The bag order is a uniformly seeded permutation of the pieces taken in
    canonical position order. ``planted`` holds at each position the
    piece id now holding its piece.
    """
    n = puzzle.n
    perm = generator(seed).permutation(n * n)
    where = np.empty(n * n, dtype=np.int64)
    where[perm] = np.arange(n * n)
    return PieceBag(n, puzzle.q, piece_colors(puzzle)[perm]), Assembly(where.reshape(n, n))


def is_feasible(bag: PieceBag, assembly: Assembly) -> bool:
    """True iff adjacent pieces agree on every internal edge color.

    Boundary half edges are unconstrained. Raises if the placement is not
    a bijection from all positions onto all piece ids.
    """
    n = bag.n
    grid = assembly.grid
    if grid.shape != (n, n):
        raise ValueError("placement must cover every position")
    if grid.min() < 0 or grid.max() >= n * n or np.bincount(grid.ravel(), minlength=n * n).max() > 1:
        raise ValueError("placement must be a bijection onto piece ids")
    colors = bag.colors[grid]  # [j - 1, i - 1, side]
    return bool(
        np.array_equal(colors[:, :-1, RIGHT], colors[:, 1:, LEFT])
        and np.array_equal(colors[:-1, :, UP], colors[1:, :, DOWN])
    )


# ---------------------------------------------------------------------------
# file formats


def parse_ints(tokens: list[str], source: str) -> list[int]:
    """The tokens as ints; the first that is not one raises, named with its ``source``."""
    vals = []
    try:
        for token in tokens:
            vals.append(int(token))
    except ValueError:
        raise ValueError(f"{source}: expected an integer, got {token!r}") from None
    return vals


def read_header(inp: TextIO, kind: str, body: Callable[[int, int], int]) -> tuple[int, int, list[int]]:
    """Read an ``n q`` file of ``body(n, q)`` further integers: positive n
    and q, q small enough for int64 colors, and the body as ints. Its
    errors name the ``kind`` of file."""
    tokens = inp.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{kind} file: missing header")
    n, q = parse_ints(tokens[:2], f"{kind} file")
    if n < 1 or q < 1:
        raise ValueError(f"{kind} file: n and q must be positive")
    need = 2 + body(n, q)
    if len(tokens) != need:
        raise ValueError(f"{kind} file: expected {need} tokens, got {len(tokens)}")
    check_n_q(n, q)
    return n, q, parse_ints(tokens[2:], f"{kind} file")


def color_array(vals: list[int], q: int, what: str) -> np.ndarray:
    """``vals`` as an int64 array once each lies in [1..q]. The range is
    checked on the ints, since numpy turns a list past int64 into floats."""
    if min(vals) < 1 or max(vals) > q:
        raise ValueError(f"{what} must lie in [1..{q}]")
    return np.array(vals, dtype=np.int64)


def write_rows(out: TextIO, *blocks: list[list[int]]) -> None:
    """Write each row of each block as one line of space-separated ints."""
    out.writelines(" ".join(map(str, row)) + "\n" for rows in blocks for row in rows)


def write_puzzle(puzzle: Puzzle, out: TextIO) -> None:
    write_rows(out, [[puzzle.n, puzzle.q]], puzzle.hcolors.tolist(), puzzle.vcolors.tolist())


def read_puzzle(inp: TextIO) -> Puzzle:
    n, q, vals = read_header(inp, "puzzle", lambda n, q: 2 * n * (n + 1))
    hcolors, vcolors = np.split(color_array(vals, q, "colors"), [n * (n + 1)])
    return Puzzle(n, q, hcolors.reshape(n, n + 1), vcolors.reshape(n + 1, n))


def write_bag(bag: PieceBag, out: TextIO) -> None:
    write_rows(out, [[bag.n, bag.q]], bag.colors.tolist())


def read_bag(inp: TextIO) -> PieceBag:
    n, q, vals = read_header(inp, "bag", lambda n, q: 4 * n * n)
    return PieceBag(n, q, color_array(vals, q, "piece colors").reshape(-1, 4))


def write_assembly(assembly: Assembly, out: TextIO) -> None:
    write_rows(out, [[len(assembly.grid)]], assembly.grid.tolist())


def read_assembly(inp: TextIO) -> Assembly:
    tokens = inp.read().split()
    if not tokens:
        raise ValueError("assembly file: missing header")
    (n,) = parse_ints(tokens[:1], "assembly file")
    if n < 1:
        raise ValueError("assembly file: n must be positive")
    if len(tokens) != 1 + n * n:
        raise ValueError("assembly file: wrong token count")
    ids = parse_ints(tokens[1:], "assembly file")
    if sorted(ids) != list(range(n * n)):
        raise ValueError(f"assembly file: piece ids must be 0..{n * n - 1}, each once")
    return Assembly(np.array(ids, dtype=np.int64).reshape(n, n))
