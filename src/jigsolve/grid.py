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

* puzzle: ``n q`` on line 1; then n lines of n+1 horizontal colors (one
  line per row j = 1..n, entries i = 0..n); then n+1 lines of n vertical
  colors (one line per j = 0..n, entries i = 1..n).
* piece bag: ``n q`` on line 1; then n^2 lines ``right up left down``.
* assembly (CLI plumbing): ``n`` on line 1; then n lines of n piece ids,
  one line per row j = 1..n, entries i = 1..n.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .rng import generator

Coord = tuple[int, int]

#: Largest q whose colors fit int64 arrays.
MAX_Q = 2**63 - 1

HORIZONTAL = "h"
VERTICAL = "v"


class Direction(IntEnum):
    """The four edge labels, in counter-clockwise order."""

    RIGHT = 0
    UP = 1
    LEFT = 2
    DOWN = 3

    @property
    def opposite(self) -> "Direction":
        return Direction((self + 2) % 4)

    @property
    def step(self) -> Coord:
        return STEPS[self]


#: Unit step toward each side, indexed by direction; the side opposite ``d`` is ``d ^ 2``.
STEPS: tuple[Coord, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))

DIRECTIONS = (Direction.RIGHT, Direction.UP, Direction.LEFT, Direction.DOWN)


class EdgeId(NamedTuple):
    """Identity of one grid edge (orient 'h' or 'v', anchor indices)."""

    orient: str
    i: int
    j: int


#: Orientation and anchor offset of the edge leaving a position, by direction.
_EDGE_OFFSETS = ((HORIZONTAL, 0, 0), (VERTICAL, 0, 0), (HORIZONTAL, -1, 0), (VERTICAL, 0, -1))


def edge_in_direction(v: Coord, d: Direction) -> EdgeId:
    """The edge leaving position ``v`` in direction ``d``."""
    orient, di, dj = _EDGE_OFFSETS[d]
    return EdgeId(orient, v[0] + di, v[1] + dj)


def _check_q_fits(q: int) -> None:
    # past int64, color arrays fall back to float64 and neighboring colors compare equal
    if q > MAX_Q:
        raise ValueError(f"q must be at most 2**63 - 1; got q={q}")


class Piece(NamedTuple):
    """Four edge colors of one piece, keyed by direction."""

    right: int
    up: int
    left: int
    down: int


@dataclass(frozen=True, eq=False)
class Puzzle:
    """An n-by-n board with a color on every edge, boundary included.

    ``hcolors`` has shape ``(n+1, n)``: entry ``[i, j-1]`` is the color of
    the horizontal edge anchored at ``(i, j)``. ``vcolors`` has shape
    ``(n, n+1)``: entry ``[i-1, j]`` is the color of the vertical edge
    anchored at ``(i, j)``.
    """

    n: int
    q: int
    hcolors: np.ndarray
    vcolors: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 1:
            raise ValueError("n and q must be positive")
        _check_q_fits(self.q)
        h = np.ascontiguousarray(self.hcolors, dtype=np.int64)
        v = np.ascontiguousarray(self.vcolors, dtype=np.int64)
        if h.shape != (self.n + 1, self.n) or v.shape != (self.n, self.n + 1):
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
            return int(self.hcolors[i, j - 1])
        if orient == VERTICAL:
            if not (1 <= i <= self.n and 0 <= j <= self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            return int(self.vcolors[i - 1, j])
        raise ValueError(f"unknown edge orientation {orient!r}")

    def same_colors(self, other: "Puzzle") -> bool:
        return (
            self.n == other.n
            and self.q == other.q
            and np.array_equal(self.hcolors, other.hcolors)
            and np.array_equal(self.vcolors, other.vcolors)
        )


@dataclass(frozen=True)
class PieceBag:
    """The disassembled pieces, in presentation order; ids are positions."""

    n: int
    q: int
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 1:
            raise ValueError("n and q must be positive")
        _check_q_fits(self.q)
        if len(self.pieces) != self.n * self.n:
            raise ValueError("a bag must hold exactly n^2 pieces")
        if min(chain.from_iterable(self.pieces)) < 1 or max(chain.from_iterable(self.pieces)) > self.q:
            raise ValueError(f"piece colors must lie in [1..{self.q}]")


def bag_colors(bag: PieceBag) -> np.ndarray:
    """The bag's colors as an (N+1)x4 int64 array: row ``pid`` holds piece
    ``pid``'s (right, up, left, down), and the last row, all 0, a blank
    piece for the cells outside a window."""
    flat = chain(chain.from_iterable(bag.pieces), (0, 0, 0, 0))
    return np.fromiter(flat, np.int64, count=4 * len(bag.pieces) + 4).reshape(-1, 4)


@dataclass(frozen=True)
class Assembly:
    """A placement of piece ids on the board: position -> piece id."""

    placement: dict[Coord, int]


def positions_row_major(n: int) -> list[Coord]:
    """Canonical position order: row j = 1..n, within a row i = 1..n."""
    return [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)]


def piece_at(puzzle: Puzzle, v: Coord) -> Piece:
    """The four colors incident to position ``v``, boundary included."""
    i, j = v
    n = puzzle.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"position {v} out of range for n={n}")
    h, w = puzzle.hcolors, puzzle.vcolors
    return Piece(
        right=int(h[i, j - 1]),
        up=int(w[i - 1, j]),
        left=int(h[i - 1, j - 1]),
        down=int(w[i - 1, j - 1]),
    )


def pieces_at(puzzle: Puzzle, positions: Iterable[Coord]) -> list[Piece]:
    """``piece_at`` for each of ``positions`` (unchecked), from one read of the color arrays."""
    h, w = puzzle.hcolors.tolist(), puzzle.vcolors.tolist()
    return [Piece(h[i][j - 1], w[i - 1][j], h[i - 1][j - 1], w[i - 1][j - 1]) for i, j in positions]


def pieces_row_major(puzzle: Puzzle) -> list[Piece]:
    """``piece_at`` for every position, in :func:`positions_row_major` order."""
    return pieces_at(puzzle, positions_row_major(puzzle.n))


def disassemble(puzzle: Puzzle, seed: int) -> tuple[PieceBag, Assembly]:
    """Shuffle the pieces into a bag; return it with the planted placement.

    The bag order is a uniformly seeded permutation of the pieces taken in
    canonical position order. ``planted`` maps each position to the piece
    id now holding its piece.
    """
    n = puzzle.n
    order = positions_row_major(n)
    pieces = pieces_at(puzzle, order)
    perm = generator(seed).permutation(n * n).tolist()
    bag = PieceBag(n, puzzle.q, tuple(pieces[ix] for ix in perm))
    return bag, Assembly({order[ix]: pid for pid, ix in enumerate(perm)})


def is_feasible(bag: PieceBag, assembly: Assembly) -> bool:
    """True iff adjacent pieces agree on every internal edge color.

    Boundary half edges are unconstrained. Raises if the placement is not
    a bijection from all positions onto all piece ids.
    """
    n = bag.n
    placement = assembly.placement
    if len(placement) != n * n:
        raise ValueError("placement must cover every position")
    seen = set()
    for v, pid in placement.items():
        i, j = v
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"position {v} out of range for n={n}")
        if not (0 <= pid < n * n) or pid in seen:
            raise ValueError("placement must be a bijection onto piece ids")
        seen.add(pid)
    pieces = bag.pieces
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            p = pieces[placement[(i, j)]]
            if i < n and p.right != pieces[placement[(i + 1, j)]].left:
                return False
            if j < n and p.up != pieces[placement[(i, j + 1)]].down:
                return False
    return True


# ---------------------------------------------------------------------------
# file formats


def write_puzzle(puzzle: Puzzle, out: TextIO) -> None:
    n = puzzle.n
    out.write(f"{n} {puzzle.q}\n")
    for j in range(1, n + 1):
        out.write(" ".join(str(int(puzzle.hcolors[i, j - 1])) for i in range(n + 1)))
        out.write("\n")
    for j in range(n + 1):
        out.write(" ".join(str(int(puzzle.vcolors[i - 1, j])) for i in range(1, n + 1)))
        out.write("\n")


def read_puzzle(inp: TextIO) -> Puzzle:
    tokens = inp.read().split()
    if len(tokens) < 2:
        raise ValueError("puzzle file: missing header")
    n, q = int(tokens[0]), int(tokens[1])
    if n < 1 or q < 1:
        raise ValueError("puzzle file: n and q must be positive")
    need = 2 + n * (n + 1) * 2
    if len(tokens) != need:
        raise ValueError(f"puzzle file: expected {need} tokens, got {len(tokens)}")
    _check_q_fits(q)
    vals = [int(t) for t in tokens[2:]]
    if min(vals) < 1 or max(vals) > q:  # before the int64 arrays, which would overflow
        raise ValueError(f"colors must lie in [1..{q}]")
    hcolors = np.zeros((n + 1, n), dtype=np.int64)
    vcolors = np.zeros((n, n + 1), dtype=np.int64)
    pos = 0
    for j in range(1, n + 1):
        for i in range(n + 1):
            hcolors[i, j - 1] = vals[pos]
            pos += 1
    for j in range(n + 1):
        for i in range(1, n + 1):
            vcolors[i - 1, j] = vals[pos]
            pos += 1
    return Puzzle(n, q, hcolors, vcolors)


def write_bag(bag: PieceBag, out: TextIO) -> None:
    out.write(f"{bag.n} {bag.q}\n")
    for p in bag.pieces:
        out.write(f"{p.right} {p.up} {p.left} {p.down}\n")


def read_bag(inp: TextIO) -> PieceBag:
    tokens = inp.read().split()
    if len(tokens) < 2:
        raise ValueError("bag file: missing header")
    n, q = int(tokens[0]), int(tokens[1])
    if n < 1 or q < 1:
        raise ValueError("bag file: n and q must be positive")
    need = 2 + 4 * n * n
    if len(tokens) != need:
        raise ValueError(f"bag file: expected {need} tokens, got {len(tokens)}")
    vals = [int(t) for t in tokens[2:]]
    pieces = tuple(
        Piece(vals[4 * b], vals[4 * b + 1], vals[4 * b + 2], vals[4 * b + 3])
        for b in range(n * n)
    )
    return PieceBag(n, q, pieces)


def write_assembly(assembly: Assembly, n: int, out: TextIO) -> None:
    out.write(f"{n}\n")
    for j in range(1, n + 1):
        out.write(" ".join(str(assembly.placement[(i, j)]) for i in range(1, n + 1)))
        out.write("\n")


def read_assembly(inp: TextIO) -> Assembly:
    tokens = inp.read().split()
    if not tokens:
        raise ValueError("assembly file: missing header")
    n = int(tokens[0])
    if n < 1:
        raise ValueError("assembly file: n must be positive")
    if len(tokens) != 1 + n * n:
        raise ValueError("assembly file: wrong token count")
    if sorted(int(t) for t in tokens[1:]) != list(range(n * n)):
        raise ValueError(f"assembly file: piece ids must be 0..{n * n - 1}, each once")
    placement: dict[Coord, int] = {}
    pos = 1
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            placement[(i, j)] = int(tokens[pos])
            pos += 1
    return Assembly(placement)
