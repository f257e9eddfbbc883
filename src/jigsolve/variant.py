"""Rotation-variant model: oriented edges, jig involutions, C4 turns.

Every oriented edge with tail on the board carries a color; a puzzle
couples the two orientations of each internal edge through an involution
``iota`` on colors (``color(e) = iota(color(reversed e))``). Pieces keep
their four slot colors in counter-clockwise order (right, up, left, down)
and may be placed with any number of quarter turns, except that the piece
whose home is (1, 1) pins the global orientation: wherever it lands, its
turn count must be zero.

Variant puzzle file format (plain text): line 1 ``n q``; line 2 the
involution as q integers (image of each color); then n^2 lines
``right up left down`` of oriented colors, one line per position in
canonical row-major order (row j = 1..n, i = 1..n within a row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .grid import Coord, Direction, Puzzle, positions_row_major
from .oracle import DEFAULT_LIMIT, LimitExceededError

TURNS = (0, 1, 2, 3)


@dataclass(frozen=True)
class JigInvolution:
    """A self-inverse permutation of the colors [1..q]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        q = len(self.images)
        for j in range(1, q + 1):
            img = self.images[j - 1]
            if not (1 <= img <= q):
                raise ValueError("involution images must lie in [1..q]")
            if self.images[img - 1] != j:
                raise ValueError("mapping is not an involution")

    def __call__(self, color: int) -> int:
        return self.images[color - 1]

    @property
    def q(self) -> int:
        return len(self.images)

    def validate(self, q: int) -> None:
        if len(self.images) != q:
            raise ValueError(f"involution is over {len(self.images)} colors, puzzle has {q}")


def make_involution(q: int, kind: str) -> JigInvolution:
    """``identity`` fixes every color; ``pairing`` swaps (1,2), (3,4), ...

    With odd q the last color is a fixed point of the pairing.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if kind == "identity":
        return JigInvolution(tuple(range(1, q + 1)))
    if kind == "pairing":
        images = list(range(1, q + 1))
        for a in range(0, q - 1, 2):
            images[a], images[a + 1] = images[a + 1], images[a]
        return JigInvolution(tuple(images))
    raise ValueError(f"unknown involution kind {kind!r}")


def rotate_piece(colors: tuple[int, int, int, int], turns: int) -> tuple[int, int, int, int]:
    """Rotate a piece counter-clockwise by ``turns`` quarter turns.

    One turn sends the Right jig to the Up position, Up to Left, Left to
    Down, and Down to Right.
    """
    t = turns % 4
    return tuple(colors[(i - t) % 4] for i in range(4))  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class VariantPuzzle:
    """Oriented edge colors for every position, coupled through ``iota``.

    ``sigma[i-1, j-1, d]`` is the color of the oriented edge leaving
    position (i, j) in direction d (slot order right, up, left, down).
    """

    n: int
    q: int
    iota: JigInvolution
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 1:
            raise ValueError("n and q must be positive")
        self.iota.validate(self.q)
        s = np.ascontiguousarray(self.sigma, dtype=np.int64)
        if s.shape != (self.n, self.n, 4):
            raise ValueError("sigma must have shape (n, n, 4)")
        if s.min() < 1 or s.max() > self.q:
            raise ValueError(f"colors must lie in [1..{self.q}]")
        s.flags.writeable = False
        object.__setattr__(self, "sigma", s)
        if not respects_matching(self):
            raise ValueError("internal oriented edges must satisfy sigma(e) = iota(sigma(reversed e))")

    def color(self, v: Coord, d: Direction) -> int:
        return int(self.sigma[v[0] - 1, v[1] - 1, d])


def respects_matching(vp: VariantPuzzle) -> bool:
    """Check the coupling on every internal oriented edge pair."""
    n, iota, sigma = vp.n, vp.iota, vp.sigma
    R, U, L, D = Direction.RIGHT, Direction.UP, Direction.LEFT, Direction.DOWN
    for j in range(1, n + 1):
        for i in range(1, n):
            if int(sigma[i - 1, j - 1, R]) != iota(int(sigma[i, j - 1, L])):
                return False
    for j in range(1, n):
        for i in range(1, n + 1):
            if int(sigma[i - 1, j - 1, U]) != iota(int(sigma[i - 1, j, D])):
                return False
    return True


@dataclass(frozen=True)
class RotAssembly:
    """Placement of home pieces with quarter turns: location -> (home, turns)."""

    n: int
    placement: dict[Coord, tuple[Coord, int]]

    def slot_color(self, vp: VariantPuzzle, v: Coord, d: Direction) -> int:
        home, turns = self.placement[v]
        return int(vp.sigma[home[0] - 1, home[1] - 1, (d - turns) % 4])


def identity_assembly(n: int) -> RotAssembly:
    return RotAssembly(n, {v: (v, 0) for v in positions_row_major(n)})


def _validate_rot_assembly(vp: VariantPuzzle, a: RotAssembly) -> None:
    n = vp.n
    if a.n != n or len(a.placement) != n * n:
        raise ValueError("assembly must place a piece at every position")
    homes = set()
    for v, (home, turns) in a.placement.items():
        if not (1 <= v[0] <= n and 1 <= v[1] <= n):
            raise ValueError(f"location {v} out of range")
        if not (1 <= home[0] <= n and 1 <= home[1] <= n):
            raise ValueError(f"piece {home} out of range")
        if turns not in TURNS:
            raise ValueError("turns must be in 0..3")
        if home in homes:
            raise ValueError("each piece may be placed once")
        homes.add(home)
        if home == (1, 1) and turns != 0:
            raise ValueError("the piece homed at (1, 1) must keep the identity rotation")


def is_feasible_rot_assembly(vp: VariantPuzzle, a: RotAssembly) -> bool:
    """True iff every internal edge matches through the involution."""
    _validate_rot_assembly(vp, a)
    n, iota = vp.n, vp.iota
    R, U, L, D = Direction.RIGHT, Direction.UP, Direction.LEFT, Direction.DOWN
    for j in range(1, n + 1):
        for i in range(1, n):
            if a.slot_color(vp, (i, j), R) != iota(a.slot_color(vp, (i + 1, j), L)):
                return False
    for j in range(1, n):
        for i in range(1, n + 1):
            if a.slot_color(vp, (i, j), U) != iota(a.slot_color(vp, (i, j + 1), D)):
                return False
    return True


def brute_force_variant_solve(
    vp: VariantPuzzle,
    limit: int = DEFAULT_LIMIT,
    boundary_fixed: bool = False,
    allow_rotations: bool = True,
) -> list[RotAssembly]:
    """Exhaustively enumerate feasible rotated assemblies of a tiny puzzle.

    Locations are filled in canonical row-major order, pruning against the
    already placed left and lower neighbors. ``boundary_fixed`` restricts
    to assemblies that map internal edges to internal edges (the usual
    jigsaw sub-model where boundary pieces stay on the boundary).
    ``allow_rotations=False`` pins every turn count to zero, reducing the
    search to the base model.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n, q, iota, sigma = vp.n, vp.q, vp.iota, vp.sigma
    locations = positions_row_major(n)
    homes = positions_row_major(n)
    num = n * n
    results: list[RotAssembly] = []

    # slot colors per home piece and turn count, precomputed
    colors = {}
    for home in homes:
        base = tuple(int(sigma[home[0] - 1, home[1] - 1, d]) for d in range(4))
        for t in TURNS:
            colors[(home, t)] = rotate_piece(base, t)

    chosen: list[tuple[Coord, int]] = [((0, 0), 0)] * num
    used = [False] * num

    def internal_ok(loc: Coord, home: Coord, t: int) -> bool:
        # every internal edge of the location must map to an internal piece edge
        i, j = loc
        for d in range(4):
            di, dj = Direction(d).step
            if 1 <= i + di <= n and 1 <= j + dj <= n:
                slot = (d - t) % 4
                si, sj = Direction(slot).step
                if not (1 <= home[0] + si <= n and 1 <= home[1] + sj <= n):
                    return False
        return True

    def fits(idx: int, home: Coord, t: int) -> bool:
        i, j = locations[idx]
        cols = colors[(home, t)]
        if i > 1:
            left = chosen[idx - 1]
            if colors[left][Direction.RIGHT] != iota(cols[Direction.LEFT]):
                return False
        if j > 1:
            below = chosen[idx - n]
            if colors[below][Direction.UP] != iota(cols[Direction.DOWN]):
                return False
        if boundary_fixed and not internal_ok(locations[idx], home, t):
            return False
        return True

    def search(idx: int) -> None:
        if idx == num:
            results.append(RotAssembly(n, {locations[p]: chosen[p] for p in range(num)}))
            if len(results) > limit:
                raise LimitExceededError(limit)
            return
        for h, home in enumerate(homes):
            if used[h]:
                continue
            turns = (0,) if (home == (1, 1) or not allow_rotations) else TURNS
            for t in turns:
                if fits(idx, home, t):
                    used[h] = True
                    chosen[idx] = (home, t)
                    search(idx + 1)
                    used[h] = False
        return

    search(0)
    return results


def to_base_puzzle(vp: VariantPuzzle) -> Puzzle:
    """Flatten an identity-involution variant onto a base puzzle."""
    if vp.iota.images != tuple(range(1, vp.q + 1)):
        raise ValueError("only an identity involution flattens to a base puzzle")
    n = vp.n
    R, U, L, D = Direction.RIGHT, Direction.UP, Direction.LEFT, Direction.DOWN
    hcolors = np.zeros((n + 1, n), dtype=np.int64)
    vcolors = np.zeros((n, n + 1), dtype=np.int64)
    for j in range(1, n + 1):
        hcolors[0, j - 1] = vp.color((1, j), L)
        for i in range(1, n + 1):
            hcolors[i, j - 1] = vp.color((i, j), R)
    for i in range(1, n + 1):
        vcolors[i - 1, 0] = vp.color((i, 1), D)
        for j in range(1, n + 1):
            vcolors[i - 1, j] = vp.color((i, j), U)
    return Puzzle(n, vp.q, hcolors, vcolors)


def write_variant(vp: VariantPuzzle, out: TextIO) -> None:
    out.write(f"{vp.n} {vp.q}\n")
    out.write(" ".join(str(c) for c in vp.iota.images))
    out.write("\n")
    for v in positions_row_major(vp.n):
        out.write(" ".join(str(vp.color(v, Direction(d))) for d in range(4)))
        out.write("\n")


def read_variant(inp: TextIO) -> VariantPuzzle:
    tokens = inp.read().split()
    if len(tokens) < 2:
        raise ValueError("variant file: missing header")
    n, q = int(tokens[0]), int(tokens[1])
    if n < 1 or q < 1:
        raise ValueError("variant file: n and q must be positive")
    need = 2 + q + 4 * n * n
    if len(tokens) != need:
        raise ValueError(f"variant file: expected {need} tokens, got {len(tokens)}")
    iota = JigInvolution(tuple(int(t) for t in tokens[2 : 2 + q]))
    vals = [int(t) for t in tokens[2 + q :]]
    sigma = np.zeros((n, n, 4), dtype=np.int64)
    pos = 0
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            for d in range(4):
                sigma[i - 1, j - 1, d] = vals[pos]
                pos += 1
    return VariantPuzzle(n, q, iota, sigma)
