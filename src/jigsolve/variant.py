"""Rotation-variant model: oriented edges, jig involutions, C4 turns.

Every oriented edge with tail on the board carries a color; a puzzle
couples the two orientations of each internal edge through an involution
``iota`` on colors (``color(e) = iota(color(reversed e))``). Pieces keep
their four slot colors in counter-clockwise order (right, up, left, down)
and may be placed with any number of quarter turns, except that the piece
whose home is (1, 1) pins the global orientation: wherever it lands, its
turn count must be zero.

A piece is named by the row-major index of its home: the piece homed at
(i, j) is ``(j - 1) * n + (i - 1)``. A :class:`RotAssembly` holds two
(n, n) grids laid out like ``Assembly.grid``: at ``[j - 1, i - 1]`` the
home index of the piece placed at (i, j) and its quarter turns. A
puzzle's slot colors ``sigma`` are laid out the same way, so the piece
with home index h holds ``sigma.reshape(-1, 4)[h]``.

Variant puzzle file format (plain text): line 1 ``n q``; line 2 the
involution as q integers (image of each color); then n^2 lines
``right up left down`` of oriented colors, one line per home index
(row j = 1..n, i = 1..n within a row).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, Puzzle, check_n_q, color_array, read_header, write_rows
from .oracle import DEFAULT_LIMIT, LimitExceededError


@dataclass(frozen=True)
class JigInvolution:
    """A self-inverse permutation of the colors [1..q]."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        q = len(self.images)
        for j, img in enumerate(self.images, 1):
            if not (1 <= img <= q):
                raise ValueError("involution images must lie in [1..q]")
            if self.images[img - 1] != j:
                raise ValueError("mapping is not an involution")

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only int64 lookup: ``table[c]`` is the image of color c (entry 0 unused)."""
        table = np.array((0, *self.images), dtype=np.int64)
        table.flags.writeable = False
        return table

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

    ``sigma[j-1, i-1, d]`` is the color of the oriented edge leaving
    position (i, j) in direction d (slot order right, up, left, down),
    one row per j like ``Assembly.grid``.
    """

    n: int
    q: int
    iota: JigInvolution
    sigma: np.ndarray

    def __post_init__(self) -> None:
        check_n_q(self.n, self.q)
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


def _coupled(iota: JigInvolution, colors: np.ndarray) -> bool:
    """True iff every internal oriented edge pair of a board whose slot
    colors are ``colors[j - 1, i - 1, d]`` is coupled through ``iota``."""
    return bool(
        np.array_equal(colors[:, :-1, RIGHT], iota.table[colors[:, 1:, LEFT]])
        and np.array_equal(colors[:-1, :, UP], iota.table[colors[1:, :, DOWN]])
    )


def respects_matching(vp: VariantPuzzle) -> bool:
    """Check the coupling on every internal oriented edge pair."""
    return _coupled(vp.iota, vp.sigma)


@dataclass(frozen=True, eq=False)
class RotAssembly:
    """A placement of home pieces with quarter turns, as two read-only
    (n, n) int64 grids: ``home[j - 1, i - 1]`` is the home index of the
    piece at position (i, j), ``turns[j - 1, i - 1]`` its quarter turns.
    """

    home: np.ndarray
    turns: np.ndarray

    def __post_init__(self) -> None:
        for name in ("home", "turns"):
            grid = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            grid.flags.writeable = False
            object.__setattr__(self, name, grid)


def identity_assembly(n: int) -> RotAssembly:
    return RotAssembly(np.arange(n * n).reshape(n, n), np.zeros((n, n), dtype=np.int64))


def is_feasible_rot_assembly(vp: VariantPuzzle, a: RotAssembly) -> bool:
    """True iff every internal edge matches through the involution.

    Raises if the placement is not a bijection from all positions onto
    all home indices, a turn count lies outside 0..3, or the piece homed
    at (1, 1) is turned.
    """
    n, home, turns = vp.n, a.home, a.turns
    if home.shape != (n, n) or turns.shape != (n, n):
        raise ValueError("assembly must place a piece at every position")
    if not np.array_equal(np.sort(home, axis=None), np.arange(n * n)):
        raise ValueError(f"home indices must be 0..{n * n - 1}, each once")
    if turns.min() < 0 or turns.max() > 3:
        raise ValueError("turns must be in 0..3")
    if turns[home == 0].any():
        raise ValueError("the piece homed at (1, 1) must keep the identity rotation")
    slots = (np.arange(4) - turns[..., None]) % 4
    return _coupled(vp.iota, vp.sigma.reshape(-1, 4)[home[..., None], slots])


def brute_force_variant_solve(
    vp: VariantPuzzle,
    limit: int = DEFAULT_LIMIT,
    boundary_fixed: bool = False,
) -> list[RotAssembly]:
    """Exhaustively enumerate feasible rotated assemblies of a tiny puzzle.

    Locations are filled in canonical row-major order, trying homes in
    row-major order and turns ascending, and pruning against the already
    placed left and lower neighbors. ``boundary_fixed`` restricts to
    assemblies that map internal edges to internal edges (the usual
    jigsaw sub-model where boundary pieces stay on the boundary).
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n, num, table = vp.n, vp.n**2, vp.iota.table.tolist()
    results: list[RotAssembly] = []

    # keyed 4 * home + t: the slot colors of each home turned t times and
    # whether each of its slots faces the board; ``inner`` is that per location
    rotated = [rotate_piece(piece, t) for piece in vp.sigma.reshape(-1, 4).tolist() for t in range(4)]
    row, col = np.divmod(np.arange(num), n)
    inner = np.stack([col < n - 1, row < n - 1, col > 0, row > 0], axis=1).tolist()
    inner_turned = [rotate_piece(sides, t) for sides in inner for t in range(4)]
    chosen, used = [0] * num, [False] * num

    def fits(idx: int, key: int) -> bool:
        cols = rotated[key]
        if idx % n and rotated[chosen[idx - 1]][RIGHT] != table[cols[LEFT]]:
            return False
        if idx >= n and rotated[chosen[idx - n]][UP] != table[cols[DOWN]]:
            return False
        # every internal edge of the location must map to an internal piece edge
        return not boundary_fixed or all(p or not v for v, p in zip(inner[idx], inner_turned[key]))

    def search(idx: int) -> None:
        if idx == num:
            results.append(RotAssembly(*np.divmod(np.reshape(chosen, (n, n)), 4)))
            if len(results) > limit:
                raise LimitExceededError(limit)
            return
        for h in range(num):
            if used[h]:
                continue
            for key in range(4 * h, 4 * h + (4 if h else 1)):
                if fits(idx, key):
                    used[h] = True
                    chosen[idx] = key
                    search(idx + 1)
                    used[h] = False

    search(0)
    return results


def to_base_puzzle(vp: VariantPuzzle) -> Puzzle:
    """Flatten an identity-involution variant onto a base puzzle."""
    if vp.iota.images != tuple(range(1, vp.q + 1)):
        raise ValueError("only an identity involution flattens to a base puzzle")
    hcolors = np.concatenate([vp.sigma[:, :1, LEFT], vp.sigma[:, :, RIGHT]], axis=1)
    vcolors = np.concatenate([vp.sigma[:1, :, DOWN], vp.sigma[:, :, UP]], axis=0)
    return Puzzle(vp.n, vp.q, hcolors, vcolors)


def write_variant(vp: VariantPuzzle, out: TextIO) -> None:
    write_rows(out, [[vp.n, vp.q], vp.iota.images], vp.sigma.reshape(-1, 4).tolist())


def read_variant(inp: TextIO) -> VariantPuzzle:
    n, q, vals = read_header(inp, "variant", lambda n, q: q + 4 * n * n)
    iota = JigInvolution(tuple(vals[:q]))
    return VariantPuzzle(n, q, iota, color_array(vals[q:], q, "colors").reshape(n, n, 4))
