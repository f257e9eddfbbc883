"""Seeded random generation of base and rotation-variant puzzles.

Colors are drawn from a PCG64 stream in a fixed canonical order, so a
``(n, q, seed)`` triple names one puzzle forever:

* base puzzles: the horizontal block first, in file order (row j = 1..n,
  anchors i = 0..n within a row), then the vertical block in file order
  (j = 0..n, i = 1..n within a line);
* variant puzzles: internal rightward edges (j = 1..n, i = 1..n-1), then
  internal upward edges (j = 1..n-1, i = 1..n), each mirrored through the
  involution, then the four boundary runs (left column, right column,
  bottom row, top row).
"""

from __future__ import annotations

import numpy as np

from .grid import MAX_Q, Direction, Puzzle
from .rng import generator
from .variant import JigInvolution, VariantPuzzle


def generate(n: int, q: int, seed: int) -> Puzzle:
    """A puzzle with every edge color uniform in [1..q], independently."""
    if n < 1 or not 1 <= q <= MAX_Q:
        raise ValueError(f"need n >= 1 and 1 <= q <= 2**63 - 1; got n={n}, q={q}")
    rng = generator(seed)
    hblock = rng.integers(1, q + 1, size=(n, n + 1))
    vblock = rng.integers(1, q + 1, size=(n + 1, n))
    return Puzzle(n, q, hblock.T.copy(), vblock.T.copy())


def generate_variant(n: int, q: int, iota: JigInvolution, seed: int) -> VariantPuzzle:
    """A variant puzzle: oriented edge colors coupled through ``iota``.

    Each internal unordered edge gets one free uniform color on its
    canonical orientation (rightward or upward); the reverse orientation
    is forced to the involution image. Boundary oriented edges (head off
    the board) are free uniform colors.
    """
    if n < 1 or not 1 <= q <= MAX_Q:
        raise ValueError(f"need n >= 1 and 1 <= q <= 2**63 - 1; got n={n}, q={q}")
    iota.validate(q)
    rng = generator(seed)
    sigma = np.zeros((n, n, 4), dtype=np.int64)
    R, U, L, D = Direction.RIGHT, Direction.UP, Direction.LEFT, Direction.DOWN

    if n > 1:
        rights = rng.integers(1, q + 1, size=(n, n - 1))
        for j in range(1, n + 1):
            for i in range(1, n):
                c = int(rights[j - 1, i - 1])
                sigma[i - 1, j - 1, R] = c
                sigma[i, j - 1, L] = iota(c)
        ups = rng.integers(1, q + 1, size=(n - 1, n))
        for j in range(1, n):
            for i in range(1, n + 1):
                c = int(ups[j - 1, i - 1])
                sigma[i - 1, j - 1, U] = c
                sigma[i - 1, j, D] = iota(c)

    left_col = rng.integers(1, q + 1, size=n)
    right_col = rng.integers(1, q + 1, size=n)
    bottom_row = rng.integers(1, q + 1, size=n)
    top_row = rng.integers(1, q + 1, size=n)
    for j in range(1, n + 1):
        sigma[0, j - 1, L] = int(left_col[j - 1])
        sigma[n - 1, j - 1, R] = int(right_col[j - 1])
    for i in range(1, n + 1):
        sigma[i - 1, 0, D] = int(bottom_row[i - 1])
        sigma[i - 1, n - 1, U] = int(top_row[i - 1])

    return VariantPuzzle(n, q, iota, sigma)
