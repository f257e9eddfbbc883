"""Seeded random generation of base and rotation-variant puzzles.

Colors are drawn from a PCG64 stream in a fixed canonical order, so a
``(n, q, seed)`` triple names one puzzle forever:

* base puzzles: the horizontal block first, in file order (row j = 1..n,
  anchors i = 0..n within a row), then the vertical block in file order
  (j = 0..n, i = 1..n within a line);
* variant puzzles: internal rightward edges (j = 1..n, i = 1..n-1), then
  internal upward edges (j = 1..n-1, i = 1..n), each mirrored through the
  involution, then the four boundary runs (left column, right column,
  bottom row, top row), each block in the home index order
  ``(j - 1) * n + (i - 1)`` of the pieces whose edges it colors.
"""

from __future__ import annotations

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, MAX_Q, Puzzle
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
    sigma = np.zeros((n, n, 4), dtype=np.int64)  # [i - 1, j - 1, d]
    rights = rng.integers(1, q + 1, size=(n, n - 1)).T  # [i - 1, j - 1], i < n
    sigma[:-1, :, RIGHT], sigma[1:, :, LEFT] = rights, iota.table[rights]
    ups = rng.integers(1, q + 1, size=(n - 1, n)).T  # [i - 1, j - 1], j < n
    sigma[:, :-1, UP], sigma[:, 1:, DOWN] = ups, iota.table[ups]
    sigma[0, :, LEFT] = rng.integers(1, q + 1, size=n)
    sigma[-1, :, RIGHT] = rng.integers(1, q + 1, size=n)
    sigma[:, 0, DOWN] = rng.integers(1, q + 1, size=n)
    sigma[:, -1, UP] = rng.integers(1, q + 1, size=n)
    return VariantPuzzle(n, q, iota, sigma)
