"""Seeded random generation of base and rotation-variant puzzles.

Colors are drawn from a PCG64 stream in a fixed canonical order, so a
``(n, q, seed)`` triple names one puzzle forever:

* base puzzles: ``hcolors`` first, then ``vcolors``, each block drawn in
  its array's layout, which is also its file order (row j, then anchor i
  within a row);
* variant puzzles: internal rightward edges (j = 1..n, i = 1..n-1), then
  internal upward edges (j = 1..n-1, i = 1..n), each mirrored through the
  involution, then the four boundary runs (left column, right column,
  bottom row, top row), each block in the home index order
  ``(j - 1) * n + (i - 1)`` of the pieces whose edges it colors.
"""

from __future__ import annotations

import numpy as np

from .grid import DOWN, LEFT, RIGHT, UP, Puzzle, check_n_q
from .rng import generator
from .variant import JigInvolution, VariantPuzzle


def generate(n: int, q: int, seed: int) -> Puzzle:
    """A puzzle with every edge color uniform in [1..q], independently."""
    check_n_q(n, q)
    rng = generator(seed)
    hcolors = rng.integers(1, q + 1, size=(n, n + 1))
    vcolors = rng.integers(1, q + 1, size=(n + 1, n))
    return Puzzle(n, q, hcolors, vcolors)


def generate_variant(n: int, q: int, iota: JigInvolution, seed: int) -> VariantPuzzle:
    """A variant puzzle: oriented edge colors coupled through ``iota``.

    Each internal unordered edge gets one free uniform color on its
    canonical orientation (rightward or upward); the reverse orientation
    is forced to the involution image. Boundary oriented edges (head off
    the board) are free uniform colors.
    """
    check_n_q(n, q)
    iota.validate(q)
    rng = generator(seed)
    sigma = np.zeros((n, n, 4), dtype=np.int64)  # [j - 1, i - 1, d]
    rights = rng.integers(1, q + 1, size=(n, n - 1))  # [j - 1, i - 1], i < n
    sigma[:, :-1, RIGHT], sigma[:, 1:, LEFT] = rights, iota.table[rights]
    ups = rng.integers(1, q + 1, size=(n - 1, n))  # [j - 1, i - 1], j < n
    sigma[:-1, :, UP], sigma[1:, :, DOWN] = ups, iota.table[ups]
    sigma[:, 0, LEFT] = rng.integers(1, q + 1, size=n)
    sigma[:, -1, RIGHT] = rng.integers(1, q + 1, size=n)
    sigma[0, :, DOWN] = rng.integers(1, q + 1, size=n)
    sigma[-1, :, UP] = rng.integers(1, q + 1, size=n)
    return VariantPuzzle(n, q, iota, sigma)
