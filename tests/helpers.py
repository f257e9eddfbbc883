"""Shared builders for the test suite."""

import random

import numpy as np

from jigsolve.assemble import PartialAssembly
from jigsolve.constraints import WindowMap
from jigsolve.grid import Puzzle
from jigsolve.windows import Candidates


def random_window_map(rng: random.Random, k: int, n: int, full: bool = False) -> WindowMap:
    """A random window map: random nonempty W, random injective targets."""
    cells = [(x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)]
    if not full:
        cells = [c for c in cells if rng.random() < 0.5]
        if not cells:
            cells = [(0, 0)]
    targets = rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)], len(cells))
    return WindowMap(k, dict(zip(cells, targets)))


def explicit_puzzle(n: int, q: int, fill) -> Puzzle:
    """Puzzle with hcolors/vcolors given by a function of the edge id."""
    h = np.zeros((n + 1, n), dtype=np.int64)
    v = np.zeros((n, n + 1), dtype=np.int64)
    for i in range(n + 1):
        for j in range(1, n + 1):
            h[i, j - 1] = fill("h", i, j)
    for i in range(1, n + 1):
        for j in range(n + 1):
            v[i - 1, j] = fill("v", i, j)
    return Puzzle(n, q, h, v)


def all_distinct_puzzle(n: int) -> Puzzle:
    """Every edge gets its own color; all piece values are unique."""
    counter = [0]

    def fill(orient, i, j):
        counter[0] += 1
        return counter[0]

    total = (n + 1) * n * 2
    puzzle = explicit_puzzle(n, total, fill)
    return puzzle


def claimed_candidates(num_pieces: int, claims: dict) -> Candidates:
    """Candidates of pieces ``0..num_pieces-1`` in which each piece of
    ``claims`` saw one window, naming its (right, up, left, down)
    neighbors; every other piece saw none."""
    stable = np.full((num_pieces, 4), -1, dtype=np.int64)
    windows = np.zeros(num_pieces, dtype=np.int64)
    for pid, neighbors in claims.items():
        stable[pid] = neighbors
        windows[pid] = 1
    return Candidates(stable, windows)


def component(cells: dict) -> PartialAssembly:
    """A component holding piece ``cells[(x, y)]`` at each cell ``(x, y)``."""
    (xs, ys), pids = zip(*cells.keys()), list(cells.values())
    return PartialAssembly(np.array(pids), np.array(xs), np.array(ys))


def component_cells(comp: PartialAssembly) -> dict:
    """A component's cells as a mapping ``(x, y) -> piece id``."""
    return dict(zip(zip(comp.x.tolist(), comp.y.tolist()), comp.pid.tolist()))
