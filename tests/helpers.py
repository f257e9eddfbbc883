"""Shared builders for the test suite."""

import math
import random

import numpy as np

from jigsolve.assemble import PartialAssembly
from jigsolve.constraints import WindowMap
from jigsolve.grid import Assembly, EdgeId, Puzzle, edge_in_direction, piece_colors
from jigsolve.typicality import DEFAULT_C_PRIME, TypicalityReport
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
    h = np.zeros((n, n + 1), dtype=np.int64)
    v = np.zeros((n + 1, n), dtype=np.int64)
    for i in range(n + 1):
        for j in range(1, n + 1):
            h[j - 1, i] = fill("h", i, j)
    for i in range(1, n + 1):
        for j in range(n + 1):
            v[j, i - 1] = fill("v", i, j)
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


def reference_report(puzzle: Puzzle, planted: Assembly, statuses: Candidates, k: int, c_prime=DEFAULT_C_PRIME):
    """:func:`jigsolve.typicality.report_from_candidates` as a walk over
    the ring's positions, edges and color pairs, one at a time."""
    n = puzzle.n
    grid = planted.grid.tolist()  # grid[j - 1][i - 1] holds position (i, j)
    pieces = piece_colors(puzzle).tolist()  # row-major
    at = {(i, j): grid[j - 1][i - 1] for j in range(1, n + 1) for i in range(1, n + 1)}
    row_major = [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)]
    on_ring = [v for v in row_major if not (k < v[0] <= n - k and k < v[1] <= n - k)]
    ring = set(on_ring)
    stable = statuses.stable.tolist()
    unique, multiple, windows = statuses.unique.tolist(), statuses.multiple.tolist(), statuses.windows.tolist()

    core_witness = None
    for v in row_major:
        pid = at[v]
        if v not in ring and not unique[pid]:
            core_witness = (v, "multiple" if multiple[pid] else "none")
            break

    peripheral_witness = None
    for v in on_ring:
        pid = at[v]
        if not windows[pid]:
            continue
        if multiple[pid]:
            peripheral_witness = (v, "multiple")
            break
        i, j = v
        inside = 1 < i < n and 1 < j < n
        planted_neighbors = [at[(i + dx, j + dy)] for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))] if inside else None
        if stable[pid] != planted_neighbors:
            peripheral_witness = (v, "not planted")
            break

    edge_colors: dict[EdgeId, int] = {}
    for v in on_ring:
        for d in range(4):
            edge_colors.setdefault(edge_in_direction(v, d), puzzle.edge_color(edge_in_direction(v, d)))
    counts: dict[int, int] = {}
    for c in edge_colors.values():
        counts[c] = counts.get(c, 0) + 1
    repeated = [e for e, c in edge_colors.items() if counts[c] >= 2]

    pair_witness = None
    first_seen: dict[tuple[int, int], tuple[int, int]] = {}
    for v in on_ring:
        piece = pieces[(v[1] - 1) * n + v[0] - 1]
        for a in range(4):
            for b in range(a + 1, 4):
                key = tuple(sorted((piece[a], piece[b])))
                prev = first_seen.setdefault(key, v)
                if prev != v and pair_witness is None:
                    pair_witness = (prev, v, key)
        if pair_witness is not None:
            break

    holders: dict[tuple[int, int], int] = {}
    for piece in pieces:
        for key in {tuple(sorted((piece[a], piece[b]))) for a in range(4) for b in range(a + 1, 4)}:
            holders[key] = holders.get(key, 0) + 1
    limit = math.floor(c_prime * k)
    crowded = [(key, count) for key, count in sorted(holders.items()) if count > limit]

    return TypicalityReport(
        k=k,
        c_prime=c_prime,
        core_unique=core_witness is None,
        core_witness=core_witness,
        peripheral_consistent=peripheral_witness is None,
        peripheral_witness=peripheral_witness,
        edge_colors_ok=len(repeated) <= n - 2 * k - 1,
        nonunique_peripheral_edges=len(repeated),
        edge_witness=repeated[0] if repeated else None,
        pair_sharing_ok=pair_witness is None,
        pair_witness=pair_witness,
        color_pair_ok=not crowded,
        color_pair_witness=crowded[0] if crowded else None,
    )
