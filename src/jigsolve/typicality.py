"""The five structural properties that make a puzzle easy to reconstruct.

All properties are evaluated against the ground truth (the puzzle and its
planted placement), so this is a harness-side checker. Thresholds are
compared in exact rational arithmetic. Note that the last property bounds
the number of pieces per color pair by ``c_prime * k``, which is below 1
at small k with the default constant; it is then unsatisfiable, and the
overall verdict is driven by it. The checker still reports each property
separately so the others stay informative at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .grid import Assembly, Coord, EdgeId, PieceBag, Puzzle, edge_in_direction, piece_colors
from .windows import DEFAULT_BUDGET, Candidates, candidate_neighborhoods

#: Default constant for the color-pair property.
DEFAULT_C_PRIME = Fraction(1, 50)


@dataclass(frozen=True)
class TypicalityReport:
    k: int
    c_prime: Fraction
    core_unique: bool  # every core piece has exactly one candidate neighborhood
    core_witness: Optional[tuple[Coord, str]]
    peripheral_consistent: bool  # peripheral pieces: no neighborhood, or the planted one
    peripheral_witness: Optional[tuple[Coord, str]]
    edge_colors_ok: bool  # few peripheral edges with repeated colors
    nonunique_peripheral_edges: int
    edge_witness: Optional[EdgeId]
    pair_sharing_ok: bool  # no two peripheral pieces share two jig colors
    pair_witness: Optional[tuple[Coord, Coord, tuple[int, int]]]
    color_pair_ok: bool  # every color pair is on few pieces
    color_pair_witness: Optional[tuple[tuple[int, int], int]]

    @property
    def typical(self) -> bool:
        return (
            self.core_unique
            and self.peripheral_consistent
            and self.edge_colors_ok
            and self.pair_sharing_ok
            and self.color_pair_ok
        )


def check_typical(
    puzzle: Puzzle,
    k: int,
    c_prime: Fraction = DEFAULT_C_PRIME,
    budget: int = DEFAULT_BUDGET,
) -> TypicalityReport:
    """Evaluate the five properties from scratch.

    Builds a bag in planted order and enumerates its windows; propagates
    :class:`jigsolve.windows.BudgetExceededError` if the enumeration blows
    the budget.
    """
    n = puzzle.n
    if 2 * k >= n:
        raise ValueError("need k < n/2")
    bag = PieceBag(n, puzzle.q, piece_colors(puzzle))
    planted = Assembly(np.arange(n * n).reshape(n, n))
    statuses = candidate_neighborhoods(bag, k, budget)
    return report_from_candidates(puzzle, planted, statuses, k, c_prime)


def report_from_candidates(
    puzzle: Puzzle,
    planted: Assembly,
    statuses: Candidates,
    k: int,
    c_prime: Fraction = DEFAULT_C_PRIME,
) -> TypicalityReport:
    """Evaluate the properties given precomputed candidate statuses.

    ``statuses`` must come from the bag that ``planted`` indexes into;
    the harness reuses one window enumeration for both this check and the
    solve.
    """
    n = puzzle.n
    grid = planted.grid
    sides = piece_colors(puzzle)  # row-major
    # the ring outside the core, row-major, and the pieces planted on it
    on_ring = np.ones((n, n), dtype=bool)
    on_ring[k : n - k, k : n - k] = False
    ys, xs = np.nonzero(on_ring)
    peripheral = list(zip((xs + 1).tolist(), (ys + 1).tolist()))
    ring = grid[on_ring]

    core_unique, core_witness = True, None
    off = ~statuses.unique
    off[ring] = False  # core pieces without a unique neighborhood
    if off.any():
        ix = int(np.flatnonzero(off[grid])[0])  # the first such position, row-major
        pid = int(grid.flat[ix])
        v = (ix % n + 1, ix // n + 1)
        core_unique, core_witness = False, (v, "multiple" if statuses.multiple[pid] else "none")

    peripheral_consistent, peripheral_witness = True, None
    for ix in np.flatnonzero(statuses.windows[ring]).tolist():
        v, pid = peripheral[ix], int(ring[ix])
        if statuses.multiple[pid]:
            peripheral_consistent, peripheral_witness = False, (v, "multiple")
            break
        if tuple(statuses.stable[pid].tolist()) != _planted_neighborhood(grid, v):
            peripheral_consistent, peripheral_witness = False, (v, "not planted")
            break

    ring_pieces = sides[on_ring.ravel()].tolist()

    # repeated colors among edges touching the periphery
    edge_colors: dict[EdgeId, int] = {}
    for v, piece in zip(peripheral, ring_pieces):
        for d in range(4):
            e = edge_in_direction(v, d)
            if e not in edge_colors:
                edge_colors[e] = piece[d]
    counts: dict[int, int] = {}
    for c in edge_colors.values():
        counts[c] = counts.get(c, 0) + 1
    nonunique = 0
    edge_witness = None
    for e, c in edge_colors.items():
        if counts[c] >= 2:
            nonunique += 1
            if edge_witness is None:
                edge_witness = e
    edge_budget = n - 2 * k - 1
    edge_colors_ok = nonunique <= edge_budget

    # no two peripheral pieces may share a color pair
    pair_sharing_ok, pair_witness = True, None
    seen_pairs: dict[tuple[int, int], Coord] = {}
    for v, piece in zip(peripheral, ring_pieces):
        for key in _color_pairs(piece):
            prev = seen_pairs.get(key)
            if prev is None:
                seen_pairs[key] = v
            elif prev != v and pair_sharing_ok:
                pair_sharing_ok, pair_witness = False, (prev, v, key)
        if not pair_sharing_ok:
            break

    # every color pair must be on at most c_prime * k pieces (all pieces);
    # an integer count exceeds the threshold exactly when it exceeds its floor
    limit = math.floor(c_prime * k)
    pairs, pair_counts = _pair_counts(sides)
    over = np.flatnonzero(pair_counts > limit)
    color_pair_witness = None
    if over.size:
        a, b = pairs[over[0]].tolist()
        color_pair_witness = ((a, b), int(pair_counts[over[0]]))

    return TypicalityReport(
        k=k,
        c_prime=c_prime,
        core_unique=core_unique,
        core_witness=core_witness,
        peripheral_consistent=peripheral_consistent,
        peripheral_witness=peripheral_witness,
        edge_colors_ok=edge_colors_ok,
        nonunique_peripheral_edges=nonunique,
        edge_witness=edge_witness,
        pair_sharing_ok=pair_sharing_ok,
        pair_witness=pair_witness,
        color_pair_ok=color_pair_witness is None,
        color_pair_witness=color_pair_witness,
    )


def _planted_neighborhood(grid: np.ndarray, v: Coord) -> tuple[int, int, int, int] | None:
    """Planted neighbor ids of v in direction order, None if v borders."""
    n = len(grid)
    i, j = v
    if not (1 < i < n and 1 < j < n):
        return None
    # grid[j - 1, i - 1] holds position (i, j); neighbors right, up, left, down
    rows, cols = [j - 1, j, j - 1, j - 2], [i, i - 1, i - 2, i - 1]
    return tuple(grid[rows, cols].tolist())  # type: ignore[return-value]


def _color_pairs(piece) -> list[tuple[int, int]]:
    """The six unordered jig color pairs of a piece, as sorted tuples."""
    out = []
    for a in range(4):
        for b in range(a + 1, 4):
            ca, cb = piece[a], piece[b]
            out.append((ca, cb) if ca <= cb else (cb, ca))
    return out


def _pair_counts(sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every jig color pair of the pieces ``sides`` (one row of four
    colors each) with the number of pieces holding it.

    Returns ``(pairs, counts)``: ``pairs`` has one sorted ``(a, b)`` row
    per distinct pair, ascending, and ``counts[i]`` counts the pieces
    with ``pairs[i]`` among the six pairs of their four colors.
    """
    # colors ranked densely, so a pair key fits int64 whatever q is
    colors, ranks = np.unique(sides, return_inverse=True)
    ranks = np.sort(ranks.reshape(-1, 4), axis=1)
    stride = len(colors)
    a, b = np.triu_indices(4, 1)
    keys = np.sort(ranks[:, a] * stride + ranks[:, b], axis=1)
    first = np.ones(keys.shape, dtype=bool)
    first[:, 1:] = keys[:, 1:] != keys[:, :-1]
    uniq, counts = np.unique(keys[first], return_counts=True)
    return colors[np.stack([uniq // stride, uniq % stride], axis=1)], counts
