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

from .grid import DOWN, LEFT, Assembly, Coord, EdgeId, PieceBag, Puzzle, check_radius, edge_in_direction, piece_colors
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
    check_radius(n, k)
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
    ring = grid[on_ring]

    def position(ix: int) -> Coord:
        return int(xs[ix]) + 1, int(ys[ix]) + 1

    core_witness = None
    off = ~statuses.unique
    off[ring] = False  # core pieces without a unique neighborhood
    if off.any():
        ix = int(np.flatnonzero(off[grid])[0])  # the first such position, row-major
        pid = int(grid.flat[ix])
        core_witness = ((ix % n + 1, ix // n + 1), "multiple" if statuses.multiple[pid] else "none")

    # planted neighbors right, up, left, down; -1 off the board, so a
    # border piece never names them
    padded = np.full((n + 2, n + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1] = grid
    around = np.stack([padded[1:-1, 2:], padded[2:, 1:-1], padded[1:-1, :-2], padded[:-2, 1:-1]], axis=-1)
    multiple = statuses.multiple[ring]
    strays = np.flatnonzero(
        (statuses.windows[ring] > 0) & (multiple | (statuses.stable[ring] != around[on_ring]).any(axis=1))
    )
    peripheral_witness = None
    if len(strays):
        peripheral_witness = (position(strays[0]), "multiple" if multiple[strays[0]] else "not planted")

    # repeated colors among the edges touching the periphery, each edge
    # once: a left or down side that a ring neighbor shares is its right or up
    ring_sides = sides[on_ring.ravel()]
    counted = np.ones((n, n, 4), dtype=bool)
    counted[:, 1:, LEFT] = ~on_ring[:, :-1]
    counted[1:, :, DOWN] = ~on_ring[:-1, :]
    colors, counts = np.unique(ring_sides[counted[on_ring]], return_counts=True)
    nonunique = int(counts[counts >= 2].sum())
    rank = np.searchsorted(colors, ring_sides)
    # the first repeated edge met scanning the ring, then each piece's sides
    repeated = np.flatnonzero(counts[rank] >= 2)
    edge_witness = None
    if len(repeated):
        edge_witness = edge_in_direction(position(repeated[0] // 4), int(repeated[0] % 4))

    # no two peripheral pieces may share a color pair: a pair entry whose
    # first holder is another piece shares it; the first such entry,
    # scanning ring pieces and then their pairs, is the witness
    a, b = np.triu_indices(4, 1)
    low, high = np.minimum(rank[:, a], rank[:, b]), np.maximum(rank[:, a], rank[:, b])
    pairs = (low * len(colors) + high).ravel()
    _, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    holder = first[inverse] // 6
    shared = np.flatnonzero(holder != np.arange(len(pairs)) // 6)
    pair_witness = None
    if len(shared):
        e = shared[0]
        key = (int(colors[low.flat[e]]), int(colors[high.flat[e]]))
        pair_witness = (position(holder[e]), position(e // 6), key)

    # every color pair must be on at most c_prime * k pieces (all pieces);
    # an integer count exceeds the threshold exactly when it exceeds its floor
    color_pair_witness = _crowded_pair(sides, math.floor(c_prime * k))

    return TypicalityReport(
        k=k,
        c_prime=c_prime,
        core_unique=core_witness is None,
        core_witness=core_witness,
        peripheral_consistent=peripheral_witness is None,
        peripheral_witness=peripheral_witness,
        edge_colors_ok=nonunique <= n - 2 * k - 1,
        nonunique_peripheral_edges=nonunique,
        edge_witness=edge_witness,
        pair_sharing_ok=pair_witness is None,
        pair_witness=pair_witness,
        color_pair_ok=color_pair_witness is None,
        color_pair_witness=color_pair_witness,
    )


def _crowded_pair(sides: np.ndarray, limit: int) -> tuple[tuple[int, int], int] | None:
    """The smallest jig color pair ``(a, b)``, ``a <= b``, that more than
    ``limit`` of the pieces ``sides`` (one row of four colors each) hold
    among the six pairs of their colors, with the number of those pieces;
    None when there is no such pair.

    At limit 0 every held pair is crowded, so the witness is the smallest
    pair held: ``a`` is the lowest color of all, ``b`` the lowest
    second-lowest color of a piece whose lowest color is ``a``, and the
    pieces holding ``(a, b)`` are those whose two lowest colors are ``a``
    and ``b``; it is counted directly.
    """
    if limit == 0:
        a = sides.min()
        second = np.sort(sides[(sides == a).any(axis=1)], axis=1)[:, 1]
        b = second.min()
        return (int(a), int(b)), int(np.count_nonzero(second == b))
    a, b = np.triu_indices(4, 1)
    colors = np.sort(sides, axis=1)
    # dense ranks keep the pair keys within int64 whatever the colors
    ranks = np.unique(colors, return_inverse=True)[1].reshape(colors.shape)
    keys = ranks[:, a] * (int(ranks.max()) + 1) + ranks[:, b]
    # over sorted colors, the pair (a, b) is a piece's first copy of its
    # value when a starts a run of equal colors and b starts one or follows a
    starts = np.ones(colors.shape, dtype=bool)
    starts[:, 1:] = colors[:, 1:] != colors[:, :-1]
    first = starts[:, a] & (starts[:, b] | (b == a + 1))
    ranked = np.sort(keys[first])
    runs = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    counts = np.diff(runs, append=len(ranked))
    over = np.flatnonzero(counts > limit)
    if not len(over):
        return None
    key, count = ranked[runs[over[0]]], int(counts[over[0]])
    e = int(np.flatnonzero(keys.ravel() == key)[0])
    return (int(colors[:, a].flat[e]), int(colors[:, b].flat[e])), count
