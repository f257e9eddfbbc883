"""Brute-force ground truth at tiny scale.

Everything here is deliberately naive: exhaustive backtracking in
row-major order with color pruning, no pair indexes, no chain seeding.
The point is to be an independent reference for the fast enumeration and
for uniqueness questions, not to be quick.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .grid import Assembly, PieceBag, Puzzle, pieces_row_major, positions_row_major
from .windows import WindowAssembly

#: Default cap on enumerated assemblies.
DEFAULT_LIMIT = 10**6


class LimitExceededError(Exception):
    """An exhaustive enumeration produced more results than allowed."""

    def __init__(self, limit: int):
        super().__init__(f"enumeration exceeded the limit of {limit} results")
        self.limit = limit


class UniquenessReport(NamedTuple):
    num_feasible: int
    unique_vertex: bool  # only the planted assembly is feasible
    unique_edge: bool  # every feasible assembly recolors no internal edge


def enumerate_feasible_assemblies(bag: PieceBag, limit: int = DEFAULT_LIMIT) -> list[Assembly]:
    """All bijective placements passing the color check, by backtracking.

    Positions are filled row by row; a candidate must match the piece to
    its left and the piece below. Raises :class:`LimitExceededError` when
    more than ``limit`` assemblies exist.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n = bag.n
    pieces = bag.pieces
    num = n * n
    order = positions_row_major(n)
    results: list[Assembly] = []
    chosen = [0] * num
    used = [False] * num

    def search(idx: int) -> None:
        if idx == num:
            results.append(Assembly({order[p]: chosen[p] for p in range(num)}))
            if len(results) > limit:
                raise LimitExceededError(limit)
            return
        i, _ = order[idx]
        left = pieces[chosen[idx - 1]].right if i > 1 else None
        below = pieces[chosen[idx - n]].up if idx >= n else None
        for pid in range(num):
            if used[pid]:
                continue
            piece = pieces[pid]
            if left is not None and piece.left != left:
                continue
            if below is not None and piece.down != below:
                continue
            used[pid] = True
            chosen[idx] = pid
            search(idx + 1)
            used[pid] = False

    search(0)
    return results


def uniqueness_report(puzzle: Puzzle, limit: int = DEFAULT_LIMIT) -> UniquenessReport:
    """Classify a tiny puzzle by exhausting its feasible assemblies.

    The bag is taken in planted order (piece id = canonical position
    index), so the planted assembly is the identity placement.
    """
    n = puzzle.n
    order = positions_row_major(n)
    slot = {v: ix for ix, v in enumerate(order)}
    bag = PieceBag(n, puzzle.q, tuple(pieces_row_major(puzzle)))
    assemblies = enumerate_feasible_assemblies(bag, limit)

    unique_edge = True
    for a in assemblies:
        for j in range(1, n + 1):
            for i in range(1, n):
                if bag.pieces[a.placement[(i, j)]].right != bag.pieces[slot[(i, j)]].right:
                    unique_edge = False
        for j in range(1, n):
            for i in range(1, n + 1):
                if bag.pieces[a.placement[(i, j)]].up != bag.pieces[slot[(i, j)]].up:
                    unique_edge = False
        if not unique_edge:
            break

    return UniquenessReport(
        num_feasible=len(assemblies),
        unique_vertex=len(assemblies) == 1,
        unique_edge=unique_edge,
    )


def brute_force_windows(bag: PieceBag, center: int, k: int = 1) -> list[WindowAssembly]:
    """Exhaustive enumeration of feasible windows with a given center.

    Window cells are filled row-major from the top-left, the center piece
    pinned in the middle; candidates are pruned against the left and upper
    neighbors by direct color comparison.
    """
    n = bag.n
    pieces = bag.pieces
    npieces = len(pieces)
    side = 2 * k + 1
    ncells = side * side
    mid = k * side + k
    RIGHT, UP, LEFT, DOWN = 0, 1, 2, 3

    # candidates prefiltered by one matching color; the other constraint
    # (when the slot has two placed neighbors) is checked directly
    by_left: defaultdict[int, list[int]] = defaultdict(list)
    by_up: defaultdict[int, list[int]] = defaultdict(list)
    for pid, piece in enumerate(pieces):
        by_left[piece[LEFT]].append(pid)
        by_up[piece[UP]].append(pid)
    everyone = list(range(npieces))

    # slot s holds window cell (x, y) with x = s % side - k, y = k - s // side
    results: list[WindowAssembly] = []
    chosen = [0] * ncells
    used = bytearray(npieces)
    make = WindowAssembly
    last = ncells - 1

    stack = [iter((center,) if mid == 0 else everyone)]
    slot = 0
    while stack:
        it = stack[-1]
        in_row = slot % side
        above_color = pieces[chosen[slot - side]][DOWN] if slot >= side else -1
        left_color = pieces[chosen[slot - 1]][RIGHT] if in_row else -1
        check_up = slot >= side and in_row  # left list is primary when both apply
        is_center = slot == mid
        for pid in it:
            if used[pid]:
                continue
            piece = pieces[pid]
            if is_center:
                if in_row and piece[LEFT] != left_color:
                    continue
                if slot >= side and piece[UP] != above_color:
                    continue
            elif check_up and piece[UP] != above_color:
                continue
            chosen[slot] = pid
            if slot == last:
                results.append(make(k, tuple(chosen)))
                continue
            used[pid] = 1
            slot += 1
            if slot == mid:
                nxt: tuple[int, ...] | list[int] = (center,)
            elif slot % side:
                nxt = by_left[pieces[pid][RIGHT]]
            else:
                nxt = by_up[pieces[chosen[slot - side]][DOWN]]
            stack.append(iter(nxt))
            break
        else:
            stack.pop()
            if not stack:
                break
            slot -= 1
            used[chosen[slot]] = 0

    return results
