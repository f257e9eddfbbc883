"""Reconstruction from candidate neighborhoods: join, guess, grow shells.

Given per-piece candidate statuses, mutually confirmed neighbor claims are
joined into rigid components. Each placement of a core-sized square that
covers the most cells of the largest component is tried in turn, growing
the periphery ring by ring from unique color matches. A solve succeeds only
when a complete placement passes the independent feasibility check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import STEPS, Assembly, Coord, PieceBag, is_feasible
from .windows import DEFAULT_BUDGET, BudgetExceededError, Candidates, candidate_neighborhoods


class ShellStuck(Exception):
    """A core guess cannot be completed; try the next one."""

    def __init__(self, shell: int, side: str, reason: str):
        super().__init__(f"stuck at shell {shell} ({side} side): {reason}")
        self.shell = shell
        self.side = side
        self.reason = reason


@dataclass(frozen=True)
class PartialAssembly:
    """A rigid component on the lattice, normalized to start at (0, 0)."""

    placement: dict[Coord, int]

    @property
    def size(self) -> int:
        return len(self.placement)


@dataclass(frozen=True)
class SolveOutcome:
    assembly: Assembly | None
    failure: str | None = None  # multiple_candidates | no_core_square | all_guesses_stuck | budget_exceeded
    guesses_tried: int = 0

    @property
    def solved(self) -> bool:
        return self.assembly is not None


def mutual_components(cands: Candidates) -> list[PartialAssembly]:
    """Rigid components of the stable mutual-adjacency relation.

    A directed claim counts only where every window of a piece names the
    same neighbor (for unique statuses: its neighborhood); a link needs
    both directions: piece ``p`` links to ``stable[p, d]`` when that
    piece's stable claim in direction ``d ^ 2`` is ``p``. With no
    multiple statuses this is exactly the unique-neighborhood join.
    Pieces are attached breadth first from the smallest unattached id; a
    link is dropped when its far piece is already attached or its cell is
    already taken. Components are normalized to start at (0, 0) and
    sorted largest first, then by smallest piece id.
    """
    stable = cands.stable
    far = np.maximum(stable, 0)  # a -1 claim reads piece 0 here and is masked below
    back = stable[far, [2, 3, 0, 1]]  # back[p, d] = stable[stable[p, d], d ^ 2]
    linked = np.where((stable >= 0) & (back == np.arange(len(stable))[:, None]), stable, -1)
    links = linked.tolist()
    lone = (linked < 0).all(axis=1).tolist()

    seen = bytearray(len(links))
    components: list[PartialAssembly] = []
    for root in range(len(links)):
        if seen[root]:
            continue
        seen[root] = 1
        if lone[root]:
            components.append(PartialAssembly({(0, 0): root}))
            continue
        cells: dict[Coord, int] = {(0, 0): root}
        queue = deque([(root, 0, 0)])
        while queue:
            pid, x, y = queue.popleft()
            for (dx, dy), other in zip(STEPS, links[pid]):
                if other < 0 or seen[other]:
                    continue
                pos = (x + dx, y + dy)
                if pos in cells:
                    continue
                cells[pos] = other
                seen[other] = 1
                queue.append((other, *pos))
        minx = min(x for x, _ in cells)
        miny = min(y for _, y in cells)
        components.append(PartialAssembly({(x - minx, y - miny): pid for (x, y), pid in cells.items()}))

    components.sort(key=lambda c: (-c.size, min(c.placement.values())))
    return components


def core_guesses(comp: PartialAssembly, n: int, k: int) -> list[Coord]:
    """Anchors of the core-sized squares covering the most component cells.

    An anchor is a square's bottom-left cell; anchors run x-major, then y.
    A fully occupied square wins whenever one exists. Otherwise the
    component carries holes where window evidence was ambiguous; the
    missing core pieces are recovered later by the shell rules (a hole
    specifies up to four free edges).
    """
    m = n - 2 * k
    if m < 1:
        raise ValueError("core size must be positive")
    cells = set(comp.placement)
    maxx = max(x for x, _ in cells)
    maxy = max(y for _, y in cells)
    best = 0
    anchors: list[Coord] = []
    for ax in range(0, max(maxx - m + 2, 1)):
        for ay in range(0, max(maxy - m + 2, 1)):
            cover = sum(
                1 for dx in range(m) for dy in range(m) if (ax + dx, ay + dy) in cells
            )
            if cover > best:
                best = cover
                anchors = [(ax, ay)]
            elif cover == best:
                anchors.append((ax, ay))
    return anchors


_SIDES = ("bottom", "right", "top", "left")


def _ring(cell: Coord, n: int, k: int) -> tuple[int, int, int]:
    """Shell, side index into ``_SIDES`` and position along the side.

    Shell k is the board's boundary ring and shell 1 the ring around the
    core; core cells get shell 0 or less, lower further in. A corner
    belongs to the first side containing it. Sorting cells by this key
    scans innermost rings first.
    """
    i, j = cell
    d = min(i - 1, j - 1, n - i, n - j)
    lo, hi = d + 1, n - d
    if j == lo:
        return k - d, 0, i
    if i == hi:
        return k - d, 1, j
    if j == hi:
        return k - d, 2, i
    return k - d, 3, j


def assemble_shells(
    bag: PieceBag,
    core: dict[Coord, int],
    remaining: list[int],
    n: int,
    k: int,
) -> Assembly:
    """Grow the periphery outward from a placed core, shell by shell.

    Two greedy rules alternate to a fixed point, innermost open cells
    first (so shells emerge in order):

    * fill: an open cell adjacent to at least two placed pieces takes the
      unique remaining piece matching all its specified free edges; cells
      with several matches wait for the pool to shrink; a cell with no
      match means the guess is wrong.
    * seed: when no fill makes progress, the free edges of placed pieces
      are scanned (innermost cell first, sides in right/up/left/down
      order) for a color occurring exactly once among all jigs of the
      remaining pieces; the piece holding it is placed if it matches
      every free edge of the cell.

    Raises :class:`ShellStuck` when neither rule applies and open cells
    remain.
    """
    pieces = bag.pieces
    placement = dict(core)
    square = {(i, j) for i in range(k + 1, n - k + 1) for j in range(k + 1, n - k + 1)}
    if not core or not set(core) <= square:
        raise ValueError("core must sit inside the central square")
    if len(remaining) + len(core) != n * n or set(remaining) & set(core.values()):
        raise ValueError("remaining pieces must be exactly the unplaced ids")
    pool = _Pool(pieces, bag.q, remaining)

    def stuck(cell: Coord, reason: str) -> ShellStuck:
        shell, side, _ = _ring(cell, n, k)
        return ShellStuck(max(shell, 0), _SIDES[side], reason)

    open_cells = sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if (i, j) not in placement),
        key=lambda cell: _ring(cell, n, k),
    )

    while open_cells:
        progress = False
        still_open: list[Coord] = []
        for cell in open_cells:
            wanted = _free_edges(pieces, placement, cell)
            if len(wanted) < 2:
                still_open.append(cell)  # fewer than two free edges specified
                continue
            matches = pool.matches(wanted)
            if len(matches) == 0:
                raise stuck(cell, "no matching piece")
            if len(matches) > 1:
                still_open.append(cell)
                continue
            placement[cell] = matches[0]
            pool.take(matches[0])
            progress = True
        open_cells = still_open
        if progress or not open_cells:
            continue

        seeded = _seed_any(pieces, placement, pool, open_cells)
        if seeded is None:
            raise stuck(open_cells[0], "no unique fill or seed")
        open_cells.remove(seeded)

    assert not any(pool.free), "every piece must be placed"
    return Assembly(placement)


def _free_edges(pieces: tuple, placement: dict[Coord, int], cell: Coord) -> list[tuple[int, int]]:
    """``(side, color)`` for each placed neighbor of ``cell``.

    A piece placed in ``cell`` must carry ``color`` on ``side``: the
    neighbor across side ``d`` shows it on its side ``d ^ 2``.
    """
    x, y = cell
    out = []
    for d, (dx, dy) in enumerate(STEPS):
        pid = placement.get((x + dx, y + dy))
        if pid is not None:
            out.append((d, pieces[pid][d ^ 2]))
    return out


class _Pool:
    """The unplaced pieces, indexed by side color and counted by jig color.

    ``by_side[side * (q + 1) + color]`` lists, ascending, the ids of the
    pool's pieces with ``color`` on ``side``; placed ids stay listed and
    are skipped through ``free``. ``jigs[color]`` counts the jigs of that
    color over the unplaced pieces.
    """

    def __init__(self, pieces: tuple, q: int, ids: list[int]):
        self.pieces = pieces
        self.stride = q + 1
        self.free = bytearray(len(pieces))
        self.by_side: dict[int, list[int]] = {}
        self.jigs: dict[int, int] = {}
        for pid in sorted(ids):
            self.free[pid] = 1
            for d, c in enumerate(pieces[pid]):
                self.by_side.setdefault(d * self.stride + c, []).append(pid)
                self.jigs[c] = self.jigs.get(c, 0) + 1

    def take(self, pid: int) -> None:
        self.free[pid] = 0
        for c in self.pieces[pid]:
            self.jigs[c] -= 1

    def matches(self, wanted: list[tuple[int, int]]) -> list[int]:
        """Unplaced ids, ascending, carrying every ``(side, color)`` of ``wanted``."""
        d0, c0 = wanted[0]
        pieces, free = self.pieces, self.free
        return [
            pid
            for pid in self.by_side.get(d0 * self.stride + c0, ())
            if free[pid] and all(pieces[pid][d] == c for d, c in wanted)
        ]

    def lone_holder(self, color: int) -> int | None:
        """The unplaced piece holding ``color``, if exactly one jig has it."""
        if self.jigs.get(color) != 1:
            return None
        for d in range(4):
            for pid in self.by_side.get(d * self.stride + color, ()):
                if self.free[pid]:
                    return pid
        raise AssertionError("a counted jig must be indexed")


def _seed_any(
    pieces: tuple,
    placement: dict[Coord, int],
    pool: _Pool,
    open_cells: list[Coord],
) -> Coord | None:
    """Seed one open cell from a free edge with a unique color.

    Scans open cells in order, and each cell's free edges in side order.
    A color counted exactly once over all jigs of the remaining pieces
    identifies one piece; it is placed if it matches every free edge of
    the cell (so in particular the lone occurrence faces the edge).
    """
    for cell in open_cells:
        wanted = _free_edges(pieces, placement, cell)
        for _, color in wanted:
            pid = pool.lone_holder(color)
            if pid is not None and all(pieces[pid][d] == c for d, c in wanted):
                placement[cell] = pid
                pool.take(pid)
                return cell
    return None


def solve(
    bag: PieceBag,
    n: int,
    k: int,
    budget: int = DEFAULT_BUDGET,
    candidates: Candidates | None = None,
) -> SolveOutcome:
    """Full reconstruction pipeline over a shuffled bag.

    Mutually confirmed claims are joined, and every best-covering core
    square of the largest component (see :func:`core_guesses`) is grown
    in turn until one yields a feasible assembly. Pieces with several
    candidate neighborhoods mark the puzzle as ambiguous; joining then
    relies only on direction claims shared by all of a piece's windows,
    and if the pipeline still cannot finish, the outcome is
    ``Failed(multiple_candidates)``. A returned assembly always
    passes the independent feasibility check. Precomputed ``candidates``
    (from :func:`jigsolve.windows.candidate_neighborhoods`) may be
    supplied to avoid re-enumerating windows.
    """
    if len(bag.pieces) != n * n:
        raise ValueError("bag size must be n^2")
    if k < 1 or 2 * k >= n:
        raise ValueError("need 1 <= k < n/2")

    if candidates is None:
        try:
            candidates = candidate_neighborhoods(bag, k, budget)
        except BudgetExceededError:
            return SolveOutcome(None, "budget_exceeded")

    # A piece with several candidate neighborhoods fails step 1 as stated.
    # Recovery still joins on direction claims that are constant across
    # all of a piece's windows and mutually confirmed; if that pipeline
    # cannot finish, the step-1 verdict is reported.
    multiples = bool(candidates.multiple.any())

    components = mutual_components(candidates)
    largest = components[0]
    guesses = core_guesses(largest, n, k)

    m = n - 2 * k
    all_pids = set(range(n * n))
    for tried, (ax, ay) in enumerate(guesses, start=1):
        core = {}
        for dx in range(m):
            for dy in range(m):
                pid = largest.placement.get((ax + dx, ay + dy))
                if pid is not None:
                    core[(k + 1 + dx, k + 1 + dy)] = pid
        remaining = sorted(all_pids - set(core.values()))
        try:
            assembly = assemble_shells(bag, core, remaining, n, k)
        except ShellStuck:
            continue
        if is_feasible(bag, assembly):
            return SolveOutcome(assembly, guesses_tried=tried)
    # every guess covers equally many cells, so the last core tells
    if multiples:
        reason = "multiple_candidates"
    elif len(core) == m * m:
        reason = "all_guesses_stuck"
    else:
        reason = "no_core_square"
    return SolveOutcome(None, reason, guesses_tried=len(guesses))
