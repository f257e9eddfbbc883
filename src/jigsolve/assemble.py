"""Reconstruction from candidate neighborhoods: join, guess, grow shells.

Given per-piece candidate statuses, mutually confirmed neighbor claims are
joined into rigid components. Each placement of a core-sized square that
covers the most cells of the largest component is tried in turn, growing
the periphery ring by ring from forced placements. A solve succeeds only
when a complete placement passes the independent feasibility check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DOWN, LEFT, STEPS, Assembly, Coord, PieceBag, check_radius, is_feasible
from .windows import DEFAULT_BUDGET, BudgetExceededError, Candidates, candidate_neighborhoods


class ShellStuck(Exception):
    """A core guess cannot be completed; try the next one."""

    def __init__(self, shell: int, side: str, reason: str):
        super().__init__(f"stuck at shell {shell} ({side} side): {reason}")
        self.shell = shell
        self.side = side
        self.reason = reason


@dataclass(frozen=True, eq=False)
class PartialAssembly:
    """A rigid component on the lattice, normalized to start at (0, 0):
    piece ``pid[c]`` sits at cell ``(x[c], y[c])``; :func:`mutual_components`
    lists the ids ascending."""

    pid: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def size(self) -> int:
        return len(self.pid)


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

    A union-find over the right and up links places each piece relative
    to a root of its graph component (see :func:`_union_find`). A graph
    component is joined when those places agree with every link and no
    two of its pieces share a cell; otherwise it is left out, as is every
    piece with no link. Neither test, nor anything returned, depends on
    which piece is the root. Components start at (0, 0), list their ids
    ascending, and are sorted largest first, then by smallest id.
    """
    stable = cands.stable
    num = len(stable)
    # every right claim, then every up claim, is a link when the far
    # piece's left or down claim names it back: each link once, from its
    # left or lower end
    ahead = stable[:, :2].T.ravel()
    # a -1 claim reads piece 0 and is masked
    back = stable.ravel()[np.maximum(ahead, 0) * 4 + np.repeat([LEFT, DOWN], num)]
    at = np.flatnonzero((ahead >= 0) & (back == np.tile(np.arange(num), 2)))
    src, dst = at % num, ahead[at]
    # a cell (x, y) relative to a root is packed as x * width + y, so cells add
    width = 2 * num + 1
    step = np.where(at < num, width, 1)
    root, off = _union_find(num, src, dst, step)
    # a graph component is rigid when every link steps where the union-find
    # put its far piece and no two pieces share a cell
    bad = np.zeros(num, dtype=bool)
    bad[root[src[off[dst] - off[src] != step]]] = True

    linked = np.zeros(num, dtype=bool)
    linked[src] = linked[dst] = True
    members = np.flatnonzero(linked)
    pid = members[np.argsort(root[members], kind="stable")]  # grouped by root, ascending within
    home = root[pid]
    starts = np.flatnonzero(np.diff(home, prepend=-1))
    sizes = np.diff(starts, append=len(pid))
    x = (off[pid] + width // 2) // width  # |y| <= width // 2, so this rounds to x
    y = off[pid] - x * width
    x -= np.repeat(np.minimum.reduceat(x, starts), sizes)
    y -= np.repeat(np.minimum.reduceat(y, starts), sizes)
    # a tree of s pieces spans at most s columns and s rows, so x * s + y
    # numbers its cells; each component's numbers start past those before
    area = sizes * sizes
    cell = np.repeat(np.cumsum(area) - area, sizes) + x * np.repeat(sizes, sizes) + y
    ranked = np.argsort(cell)
    bad[home[ranked[1:][cell[ranked[1:]] == cell[ranked[:-1]]]]] = True

    good = np.flatnonzero(~bad[home[starts]])
    spans = [slice(starts[c], starts[c] + sizes[c]) for c in good[np.lexsort((pid[starts[good]], -sizes[good]))]]
    return [PartialAssembly(pid[at], x[at], y[at]) for at in spans]


def _union_find(num: int, src: np.ndarray, dst: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's root in its graph component under the links
    ``src -> dst``, and its packed place relative to that root when each
    link moves by ``step``, along a spanning tree of the links.

    The forest starts with every node that a link from another node
    reaches hanging off one such link, so its parent and offset come from
    the same link. Pointer jumping then takes each node to the end of its
    chain in at most ``num.bit_length()`` rounds; a node whose chain never
    ends sits on or under a cycle of chosen links and starts alone at
    offset 0. Hook and jump joins the trees left: each round, every link
    between two trees hooks the larger root onto the smaller, one link
    winning per hooked root; hooked roots jump to their new roots, then
    every node to its root's. A component in which a link reaches every
    piece but one, such as a complete rectangle, is one tree from the
    start, and no link lies between trees.
    """
    par = np.arange(num)
    off = np.zeros(num, dtype=np.int64)
    slot = np.empty(num, dtype=np.int64)
    # which write wins, here and in each hook, does not matter: a rigid
    # component's places do not depend on the tree
    links = np.arange(len(dst))
    slot[dst] = links
    won = np.flatnonzero((slot[dst] == links) & (src != dst))
    kids = dst[won]
    par[kids] = src[won]
    off[kids] = step[won]
    hung = np.zeros(num, dtype=bool)
    hung[kids] = True
    for _ in range(num.bit_length()):
        off += off[par]
        par = par[par]
    lost = np.flatnonzero(hung[par])  # a chain that ends, ends at a node hanging off nothing
    par[lost] = lost
    off[lost] = 0
    while True:
        ra, rb = par[src], par[dst]
        cross = np.flatnonzero(ra != rb)  # integer indices: masks over scattered hits are slower
        if not len(cross):
            return par, off
        src, dst, step, ra, rb = src[cross], dst[cross], step[cross], ra[cross], rb[cross]
        gap = off[src] + step - off[dst]  # the place of rb relative to ra
        hi = np.maximum(ra, rb)
        slot[hi] = np.arange(len(hi))
        won = np.flatnonzero(slot[hi] == np.arange(len(hi)))
        hooked = hi[won]
        par[hooked] = np.minimum(ra, rb)[won]
        off[hooked] = np.where(rb > ra, gap, -gap)[won]
        while len(hooked):
            up = par[hooked]
            moving = np.flatnonzero(par[up] != up)
            hooked, up = hooked[moving], up[moving]
            off[hooked] += off[up]
            par[hooked] = par[up]
        off += off[par]
        par = par[par]


def core_guesses(comp: PartialAssembly, n: int, k: int) -> list[Coord]:
    """Anchors of the core-sized squares covering the most component cells.

    An anchor is a square's bottom-left cell; anchors run x-major, then y,
    over every square that stays within the component's columns and rows
    (just the square at (0, 0) along an axis narrower than the core). A
    fully occupied square wins whenever one exists. Otherwise the
    component carries holes where window evidence was ambiguous; the
    missing core pieces are recovered later by the shell rule (a hole
    specifies up to four free edges).
    """
    check_radius(n, k)
    m = n - 2 * k
    width = max(int(comp.x.max()) + 1, m)
    height = max(int(comp.y.max()) + 1, m)
    # total[a, b] counts the cells with x < a and y < b
    total = np.zeros((width + 1, height + 1), dtype=np.int64)
    total[comp.x + 1, comp.y + 1] = 1
    total = total.cumsum(axis=0).cumsum(axis=1)
    cover = total[m:, m:] - total[:-m, m:] - total[m:, :-m] + total[:-m, :-m]
    ax, ay = np.nonzero(cover == cover.max())
    return list(zip(ax.tolist(), ay.tolist()))


_SIDES = ("bottom", "right", "top", "left")


def _ring(i: np.ndarray, j: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shell, side index into ``_SIDES`` and position along the side of
    each position ``(i[c], j[c])``.

    Shell k is the board's boundary ring and shell 1 the ring around the
    core; core cells get shell 0 or less, lower further in. A corner
    belongs to the first side containing it. Sorting cells by this key
    scans innermost rings first.
    """
    d = np.minimum(np.minimum(i - 1, j - 1), np.minimum(n - i, n - j))
    side = np.select([j == d + 1, i == n - d, j == n - d], [0, 1, 2], 3)
    return k - d, side, np.where(side % 2 == 0, i, j)


def assemble_shells(bag: PieceBag, partial: np.ndarray, k: int) -> Assembly:
    """Grow the periphery outward from a core placed on an (n, n) grid.

    ``partial`` holds piece ids like :attr:`Assembly.grid`, with -1 for
    every open cell; the placed ids must be distinct and lie in the
    central square. The unplaced pieces are indexed by side and color:
    each (side, color) maps to the pieces holding that color on that
    side, and placed ids are skipped through a free flag. A cell reads
    its neighbors' colors from the placed pieces around it.

    One rule runs to a fixed point, scanning the open cells innermost
    first (so shells emerge in order): a cell with at least one placed
    neighbor takes the free piece matching the colors of all its placed
    neighbors when exactly one does, and waits while several do; a cell
    no free piece matches means the guess is wrong.

    Every placement is the only free piece that fits. So when some grid
    whose adjacent edges all match agrees with every placed piece, each
    placement agrees with it too: from a correct core the result is the
    planted grid or :class:`ShellStuck`, never a wrong grid. The same
    holds against any rule that places only forced pieces, such as one
    that waits for two placed neighbors or one that places the only free
    piece holding a color: at the first of its moves that this rule has
    not made, this rule sees fewer free pieces and more placed neighbors,
    so that single match stands. Whatever such a rule completes, this one
    completes to the same grid; only the order of placements can differ.

    Raises :class:`ShellStuck` when a cell has no match, or when a pass
    places nothing while open cells remain.
    """
    n = bag.n
    partial = np.asarray(partial)
    if partial.shape != (n, n):
        raise ValueError(f"the partial grid must be {n} x {n}")
    held = partial >= 0
    square = np.zeros((n, n), dtype=bool)
    square[k : n - k, k : n - k] = True
    if not held.any() or (held & ~square).any():
        raise ValueError("core must sit inside the central square")
    placed = partial[held]
    if (partial < -1).any() or placed.max() >= n * n or np.bincount(placed).max() > 1:
        raise ValueError(f"placed pieces must be distinct ids in [0..{n * n - 1}]")

    unplaced = np.ones(n * n, dtype=bool)
    unplaced[placed] = False
    free = bytearray(unplaced)
    colors = dict(zip(np.flatnonzero(unplaced).tolist(), bag.colors[unplaced].tolist()))
    holders: tuple[dict[int, list[int]], ...] = ({}, {}, {}, {})  # per side: color -> pieces
    for pid, row in colors.items():
        for d, c in enumerate(row):
            holders[d].setdefault(c, []).append(pid)

    # the board inside a border of open cells, flat: cell j * (n + 2) + i is
    # position (i, j); ``shows[at]`` holds the colors of the piece placed
    # there, set for every placed piece with a neighbor cell open or off the board
    width = n + 2
    filled = np.zeros((width, width), dtype=bool)
    filled[1:-1, 1:-1] = held
    enclosed = filled[1:-1, 2:] & filled[2:, 1:-1] & filled[1:-1, :-2] & filled[:-2, 1:-1]
    js, is_ = np.nonzero(held & ~enclosed)
    shows: list[list[int] | None] = [None] * (width * width)
    for at, row in zip(((js + 1) * width + is_ + 1).tolist(), bag.colors[partial[js, is_]].tolist()):
        shows[at] = row
    # (side, step, opposite): the neighbor across a cell's side shows its color on the opposite side
    around = [(d, di + dj * width, d ^ 2) for d, (di, dj) in enumerate(STEPS)]

    js, is_ = np.nonzero(~held)
    shell, side, along = _ring(is_ + 1, js + 1, n, k)
    open_cells = ((js + 1) * width + is_ + 1)[np.lexsort((along, side, shell))].tolist()
    put_at: list[int] = []
    put_pid: list[int] = []

    def stuck(at: int, reason: str) -> ShellStuck:
        shell, side, _ = _ring(at % width, at // width, n, k)
        return ShellStuck(max(int(shell), 0), _SIDES[int(side)], reason)

    while open_cells:
        waiting = None  # the first cell with several matches
        still_open: list[int] = []
        for at in open_cells:
            wanted = [(d, row[o]) for d, step, o in around if (row := shows[at + step]) is not None]
            if wanted:
                d0, c0 = wanted[0]
                matches = [
                    pid for pid in holders[d0].get(c0, ()) if free[pid] and all(colors[pid][d] == c for d, c in wanted)
                ]
                if not matches:
                    raise stuck(at, "no matching piece")
                if len(matches) == 1:
                    pid = matches[0]
                    shows[at] = colors[pid]
                    free[pid] = 0
                    put_at.append(at)
                    put_pid.append(pid)
                    continue
                if waiting is None:
                    waiting = at
            still_open.append(at)
        if len(still_open) == len(open_cells):
            # some open cell borders a placed one, so a pass that places nothing has one waiting
            raise stuck(waiting, "no cell is forced")
        open_cells = still_open

    assert not any(free), "every piece must be placed"
    grid = partial.copy()
    at = np.array(put_at, dtype=np.int64)
    grid[at // width - 1, at % width - 1] = put_pid
    return Assembly(grid)


def solve(
    bag: PieceBag,
    k: int,
    budget: int = DEFAULT_BUDGET,
    candidates: Candidates | None = None,
) -> SolveOutcome:
    """Full reconstruction pipeline over a shuffled bag.

    Mutually confirmed claims are joined, and every best-covering core
    square of the largest component (see :func:`core_guesses`) is grown
    in turn until one yields a feasible assembly; when nothing joins,
    no core is guessed. Pieces with several
    candidate neighborhoods mark the puzzle as ambiguous; joining then
    relies only on direction claims shared by all of a piece's windows,
    and if the pipeline still cannot finish, its failure is
    ``"multiple_candidates"``. A returned assembly always passes the
    independent feasibility check. Precomputed ``candidates`` (from
    :func:`jigsolve.windows.candidate_neighborhoods`) may be supplied to
    avoid re-enumerating windows.
    """
    n = bag.n
    check_radius(n, k)

    if candidates is None:
        try:
            candidates = candidate_neighborhoods(bag, k, budget)
        except BudgetExceededError:
            return SolveOutcome(None, "budget_exceeded")
    if len(candidates.windows) != n * n:
        raise ValueError(f"candidates cover {len(candidates.windows)} pieces; the bag holds {n * n}")

    # A piece with several candidate neighborhoods fails step 1 as stated.
    # Recovery still joins on direction claims that are constant across
    # all of a piece's windows and mutually confirmed; if that pipeline
    # cannot finish, the step-1 verdict is reported.
    multiples = bool(candidates.multiple.any())

    components = mutual_components(candidates)
    guesses = core_guesses(components[0], n, k) if components else []

    m = n - 2 * k
    exact = False  # every guess covers equally many cells, so any one tells
    for tried, (ax, ay) in enumerate(guesses, start=1):
        # the square's cells of the component, moved onto the board's central square
        largest = components[0]
        x, y = largest.x - ax, largest.y - ay
        inside = (x >= 0) & (x < m) & (y >= 0) & (y < m)
        exact = inside.sum() == m * m
        partial = np.full((n, n), -1, dtype=np.int64)
        partial[y[inside] + k, x[inside] + k] = largest.pid[inside]
        try:
            assembly = assemble_shells(bag, partial, k)
        except ShellStuck:
            continue
        if is_feasible(bag, assembly):
            return SolveOutcome(assembly, guesses_tried=tried)
    if multiples:
        reason = "multiple_candidates"
    elif exact:
        reason = "all_guesses_stuck"
    else:
        reason = "no_core_square"
    return SolveOutcome(None, reason, guesses_tried=len(guesses))
