import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigsolve import assemble
from jigsolve.assemble import (
    ShellStuck,
    assemble_shells,
    core_guesses,
    mutual_components,
    solve,
)
from jigsolve.gen import generate
from jigsolve.grid import disassemble, is_feasible, positions_row_major
from jigsolve.oracle import LimitExceededError, enumerate_feasible_assemblies
from jigsolve.windows import candidate_neighborhoods
from helpers import claimed_candidates, component, component_cells


def test_join_all_none_gives_nothing():
    assert mutual_components(claimed_candidates(9, {})) == []


def test_join_mutual_pair():
    # 0 sits left of 1; both confirm each other
    cands = claimed_candidates(10, {0: (1, 7, 8, 9), 1: (6, 5, 0, 4)})
    comps = mutual_components(cands)
    assert comps[0].size == 2
    assert component_cells(comps[0]) == {(0, 0): 0, (1, 0): 1}


def test_join_one_directional_claim_ignored():
    # 1 does not name 0 as its left
    cands = claimed_candidates(10, {0: (1, 7, 8, 9), 1: (6, 5, 3, 4)})
    assert mutual_components(cands) == []


def test_join_offset_conflict():
    # two mutual paths derive different pieces at the same cell:
    # 0-R->1-U->2 puts 2 at (1,1); 0-U->3-R->4 puts 4 there too
    cands = claimed_candidates(
        92,
        {
            0: (1, 3, 80, 81),
            1: (82, 2, 0, 83),
            2: (84, 85, 86, 1),
            3: (4, 87, 88, 0),
            4: (89, 90, 3, 91),
        },
    )
    # the component is not rigid, so none of its pieces is joined
    assert mutual_components(cands) == []


def test_join_leaves_a_generated_conflict_unjoined():
    # the one generated bag seen whose mutual links do not form a rigid component
    n, k = 6, 1
    bag, _ = disassemble(generate(n, 15, 1), 2)
    cands = candidate_neighborhoods(bag, k)
    conflicted = [p for cells, rigid in link_components(cands) if not rigid for p in cells]
    assert len(conflicted) == 17
    assert mutual_components(cands) == []  # the conflicted pieces are all the linked ones
    assert solve(bag, k, candidates=cands).failure == "multiple_candidates"


def test_join_long_chain_beside_a_square():
    # a straight chain of right links over nearly every id, its smallest id
    # 20 cells from the left end so places run both ways, beside a 2x2
    # square: both are rigid and both join
    num = 300
    ids = np.random.default_rng(5).permutation(num).tolist()
    chain, square = ids[:296], ids[296:]
    claims = {p: [-1, -1, -1, -1] for p in ids}
    for left, right in zip(chain, chain[1:]):
        claims[left][0], claims[right][2] = right, left
    a, b, c, d = square  # a and b sit above c and d
    for low, high in ((c, a), (d, b)):
        claims[low][1], claims[high][3] = high, low
    for left, right in ((a, b), (c, d)):
        claims[left][0], claims[right][2] = right, left
    comps = mutual_components(claimed_candidates(num, claims))
    assert [comp.size for comp in comps] == [296, 4]
    assert component_cells(comps[0]) == {(x, 0): p for x, p in enumerate(chain)}
    assert component_cells(comps[1]) == {(0, 0): c, (1, 0): d, (0, 1): a, (1, 1): b}


def link_components(cands):
    """Each component of the mutual-link graph, in order of its smallest id,
    as its pieces' cells (a dict, placed breadth first from that id at
    (0, 0)) and whether it is rigid: every link steps where its far piece
    was placed and no two pieces share a cell."""
    stable = cands.stable.tolist()
    links = {}
    for p, row in enumerate(stable):
        row = [o if o >= 0 and stable[o][d ^ 2] == p else -1 for d, o in enumerate(row)]
        if max(row) >= 0:
            links[p] = row
    placed, out = set(), []
    for first in sorted(links):
        if first in placed:
            continue
        cells, rigid = {first: (0, 0)}, True
        queue = [first]
        for p in queue:  # the list is the queue: iteration sees what is appended
            x, y = cells[p]
            for (dx, dy), o in zip(((1, 0), (0, 1), (-1, 0), (0, -1)), links[p]):
                if o < 0:
                    continue
                if o not in cells:
                    cells[o] = (x + dx, y + dy)
                    queue.append(o)
                elif cells[o] != (x + dx, y + dy):
                    rigid = False
        placed.update(cells)
        out.append((cells, rigid and len(set(cells.values())) == len(cells)))
    return out


def expected_components(cands):
    """The join's result by :func:`link_components`, in ``mutual_components``
    order, each component as a set of (pid, x, y): the rigid components,
    each starting at (0, 0)."""
    comps = []
    for cells, rigid in link_components(cands):
        if rigid:
            low_x, low_y = min(x for x, _ in cells.values()), min(y for _, y in cells.values())
            comps.append({(p, x - low_x, y - low_y) for p, (x, y) in cells.items()})
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


@st.composite
def corrupted_claims(draw, mode):
    """Claims of planted lattices with holes, on shuffled ids, plus one
    corruption: ``clean``, ``one_directional`` (claims naming a piece
    that never claims back), ``conflict`` (the offset-conflict gadget),
    ``ring`` (a closed ring of right links, a single piece linking to
    itself at size 1, with a chain of up links hanging from one ring
    piece, so that pieces sit under a cycle) or ``teleport`` (a mutual
    link between two lattice pieces). Returns the number of pieces, the
    claims, each lattice piece's (lattice, x, y) and the gadget's ids."""
    cells = []  # (lattice, x, y) of every piece; None for the extra pieces
    for lattice in range(draw(st.integers(1, 3))):
        w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        cells += [(lattice, x, y) for x in range(w) for y in range(h) if draw(st.integers(0, 9)) > 0]
    size, tail = (draw(st.integers(1, 4)), draw(st.integers(0, 3))) if mode == "ring" else (0, 0)
    gadget = {"conflict": 5, "ring": size + tail}.get(mode, 0)
    num = len(cells) + gadget + 1  # the last piece never claims
    ids = draw(st.permutations(range(num)))
    at = {cell: ids[c] for c, cell in enumerate(cells)}
    silent = {ids[c] for c in range(len(cells)) if draw(st.integers(0, 7)) == 0}  # holes with a piece
    claims = {}
    for (lattice, x, y), pid in at.items():
        if pid not in silent:
            claims[pid] = [at.get((lattice, x + dx, y + dy), -1) for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    extra = ids[len(cells) : len(cells) + gadget]
    if mode == "conflict":
        p0, p1, p2, p3, p4 = extra  # 0-R->1-U->2 and 0-U->3-R->4 put 2 and 4 on one cell
        claims.update(
            {p0: [p1, p3, -1, -1], p1: [-1, p2, p0, -1], p2: [-1, -1, -1, p1], p3: [p4, -1, -1, p0], p4: [-1, -1, p3, -1]}
        )
    elif mode == "ring":
        ring, chain = extra[:size], extra[size - 1 :]
        for c, pid in enumerate(ring):
            claims[pid] = [ring[(c + 1) % size], -1, ring[c - 1], -1]
        for low, high in zip(chain, chain[1:]):
            claims[high] = [-1, -1, -1, low]
            claims[low][1] = high
    elif claims and mode in ("one_directional", "teleport"):
        talkers = sorted(claims)
        for _ in range(draw(st.integers(1, 3))):
            a, d = draw(st.sampled_from(talkers)), draw(st.integers(0, 3))
            if mode == "one_directional":
                claims[a][d] = ids[-1]
            else:
                b = draw(st.sampled_from(talkers))
                claims[a][d], claims[b][d ^ 2] = b, a
    return num, claims, {pid: cell for cell, pid in at.items()}, extra


@pytest.mark.parametrize("mode", ["clean", "one_directional", "conflict", "ring", "teleport"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_join_matches_breadth_first_walk(mode, data):
    num, claims, home, gadget = data.draw(corrupted_claims(mode))
    cands = claimed_candidates(num, claims)
    comps = mutual_components(cands)
    assert [set(zip(c.pid.tolist(), c.x.tolist(), c.y.tolist())) for c in comps] == expected_components(cands)
    assert all(c.size > 1 and (np.diff(c.pid) > 0).all() for c in comps)
    # a gadget that closes a cycle off the lattice is never joined
    assert not {p for c in comps for p in c.pid.tolist()} & set(gadget)
    # the union-find behind the join: every root is its own root at place 0,
    # one root per link component, and a rigid component's links step as placed
    stable = cands.stable.tolist()
    links = [(p, o, d) for p, row in enumerate(stable) for d in (0, 1) if (o := row[d]) >= 0 and stable[o][d + 2] == p]
    src, dst, side = np.array(links, dtype=np.int64).reshape(-1, 3).T
    width = 2 * num + 1
    root, off = assemble._union_find(num, src, dst, np.where(side == 0, width, 1))
    assert (root[root] == root).all() and (off[root] == 0).all()
    linked = link_components(cands)
    roots = [{root[p] for p in cells} for cells, _ in linked]
    assert all(len(r) == 1 for r in roots) and len(set().union(*roots)) == len(roots)
    rigid = {p for cells, ok in linked if ok for p in cells}
    assert all(off[b] - off[a] == (width if d == 0 else 1) for a, b, d in links if a in rigid)
    if mode == "clean":  # each component sits as planted, up to a translation
        assert sum(c.size for c in comps) == sum(len(cells) for cells, _ in linked)
        for c in comps:
            lattice, hx, hy = zip(*(home[p] for p in c.pid.tolist()))
            assert len(set(lattice)) == 1
            assert len(set(zip(np.subtract(hx, c.x).tolist(), np.subtract(hy, c.y).tolist()))) == 1


def planted_claims(n, seed, shuffle_seed):
    # hand-built planted unique statuses: interior pieces name their true neighbors
    bag, planted = disassemble(generate(n, 10**6, seed=seed), shuffle_seed)
    placement = planted.placement
    claims = {}
    for v in positions_row_major(n):
        neighbors = [placement.get((v[0] + dx, v[1] + dy)) for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        if None not in neighbors:
            claims[placement[v]] = neighbors
    return bag, planted, claims


def test_solve_on_planted_grid_candidates():
    n = 4
    bag, planted, claims = planted_claims(n, 2, 21)
    out = solve(bag, 1, candidates=claimed_candidates(n * n, claims))
    assert out.solved
    assert out.assembly.placement == planted.placement


def test_solve_guesses_nothing_when_nothing_joins(monkeypatch):
    # at n=5, k=2 the core is the one centre piece: its window is the whole
    # board, so its status is unique, but it has no partner to link with
    n, k = 5, 2
    bag, planted = disassemble(generate(n, n * n, 0), 1)
    cands = candidate_neighborhoods(bag, k)
    assert cands.unique[planted.grid[2, 2]] and not cands.multiple.any()
    assert mutual_components(cands) == []

    def grow(*args):
        raise AssertionError("no core was joined, so no shell may grow")

    monkeypatch.setattr(assemble, "assemble_shells", grow)
    out = solve(bag, k, candidates=cands)
    assert (out.assembly, out.failure, out.guesses_tried) == (None, "no_core_square", 0)


@pytest.mark.parametrize("hole", [(3, 3), (2, 2), (5, 5)])
def test_solve_best_cover_core_with_hole(hole):
    # one core piece without a window: no fully occupied core square exists,
    # so solve grows from the best-covering square and fills the hole
    n = 6
    bag, planted, claims = planted_claims(n, 2, 21)
    del claims[planted.placement[hole]]
    cands = claimed_candidates(n * n, claims)
    largest = mutual_components(cands)[0]
    assert largest.size == (n - 2) ** 2 - 1
    assert core_guesses(largest, n, 1) == [(0, 0)]
    out = solve(bag, 1, candidates=cands)
    assert out.solved
    assert out.assembly.placement == planted.placement


def test_core_guess_counts():
    square = component({(x, y): x * 4 + y for x in range(4) for y in range(4)})
    assert core_guesses(square, 6, 1) == [(0, 0)]
    rect = component({(x, y): x * 4 + y for x in range(5) for y in range(4)})
    assert core_guesses(rect, 6, 1) == [(0, 0), (1, 0)]
    assert core_guesses(square, 6, 2) != []  # 2x2 squares inside a 4x4 block
    missing = {(x, y): x * 4 + y for x in range(4) for y in range(4)}
    del missing[(1, 1)]
    assert core_guesses(component(missing), 6, 1) == [(0, 0)]  # covers 15 of 16


@given(
    cells=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=60),
    n=st.integers(3, 12),
    k=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_core_guesses_match_direct_count(cells, n, k):
    # prefix-sum cover against counting each anchor's square cell by cell,
    # on cell sets with holes and on components narrower than the core
    m = n - 2 * k
    if m < 1:
        with pytest.raises(ValueError):
            core_guesses(component({c: ix for ix, c in enumerate(sorted(cells))}), n, k)
        return
    comp = component({c: ix for ix, c in enumerate(sorted(cells))})
    maxx = max(x for x, _ in cells)
    maxy = max(y for _, y in cells)
    covers = {
        (ax, ay): sum((ax + dx, ay + dy) in cells for dx in range(m) for dy in range(m))
        for ax in range(max(maxx - m + 2, 1))
        for ay in range(max(maxy - m + 2, 1))
    }
    best = max(covers.values())
    expected = sorted(anchor for anchor, cover in covers.items() if cover == best)  # x-major, then y
    assert core_guesses(comp, n, k) == expected


def test_core_guess_count_bound():
    # never more than (2k)^2 options on solve-sized components
    for seed in range(5):
        n, q = 8, 4096
        p = generate(n, q, seed=seed)
        bag, _ = disassemble(p, seed)
        comps = mutual_components(candidate_neighborhoods(bag, 1))
        guesses = core_guesses(comps[0], n, 1)
        assert len(guesses) <= 4


def test_assemble_shells_k0_returns_core():
    n = 3
    p = generate(n, 9, seed=1)
    bag, planted = disassemble(p, 5)
    out = assemble_shells(bag, planted.grid, 0)
    assert out.placement == planted.placement


def test_assemble_shells_correct_core_recovers():
    n, k = 6, 1
    p = generate(n, 10**6, seed=7)
    bag, planted = disassemble(p, 3)
    partial = np.full((n, n), -1)
    partial[k : n - k, k : n - k] = planted.grid[k : n - k, k : n - k]
    out = assemble_shells(bag, partial, k)
    assert out.placement == planted.placement


def test_assemble_shells_wrong_core_sticks():
    n, k = 6, 1
    p = generate(n, 10**6, seed=8)
    bag, planted = disassemble(p, 4)
    # translate the core by one: a wrong guess
    partial = np.full((n, n), -1)
    partial[k : n - k, k : n - k] = planted.grid[k : n - k, k + 1 : n - k + 1]
    with pytest.raises(ShellStuck):
        assemble_shells(bag, partial, k)


def test_core_holes_fill_before_the_ring():
    # the two core holes have three placed neighbors each and take their
    # planted pieces; the ring around the core then grows to the planted grid
    bag, planted = disassemble(generate(5, 10, seed=0), 1)
    partial = np.full((5, 5), -1)
    partial[1:4, 1:4] = [[23, 2, -1], [9, 12, 22], [7, -1, 21]]
    out = assemble_shells(bag, partial, 1)
    assert out.grid[1, 3] == planted.grid[1, 3] and out.grid[3, 2] == planted.grid[3, 2]
    assert (out.grid == planted.grid).all()
    assert is_feasible(bag, out)


@given(
    n=st.integers(3, 8),
    q=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 2),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_correct_core_never_yields_a_wrong_grid(n, q, seed, data):
    # every placement is the only free piece that fits, so a correct core,
    # holes and all, grows to the planted grid or gets stuck
    bag, planted = disassemble(generate(n, q, seed), seed + 1)
    k = data.draw(st.integers(1, (n - 1) // 2), label="k")
    m = n - 2 * k
    partial = np.full((n, n), -1)
    partial[k : n - k, k : n - k] = planted.grid[k : n - k, k : n - k]
    cleared = data.draw(st.lists(st.integers(0, m * m - 1), unique=True, max_size=m * m - 1), label="cleared")
    for c in cleared:
        partial[k + c // m, k + c % m] = -1
    try:
        out = assemble_shells(bag, partial, k)
    except ShellStuck:
        return
    assert (out.grid == planted.grid).all()


def test_k2_recovers_where_the_core_is_exact():
    # at k=2 every cell next to the core has one placed neighbor, and about
    # 900 jigs fall on 84 colors: no color is held once, yet the cells are forced
    hits = 0
    for s in range(5):
        bag, planted = disassemble(generate(30, 84, s), s + 1)
        out = solve(bag, 2)
        hits += out.solved and out.assembly.placement == planted.placement
    assert hits >= 4


def test_assemble_shells_validates_inputs():
    n = 4
    p = generate(n, 16, seed=0)
    bag, planted = disassemble(p, 0)
    off_core = np.full((n, n), -1)
    off_core[0, 0] = 0
    with pytest.raises(ValueError, match="central square"):
        assemble_shells(bag, off_core, 1)
    with pytest.raises(ValueError, match="central square"):
        assemble_shells(bag, np.full((n, n), -1), 1)  # no core at all
    core = np.full((n, n), -1)
    core[1:3, 1:3] = planted.grid[1:3, 1:3]
    duplicated = core.copy()
    duplicated[1, 1] = duplicated[2, 2]
    out_of_range = core.copy()
    out_of_range[1, 1] = n * n
    below_hole = core.copy()
    below_hole[0, 0] = -2
    for bad in (duplicated, out_of_range, below_hole):
        with pytest.raises(ValueError, match="distinct ids"):
            assemble_shells(bag, bad, 1)
    with pytest.raises(ValueError, match="4 x 4"):
        assemble_shells(bag, core[:3, :3], 1)


def test_solve_rejects_bad_arguments():
    p = generate(4, 5, seed=0)
    bag, _ = disassemble(p, 0)
    for k in (0, 2):
        with pytest.raises(ValueError, match="need 1 <= k < n/2"):
            solve(bag, k)


def test_solve_rejects_candidates_of_another_bag():
    small, _ = disassemble(generate(6, 500, seed=1), 2)
    big, _ = disassemble(generate(8, 500, seed=1), 2)
    with pytest.raises(ValueError, match="candidates cover 64 pieces; the bag holds 36"):
        solve(small, 1, candidates=candidate_neighborhoods(big, 1))


def test_solve_recovers_easy_puzzles():
    for seed in range(8):
        n = 8
        p = generate(n, n**3, seed=seed)
        bag, planted = disassemble(p, seed + 17)
        out = solve(bag, 1)
        assert out.solved
        assert out.assembly.placement == planted.placement
        assert is_feasible(bag, out.assembly)


def test_solved_outcomes_always_feasible():
    hits = 0
    for seed in range(12):
        n = 10
        q = math.ceil(n**1.8)
        p = generate(n, q, seed=seed)
        bag, planted = disassemble(p, seed)
        out = solve(bag, 1)
        if out.solved:
            hits += 1
            assert is_feasible(bag, out.assembly)
    assert hits >= 8  # most of these succeed


def test_solve_k2():
    n, q = 12, 3000
    p = generate(n, q, seed=4)
    bag, planted = disassemble(p, 6)
    out = solve(bag, 2)
    assert out.solved and out.assembly.placement == planted.placement


def test_solve_monochromatic_fails():
    p = generate(3, 1, seed=0)
    bag, _ = disassemble(p, 0)
    out = solve(bag, 1)
    assert not out.solved
    assert out.failure == "multiple_candidates"
    out4 = solve(generate(4, 1, seed=0) and disassemble(generate(4, 1, seed=0), 1)[0], 1, budget=10**5)
    assert out4.failure in ("multiple_candidates", "budget_exceeded")


def test_solve_agrees_with_oracle_on_tiny_puzzles():
    # a solved assembly is one the oracle finds, and the one when it is unique
    cases = solved = 0
    for n in (3, 4, 5):
        for q in (n * n, 2 * n * n, 4 * n * n, 50, 200):
            for seed in range(10):
                bag, _ = disassemble(generate(n, q, seed=seed), seed + 1)
                try:
                    feasible = [a.placement for a in enumerate_feasible_assemblies(bag, limit=10**4)]
                except LimitExceededError:
                    continue
                cases += 1
                out = solve(bag, 1)
                if not out.solved:
                    continue
                solved += 1
                assert out.assembly.placement in feasible
                if len(feasible) == 1:
                    assert out.assembly.placement == feasible[0]
    assert 4 * solved >= cases


def test_component_offsets_match_planted_translation():
    # the core component's relative geometry is the planted one
    n = 8
    p = generate(n, n**3, seed=6)
    bag, planted = disassemble(p, 26)
    comps = mutual_components(candidate_neighborhoods(bag, 1))
    largest = comps[0]
    where = {pid: v for v, pid in planted.placement.items()}
    cells = component_cells(largest)
    anchor_cell = min(cells)
    anchor_pos = where[cells[anchor_cell]]
    for cell, pid in cells.items():
        expected = (
            anchor_pos[0] + (cell[0] - anchor_cell[0]),
            anchor_pos[1] + (cell[1] - anchor_cell[1]),
        )
        assert where[pid] == expected


def test_property_iv_style_unique_fills():
    # on a clean accepted puzzle the shell rule grows the planted core,
    # with the ring around it open, back to the planted grid
    from jigsolve.typicality import check_typical
    from fractions import Fraction

    n, k = 8, 1
    p = generate(n, 10**6, seed=12)
    assert check_typical(p, k, c_prime=Fraction(1)).typical
    bag, planted = disassemble(p, 40)
    partial = np.full((n, n), -1)
    partial[k : n - k, k : n - k] = planted.grid[k : n - k, k : n - k]
    assert (assemble_shells(bag, partial, k).grid == planted.grid).all()


def test_solve_determinism():
    n, q = 8, 200
    p = generate(n, q, seed=3)
    bag, _ = disassemble(p, 9)
    a = solve(bag, 1)
    b = solve(bag, 1)
    assert (a.solved, a.failure, a.guesses_tried) == (b.solved, b.failure, b.guesses_tried)
    if a.solved:
        assert a.assembly.placement == b.assembly.placement


#: SHA-256 of every solve and every ShellStuck raised inside it over the
#: cases of :func:`_shell_growth_records`. It covers every bag whose
#: windows fit 10^6 candidate rows as :func:`jigsolve.windows.window_rows`
#: counts them (the domino tables and each step's rows), the n=12 q=16
#: k=1 bags included, so a change of that count moves it. The link graph
#: of the n=6 q=15 s=1 k=1 bag is not rigid, so a change of the join rule
#: moves it too.
SHELL_GROWTH_SHA256 = "dfd58add1824c5f2655056b9f64760c801235e79e6b8fda4d3fa65f0497e6e2e"


def _shell_growth_records(monkeypatch) -> list[str]:
    """One JSON line per solve and per ShellStuck, in the order they happen.

    Bags are ``disassemble(generate(n, q, s), s + 1)`` for n in
    {4, 5, 6, 8, 12, 16}, q = ceil(n^alpha) over six alphas, s in {0, 1};
    each k in {1, 2, 3} with 2k < n whose windows fit a budget of 10^6 is
    solved with the claims of 0, 1 and 3 random pieces cleared.
    """
    import json

    from jigsolve.windows import BudgetExceededError, Candidates

    records = []
    grow = assemble.assemble_shells

    def traced(bag, partial, k):
        try:
            return grow(bag, partial, k)
        except ShellStuck as exc:
            records.append(json.dumps(["stuck", exc.shell, exc.side, str(exc)]))
            raise

    monkeypatch.setattr(assemble, "assemble_shells", traced)
    for n in (4, 5, 6, 8, 12, 16):
        for alpha in (1.1, 1.3, 1.5, 1.7, 2.0, 2.5):
            q = math.ceil(n**alpha)
            for s in (0, 1):
                bag, _ = disassemble(generate(n, q, s), s + 1)
                for k in (k for k in (1, 2, 3) if 2 * k < n):
                    try:
                        cands = candidate_neighborhoods(bag, k, 10**6)
                    except BudgetExceededError:
                        continue
                    for clear in (0, 1, 3):
                        stable, windows = cands.stable.copy(), cands.windows.copy()
                        gone = np.random.default_rng((n, q, s, k)).choice(n * n, size=clear, replace=False)
                        stable[gone], windows[gone] = -1, 0
                        out = solve(bag, k, candidates=Candidates(stable, windows))
                        grid = None if out.assembly is None else out.assembly.grid.tolist()
                        records.append(json.dumps(["solve", n, q, s, k, clear, grid, out.failure, out.guesses_tried]))
    return records


def test_shell_growth_pinned(monkeypatch):
    # every solve, and where each failing guess stops: a change to which
    # cells the shell rule finds forced, or to the order it scans them in,
    # moves this hash
    import hashlib

    records = _shell_growth_records(monkeypatch)
    assert sum(r.startswith('["solve"') for r in records) == 462
    assert sum(r.startswith('["stuck"') for r in records) == 109
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == SHELL_GROWTH_SHA256
