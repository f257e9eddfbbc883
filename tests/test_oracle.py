import pytest
from hypothesis import assume, example, given, settings, strategies

from jigsolve.gen import generate
from jigsolve.grid import (
    STEPS,
    Assembly,
    PieceBag,
    disassemble,
    is_feasible,
    piece_at,
    positions_row_major,
)
from jigsolve.oracle import (
    LimitExceededError,
    brute_force_window_rows,
    enumerate_feasible_assemblies,
    uniqueness_report,
)
from jigsolve.windows import BudgetExceededError, window_rows
from helpers import all_distinct_puzzle, explicit_puzzle


def test_single_cell_puzzle():
    p = generate(1, 5, seed=0)
    bag, _ = disassemble(p, 0)
    assert len(enumerate_feasible_assemblies(bag)) == 1


def test_monochromatic_2x2_all_permutations():
    p = explicit_puzzle(2, 1, lambda orient, i, j: 1)
    bag, _ = disassemble(p, 0)
    assemblies = enumerate_feasible_assemblies(bag)
    assert len(assemblies) == 24
    # and they are pairwise distinct placements
    assert len({tuple(sorted(a.placement.items())) for a in assemblies}) == 24


def test_unique_assembly_at_large_q():
    hits = 0
    for seed in range(100):
        p = generate(2, 100, seed=seed)
        bag, _ = disassemble(p, seed)
        if len(enumerate_feasible_assemblies(bag)) == 1:
            hits += 1
    assert hits >= 95  # unique with overwhelming frequency


def test_every_enumerated_assembly_is_feasible():
    p = generate(3, 2, seed=9)
    bag, _ = disassemble(p, 9)
    for a in enumerate_feasible_assemblies(bag, limit=10**5):
        assert is_feasible(bag, a)


def test_limit_exceeded():
    p = explicit_puzzle(3, 1, lambda orient, i, j: 1)
    bag, _ = disassemble(p, 0)
    with pytest.raises(LimitExceededError):
        enumerate_feasible_assemblies(bag, limit=10)


def test_uniqueness_report_monochromatic():
    p = explicit_puzzle(2, 1, lambda orient, i, j: 1)
    report = uniqueness_report(p)
    assert report.num_feasible == 24
    assert not report.unique_vertex
    # every assembly induces the same single color everywhere
    assert report.unique_edge


def test_uniqueness_all_distinct_colors():
    report = uniqueness_report(all_distinct_puzzle(3))
    assert report.num_feasible == 1
    assert report.unique_vertex
    assert report.unique_edge


def test_duplicate_pieces_break_vertex_uniqueness():
    # search tiny random puzzles for one with two identical pieces; the
    # swapped planted assembly must be feasible
    found = False
    for seed in range(300):
        p = generate(3, 2, seed=seed)
        order = positions_row_major(3)
        pieces = [piece_at(p, v) for v in order]
        dup = None
        for a in range(9):
            for b in range(a + 1, 9):
                if pieces[a] == pieces[b]:
                    dup = (a, b)
        if dup is None:
            continue
        found = True
        report = uniqueness_report(p)
        assert not report.unique_vertex
        break
    assert found


def test_duplicates_with_unique_edge_assembly_exist():
    # some puzzle has duplicates (no unique vertex assembly) yet every
    # feasible assembly keeps the planted internal colors
    found = False
    for seed in range(400):
        p = generate(3, 3, seed=seed)
        order = positions_row_major(3)
        pieces = [piece_at(p, v) for v in order]
        if len(set(pieces)) == len(pieces):
            continue
        report = uniqueness_report(p, limit=10**5)
        if report.unique_edge and not report.unique_vertex:
            found = True
            break
    assert found


def test_unique_vertex_implies_unique_edge():
    for seed in range(60):
        p = generate(3, 4, seed=seed)
        report = uniqueness_report(p, limit=10**5)
        if report.unique_vertex:
            assert report.unique_edge


def test_duplicate_swap_law():
    # swapping value-identical pieces preserves feasibility
    for seed in range(200):
        p = generate(3, 2, seed=seed)
        bag, planted = disassemble(p, seed)
        dup = None
        for a in range(9):
            for b in range(a + 1, 9):
                if bag.colors[a].tolist() == bag.colors[b].tolist():
                    dup = (a, b)
        if dup is None:
            continue
        a, b = dup
        for assembly in enumerate_feasible_assemblies(bag, limit=10**5):
            swapped = {
                v: (b if pid == a else a if pid == b else pid)
                for v, pid in assembly.placement.items()
            }
            assert is_feasible(bag, Assembly(swapped))
        return
    pytest.fail("no duplicate found in 200 seeds")


def test_brute_windows_contain_planted_block():
    p = generate(4, 3, seed=2)
    bag, planted = disassemble(p, 8)
    center_pos = (2, 2)
    center = planted.placement[center_pos]
    block = tuple(
        planted.placement[(center_pos[0] + dx, center_pos[1] + dy)]
        for dy in (1, 0, -1)
        for dx in (-1, 0, 1)
    )
    assert list(block) in brute_force_window_rows(bag, center, 1).tolist()


def shell_order(k):
    """Row-major indices of a window's cells in the enumerator's order: shell
    s is its right column top-down, then its bottom row left to right."""
    side = 2 * k + 1
    order = []
    for s in range(side):
        order += [r * side + s for r in range(s)]
        order += [s * side + c for c in range(s + 1)]
    return order


# the (n=4, q=2) cell is huge and lives in the acceptance suite; k=2 is the
# first radius whose cell order has shells past the corner's
@example(nq=(3, 2), k=1, seed=0)
@example(nq=(4, 3), k=1, seed=1)
@example(nq=(4, 4), k=1, seed=2)
@example(nq=(5, 8), k=2, seed=0)
@example(nq=(6, 12), k=2, seed=1)
@given(
    nq=strategies.integers(3, 6).flatmap(
        lambda n: strategies.tuples(strategies.just(n), strategies.integers(1, n * n + n))
    ),
    k=strategies.sampled_from((1, 2)),
    seed=strategies.integers(0, 10**9),
)
@settings(max_examples=50, deadline=None)
def test_brute_windows_equal_fast_path(nq, k, seed):
    # the fast stream is every window once, lexicographic in its cell order;
    # past q = n its queries mostly miss, between the distinct keys and above the last
    n, q = nq
    bag, _ = disassemble(generate(n, q, seed=seed), seed + 1)
    try:
        fast = window_rows(bag, k, budget=10**5)
    except BudgetExceededError:
        assume(False)
    brute = []
    for center in range(n * n):
        rows = brute_force_window_rows(bag, center, k)
        assert (rows[:, rows.shape[1] // 2] == center).all()
        cells = rows.tolist()
        assert all(a < b for a, b in zip(cells, cells[1:]))  # strictly ascending
        brute += cells
    order = shell_order(k)
    assert fast.tolist() == sorted(brute, key=lambda cells: [cells[i] for i in order])


def test_brute_windows_equal_fast_path_past_int64_keys():
    # a key up * (q + 1) + left on raw colors wraps int64 at this q
    q = 2**32
    bag = PieceBag(3, q, [(1, 1, 1, 1)] * 8 + [(1, q, 1, 1)])
    fast = sorted(window_rows(bag, 1).tolist())
    brute = sorted(cells for center in range(9) for cells in brute_force_window_rows(bag, center, 1).tolist())
    assert len(brute) == 120_960
    assert fast == brute


def test_deviant_only_empty_in_easy_regime():
    # no window around an interior center claims other than its planted neighbors
    n = 6
    p = generate(n, 10_000, seed=3)
    bag, planted = disassemble(p, 3)
    for ci in range(2, n):
        for cj in range(2, n):
            center = planted.placement[(ci, cj)]
            expected = tuple(planted.placement[(ci + dx, cj + dy)] for dx, dy in STEPS)
            rows = brute_force_window_rows(bag, center, 1)
            assert len(rows)  # the planted window at least
            assert (rows[:, [5, 1, 3, 7]] == expected).all()  # right, up, left and down of the center
