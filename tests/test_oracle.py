import pytest

from jigsolve.gen import generate
from jigsolve.grid import (
    STEPS,
    Assembly,
    Piece,
    PieceBag,
    disassemble,
    is_feasible,
    piece_at,
    positions_row_major,
)
from jigsolve.oracle import (
    LimitExceededError,
    brute_force_windows,
    enumerate_feasible_assemblies,
    uniqueness_report,
)
from jigsolve.windows import enumerate_windows
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
                if bag.pieces[a] == bag.pieces[b]:
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
    windows = brute_force_windows(bag, center, 1)
    assert block in {wa.cells for wa in windows}


def test_brute_windows_equal_fast_path():
    # the (n=4, q=2) cell is huge and lives in the acceptance suite; k=2
    # is the first radius whose cell order has shells past the corner's
    for n, q, k in ((3, 2, 1), (3, 3, 1), (4, 3, 1), (4, 4, 1), (5, 8, 2), (6, 12, 2)):
        for seed in range(3):
            p = generate(n, q, seed=seed)
            bag, _ = disassemble(p, seed + 1)
            fast = sorted(wa.cells for wa in enumerate_windows(bag, k, budget=10**8))
            brute = []
            for center in range(n * n):
                windows = brute_force_windows(bag, center, k)
                assert all(wa.center == center for wa in windows)
                cells = [wa.cells for wa in windows]
                assert all(a < b for a, b in zip(cells, cells[1:]))  # strictly ascending
                brute += cells
            assert fast == sorted(brute)  # as multisets: no window twice


def test_brute_windows_equal_fast_path_past_int64_keys():
    # a key up * (q + 1) + left on raw colors wraps int64 at this q
    q = 2**32
    bag = PieceBag(3, q, (Piece(1, 1, 1, 1),) * 8 + (Piece(1, q, 1, 1),))
    fast = sorted(wa.cells for wa in enumerate_windows(bag, 1))
    brute = sorted(wa.cells for center in range(9) for wa in brute_force_windows(bag, center, 1))
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
            windows = brute_force_windows(bag, center, 1)
            assert windows  # the planted window at least
            assert all(tuple(wa.neighborhood()) == expected for wa in windows)
