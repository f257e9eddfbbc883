import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies

from jigsolve.gen import generate
from jigsolve.grid import (
    RIGHT,
    STEPS,
    UP,
    Assembly,
    PieceBag,
    disassemble,
    is_feasible,
    piece_at,
    piece_colors,
    positions_row_major,
)
from jigsolve.oracle import (
    DEFAULT_LIMIT,
    LimitExceededError,
    brute_force_window_rows,
    brute_force_windows,
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


#: SHA-256 per n of ``enumerate_feasible_assemblies(bag, limit=10**4)`` on the
#: bags ``disassemble(generate(n, q, s), s + 1)`` for q = 1..6 and s = 0..3:
#: per bag a line ``n q s count`` (``n q s over`` past the limit), then the
#: int64 bytes of the grids in the order returned.
ASSEMBLIES_SHA256 = {
    1: "d94358d73b357d396b399884e90dcaddb32841e1012bfda2c4cb69b0e1c1b3c7",
    2: "a740651f0dcbcedde4ed69660862e82dcd7b1b44eea1a3002f8d44ad569cc32e",
    3: "c41e4ea30fd4a641ca4e32b596b974b3fa330653864f239d454e0ad344d2ad43",
    4: "03931dbac0265ffa92418178d52e1779ca05371975aa72df98b89891c0e7620f",
}


def test_assemblies_pinned():
    for n, digest in ASSEMBLIES_SHA256.items():
        h = hashlib.sha256()
        for q in range(1, 7):
            for s in range(4):
                bag, _ = disassemble(generate(n, q, s), s + 1)
                try:
                    grids = [a.grid for a in enumerate_feasible_assemblies(bag, limit=10**4)]
                except LimitExceededError:
                    h.update(f"{n} {q} {s} over\n".encode())
                    continue
                h.update(f"{n} {q} {s} {len(grids)}\n".encode() + np.array(grids, dtype=np.int64).tobytes())
        assert h.hexdigest() == digest, n
    # unique puzzles at q = 6 > n and at q = 2n
    for n, q, seeds in ((5, 6, range(4)), (7, 14, range(3))):
        for s in seeds:
            assert uniqueness_report(generate(n, q, s)) == (1, True, True), (n, q, s)


def test_limit_bounds_memory():
    # every placement of a monochromatic board is feasible: 36! and 25! of
    # them. The pass stops once it holds more than the limit, so its peak
    # stays near limit rows of n^2 one-byte ids, not the whole enumeration.
    for n, limit in ((6, 5), (5, DEFAULT_LIMIT)):
        bag, _ = disassemble(explicit_puzzle(n, 1, lambda orient, i, j: 1), 0)
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceededError):
                enumerate_feasible_assemblies(bag, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, (n, limit, peak)


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


def test_unique_edge_matches_a_per_edge_check():
    # unique_edge, checked edge by edge on every feasible assembly: the piece
    # at (i, j) shows the planted right color there unless i = n and the
    # planted up color unless j = n
    verdicts = set()
    for n, q, seed in ((n, q, seed) for n in (2, 3) for q in (2, 3, 4) for seed in range(8)):
        p = generate(n, q, seed=seed)
        colors = piece_colors(p).tolist()
        bag = PieceBag(n, q, piece_colors(p))
        expected = all(
            (i == n or colors[a.grid[j - 1, i - 1]][RIGHT] == colors[(j - 1) * n + i - 1][RIGHT])
            and (j == n or colors[a.grid[j - 1, i - 1]][UP] == colors[(j - 1) * n + i - 1][UP])
            for a in enumerate_feasible_assemblies(bag, limit=10**5)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        assert uniqueness_report(p, limit=10**5).unique_edge == expected, (n, q, seed)
        verdicts.add(expected)
    assert verdicts == {True, False}


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
    rows = brute_force_window_rows(bag, 1)
    assert list(block) in rows[rows[:, 4] == center].tolist()


#: SHA-256 of the shape, dtype and bytes of ``brute_force_window_rows(bag, k)``
#: for bags ``disassemble(generate(n, q, s), s + 1)``, keyed (n, q, k, s).
#: Hashed from the per-center rows of the earlier enumeration, concatenated
#: and sorted ascending.
BRUTE_ROWS_SHA256 = {
    (3, 1, 1, 0): "fef131b42b94c3ede45d6be9598b2e16c73d71fd962aa663363882635c331d5a",
    (3, 2, 1, 0): "97a8726dc21be67b6bb0f418a9234bce321fba3c8932a4cf4a56582c34729b73",
    (3, 3, 1, 0): "6111a8cf50d51f3b25c23c60ff73502bd97a5693e8bd8efdb5d7bf6d353b7b3d",
    (4, 3, 1, 0): "a170bda5bda6d4dce6ff24c95dcb867f7e22133724bc979b7463f8db043ecb9c",
    (4, 3, 1, 1): "915a8ad024762a30c6fc83bc737789e4c90356cf4b78cd4a821f12e63cde44ae",
    (4, 4, 1, 0): "55fd65ee3ad95bd1ffdab860affedb56c044241ede6b28efcaff3148081ea0d4",
    (4, 4, 1, 1): "39c26fe1d323ed943be2a5685710d5a5890dd58bdd24f51cac0b37990fcec806",
    (5, 8, 2, 0): "fde4d8dfef97177358bac6558a7a161549c9e405e53fc441ccaaff1b6a0fccaf",
    (6, 12, 2, 1): "c37122bb79a601c60f22244cc761687ddeca87d95390fc2ffda8e2c5a4e3090c",
}
#: The same for the 3x3 bag of ``test_brute_windows_equal_fast_path_past_int64_keys``.
BRUTE_ROWS_WIDE_Q_SHA256 = "85a6a123b97153e3689fd7ae3883e3a4b651c31b9de9db44f977e6cdf997dadf"


def test_brute_window_rows_pinned():
    cases = [
        (disassemble(generate(n, q, s), s + 1)[0], k, digest) for (n, q, k, s), digest in BRUTE_ROWS_SHA256.items()
    ]
    q = 2**32
    cases.append((PieceBag(3, q, [(1, 1, 1, 1)] * 8 + [(1, q, 1, 1)]), 1, BRUTE_ROWS_WIDE_Q_SHA256))
    for bag, k, digest in cases:
        rows = brute_force_window_rows(bag, k)
        got = hashlib.sha256(f"{rows.shape} {rows.dtype.str}".encode() + rows.tobytes()).hexdigest()
        assert got == digest, (bag.n, bag.q, k)


def test_brute_windows_per_center_across_bags():
    # each call lists its own bag's windows for its own k and center,
    # whichever bag and k came before
    bags = [disassemble(generate(n, q, seed=seed), seed + 1)[0] for n, q, seed in ((5, 8, 0), (6, 12, 1))]
    expected = {(b, k): brute_force_window_rows(bag, k) for b, bag in enumerate(bags) for k in (1, 2)}
    assert all(len(rows) for rows in expected.values())
    # another k on the same bag, another bag at the same k, and the same call twice
    for center in range(25):
        for b, k in ((0, 1), (0, 2), (1, 2), (1, 1), (1, 1), (0, 1)):
            rows = expected[b, k]
            rows = rows[rows[:, rows.shape[1] // 2] == center]
            got = brute_force_windows(bags[b], center, k)
            assert [(wa.k, wa.cells) for wa in got] == [(k, cells) for cells in map(tuple, rows.tolist())]
    # no right color is any left color: not a single window
    bag = PieceBag(3, 2, [(1, 1, 2, 1)] * 9)
    for k in (1, 2):
        rows = brute_force_window_rows(bag, k)
        assert rows.shape == (0, (2 * k + 1) ** 2) and rows.dtype == np.uint8
        assert all(brute_force_windows(bag, center, k) == [] for center in range(9))


def test_brute_windows_reject_bad_k_and_center():
    bag, _ = disassemble(generate(3, 2, seed=0), 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            brute_force_window_rows(bag, k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            brute_force_windows(bag, 0, k)
    for center in (-1, 9):
        with pytest.raises(ValueError, match="center"):
            brute_force_windows(bag, center, 1)


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
    every = brute_force_window_rows(bag, k)
    mid = every.shape[1] // 2
    brute = []
    for center in range(n * n):
        rows = every[every[:, mid] == center]
        assert (rows[:, mid] == center).all()
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
    brute = sorted(brute_force_window_rows(bag, 1).tolist())
    assert len(brute) == 120_960
    assert fast == brute


def test_deviant_only_empty_in_easy_regime():
    # no window around an interior center claims other than its planted neighbors
    n = 6
    p = generate(n, 10_000, seed=3)
    bag, planted = disassemble(p, 3)
    every = brute_force_window_rows(bag, 1)
    for ci in range(2, n):
        for cj in range(2, n):
            center = planted.placement[(ci, cj)]
            expected = tuple(planted.placement[(ci + dx, cj + dy)] for dx, dy in STEPS)
            rows = every[every[:, 4] == center]
            assert len(rows)  # the planted window at least
            assert (rows[:, [5, 1, 3, 7]] == expected).all()  # right, up, left and down of the center
