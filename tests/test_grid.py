import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigsolve.gen import generate
from jigsolve.grid import (
    DOWN,
    LEFT,
    MAX_Q,
    RIGHT,
    STEPS,
    UP,
    Assembly,
    EdgeId,
    PieceBag,
    Puzzle,
    disassemble,
    edge_in_direction,
    is_feasible,
    piece_at,
    positions_row_major,
    read_assembly,
    read_bag,
    read_puzzle,
    write_assembly,
    write_bag,
    write_puzzle,
)
from helpers import all_distinct_puzzle, explicit_puzzle


def monochromatic(n):
    return explicit_puzzle(n, 1, lambda orient, i, j: 1)


def test_direction_opposites():
    # the side opposite d is d ^ 2, a step back the other way
    assert (RIGHT ^ 2, UP ^ 2, LEFT ^ 2, DOWN ^ 2) == (LEFT, DOWN, RIGHT, UP)
    assert STEPS[RIGHT] == (1, 0) and STEPS[UP] == (0, 1)
    for d, (di, dj) in enumerate(STEPS):
        assert STEPS[d ^ 2] == (-di, -dj)


def test_edge_in_direction_shared_identity():
    # the same physical edge seen from both endpoints
    assert edge_in_direction((1, 2), RIGHT) == edge_in_direction((2, 2), LEFT)
    assert edge_in_direction((3, 1), UP) == edge_in_direction((3, 2), DOWN)


def test_edge_ranges_boundary():
    p = monochromatic(3)
    assert p.edge_color(EdgeId("h", 0, 1)) == 1
    assert p.edge_color(EdgeId("h", 3, 3)) == 1
    assert p.edge_color(EdgeId("v", 1, 0)) == 1
    with pytest.raises(ValueError):
        p.edge_color(EdgeId("h", 4, 1))
    with pytest.raises(ValueError):
        p.edge_color(EdgeId("v", 0, 1))


def test_piece_at_monochromatic():
    p = monochromatic(4)
    for v in positions_row_major(4):
        assert piece_at(p, v) == (1, 1, 1, 1)


def test_piece_at_reads_incident_entries():
    p = all_distinct_puzzle(2)
    right, up, left, down = piece_at(p, (1, 1))
    assert right == p.edge_color(EdgeId("h", 1, 1))
    assert left == p.edge_color(EdgeId("h", 0, 1))
    assert up == p.edge_color(EdgeId("v", 1, 1))
    assert down == p.edge_color(EdgeId("v", 1, 0))


def test_piece_at_out_of_range():
    p = monochromatic(3)
    with pytest.raises(ValueError):
        piece_at(p, (0, 1))
    with pytest.raises(ValueError):
        piece_at(p, (1, 4))


def test_opposite_direction_color_sharing():
    p = generate(5, 7, seed=11)
    for i in range(1, 5):
        for j in range(1, 6):
            assert piece_at(p, (i, j))[RIGHT] == piece_at(p, (i + 1, j))[LEFT]
    for i in range(1, 6):
        for j in range(1, 5):
            assert piece_at(p, (i, j))[UP] == piece_at(p, (i, j + 1))[DOWN]


def test_disassemble_counts_and_determinism():
    p = generate(3, 4, seed=5)
    bag1, planted1 = disassemble(p, 99)
    bag2, planted2 = disassemble(p, 99)
    assert bag1.colors.shape == (9, 4)
    assert np.array_equal(bag1.colors, bag2.colors)
    assert np.array_equal(planted1.grid, planted2.grid)
    bag3, _ = disassemble(p, 100)
    assert not np.array_equal(bag3.colors, bag1.colors)  # overwhelmingly likely for a different seed


def test_disassemble_multiset_invariant():
    p = generate(4, 3, seed=2)
    bag, _ = disassemble(p, 17)
    original = sorted(piece_at(p, v) for v in positions_row_major(4))
    assert sorted(map(tuple, bag.colors.tolist())) == original


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), q=st.sampled_from([1, 2, 5, 10**6, MAX_Q]))
@settings(max_examples=60, deadline=None)
def test_disassemble_round_trip(seed, n, q):
    # the array disassembly against the one-position reader, at every position
    p = generate(n, q, seed=seed)
    bag, planted = disassemble(p, seed)
    assert planted.grid.shape == (n, n)
    assert sorted(planted.grid.ravel().tolist()) == list(range(n * n))
    for i, j in positions_row_major(n):
        pid = planted.grid[j - 1, i - 1]
        assert planted.placement[(i, j)] == pid
        assert tuple(bag.colors[pid].tolist()) == piece_at(p, (i, j))


def test_disassemble_pieces_match_piece_at():
    for n in (1, 2, 5, 9):
        for q in (1, 7, 10**6):
            for seed in range(3):
                p = generate(n, q, seed=seed)
                bag, planted = disassemble(p, seed + 10)
                assert sorted(planted.placement.values()) == list(range(n * n))
                for v, pid in planted.placement.items():
                    assert tuple(bag.colors[pid].tolist()) == piece_at(p, v)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_planted_always_feasible(seed, n):
    p = generate(n, 3, seed=seed)
    bag, planted = disassemble(p, seed ^ 0xABCD)
    assert is_feasible(bag, planted)


def test_monochromatic_any_permutation_feasible():
    p = monochromatic(3)
    bag, planted = disassemble(p, 0)
    rotated = Assembly(
        {v: (pid + 1) % 9 for v, pid in planted.placement.items()}
    )
    assert is_feasible(bag, rotated)


def test_adjacent_swap_with_distinct_colors_infeasible():
    # all edges uniquely colored: swapping two adjacent pieces must break
    # their shared edge, verified here by direct color comparison
    p = all_distinct_puzzle(2)
    bag, planted = disassemble(p, 3)
    swapped = dict(planted.placement)
    swapped[(1, 1)], swapped[(2, 1)] = swapped[(2, 1)], swapped[(1, 1)]
    a = Assembly(swapped)
    left_piece = bag.colors[a.placement[(1, 1)]]
    right_piece = bag.colors[a.placement[(2, 1)]]
    assert left_piece[RIGHT] != right_piece[LEFT]
    assert not is_feasible(bag, a)


def test_is_feasible_rejects_non_bijection():
    p = monochromatic(2)
    bag, planted = disassemble(p, 0)
    broken = dict(planted.placement)
    broken[(1, 1)] = broken[(2, 2)]
    with pytest.raises(ValueError):
        is_feasible(bag, Assembly(broken))
    with pytest.raises(ValueError):
        is_feasible(bag, Assembly({(1, 1): 0}))
    with pytest.raises(ValueError):
        Assembly({(1, 1): 0, (2, 1): 1})  # not every position of a square board


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), q=st.integers(1, 3), swaps=st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_is_feasible_matches_cell_by_cell_check(seed, n, q, swaps):
    # shifted-slice feasibility against comparing each internal edge in turn
    p = generate(n, q, seed=seed)
    bag, planted = disassemble(p, seed)
    grid = planted.grid.ravel().copy()
    rng = np.random.default_rng(seed)
    for _ in range(swaps):
        a, b = rng.integers(n * n, size=2)
        grid[a], grid[b] = grid[b], grid[a]
    assembly = Assembly(grid.reshape(n, n))
    place, colors = assembly.placement, bag.colors.tolist()
    expected = all(
        colors[place[(i, j)]][RIGHT] == colors[place[(i + 1, j)]][LEFT]
        for i in range(1, n)
        for j in range(1, n + 1)
    ) and all(
        colors[place[(i, j)]][UP] == colors[place[(i, j + 1)]][DOWN]
        for i in range(1, n + 1)
        for j in range(1, n)
    )
    assert is_feasible(bag, assembly) == expected


def test_is_feasible_on_grids():
    p = generate(5, 10**6, seed=3)
    bag, planted = disassemble(p, 4)
    assert is_feasible(bag, Assembly(planted.grid))
    grid = planted.grid.copy()
    a, b = grid[2, 1], grid[3, 4]
    assert not np.array_equal(bag.colors[a], bag.colors[b])
    grid[2, 1], grid[3, 4] = b, a
    assert not is_feasible(bag, Assembly(grid))
    duplicated = planted.grid.copy()
    duplicated[0, 0] = duplicated[4, 4]
    out_of_range = planted.grid.copy()
    out_of_range[1, 2] = 25
    negative = planted.grid.copy()
    negative[1, 2] = -1
    for bad in (duplicated, out_of_range, negative, planted.grid[:4, :4], np.zeros((6, 6), dtype=np.int64)):
        with pytest.raises(ValueError):
            is_feasible(bag, Assembly(bad))
    with pytest.raises(ValueError, match="square"):
        Assembly(planted.grid[:4])


def test_puzzle_validation():
    with pytest.raises(ValueError):
        Puzzle(0, 1, np.zeros((1, 0)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        Puzzle(2, 2, np.ones((2, 3)), np.ones((2, 2)))  # bad vcolors shape
    bad = np.ones((2, 3), dtype=np.int64)
    bad[0, 0] = 5
    with pytest.raises(ValueError):
        Puzzle(2, 2, bad, np.ones((3, 2)))


def test_puzzle_arrays_frozen():
    p = generate(3, 2, seed=0)
    with pytest.raises(ValueError):
        p.hcolors[0, 0] = 1


def test_bag_validation():
    with pytest.raises(ValueError):
        PieceBag(2, 1, [(1, 1, 1, 1)] * 3)
    with pytest.raises(ValueError):
        PieceBag(1, 1, [(1, 1, 1)])
    with pytest.raises(ValueError):
        PieceBag(1, 1, [(1, 2, 1, 1)])
    with pytest.raises(ValueError):
        PieceBag(1, 2, [(1, 2, 0, 1)])
    for n, q in ((0, 5), (0, 0)):  # n^2 pieces, but an empty board
        with pytest.raises(ValueError, match="n and q must be positive"):
            PieceBag(n, q, np.zeros((0, 4)))
    bag = PieceBag(1, 2, [(1, 2, 1, 1)])
    assert bag.colors.dtype == np.int64
    with pytest.raises(ValueError):
        bag.colors[0, 0] = 2  # read-only
    with pytest.raises(ValueError, match="bag file: n and q must be positive"):
        read_bag(io.StringIO("0 5\n"))


def test_bag_rejects_q_past_int64():
    # 2**63 and 2**63 + 1 would share one float64 in a color array
    big = 2**63
    with pytest.raises(ValueError, match=rf"q must be at most 2\*\*63 - 1; got q={big + 1}"):
        PieceBag(3, big + 1, np.ones((9, 4), dtype=np.int64))
    assert MAX_Q == big - 1
    ones = np.ones((3, 4), dtype=np.int64)
    with pytest.raises(ValueError, match=rf"q must be at most 2\*\*63 - 1; got q={big}"):
        Puzzle(3, big, ones, ones.T)
    top = [[MAX_Q, 1, 1, 1], [1, 1, MAX_Q - 1, 1]]
    colors = PieceBag(3, MAX_Q, [[1, 1, 1, 1]] * 7 + top).colors
    assert colors.dtype == np.int64
    assert colors.tolist() == [[1, 1, 1, 1]] * 7 + top


def test_puzzle_file_round_trip():
    p = generate(4, 6, seed=8)
    buf = io.StringIO()
    write_puzzle(p, buf)
    back = read_puzzle(io.StringIO(buf.getvalue()))
    assert (back.n, back.q) == (p.n, p.q)
    assert np.array_equal(back.hcolors, p.hcolors) and np.array_equal(back.vcolors, p.vcolors)
    again = io.StringIO()
    write_puzzle(back, again)
    assert again.getvalue() == buf.getvalue()


def test_bag_file_round_trip():
    p = generate(3, 4, seed=9)
    bag, _ = disassemble(p, 10)
    buf = io.StringIO()
    write_bag(bag, buf)
    back = read_bag(io.StringIO(buf.getvalue()))
    assert (back.n, back.q) == (bag.n, bag.q)
    assert np.array_equal(back.colors, bag.colors)
    again = io.StringIO()
    write_bag(back, again)
    assert again.getvalue() == buf.getvalue()


def test_assembly_file_round_trip():
    p = generate(3, 4, seed=9)
    _, planted = disassemble(p, 10)
    buf = io.StringIO()
    write_assembly(planted, buf)
    assert read_assembly(io.StringIO(buf.getvalue())).placement == planted.placement
    assert buf.getvalue().splitlines()[1].split() == [str(planted.placement[(i, 1)]) for i in (1, 2, 3)]


#: SHA-256 of the ``write_puzzle``, ``write_bag`` and ``write_assembly``
#: bytes, in that order, of ``generate(n, q, seed)`` and
#: ``disassemble(puzzle, seed + 1)``, keyed by (n, q, seed).
BASE_FILE_SHA256 = {
    (1, 1, 0): "054e4ab1222bc14d04344cf57608c70c48b10058a5747d61ca311a1ba0a34f99",
    (1, 2**40, 1): "dee12c83e5f0775326944f5d38a946d0a461a4ee7800cf11e005370888828994",
    (2, 2, 2): "460374ac1a12c4792ed7fd2cf4fab9c2e6ea20f7158a50883fe3ed9d5b0acdfe",
    (3, 7, 3): "a7f48e8ece19d980df9066d826fccc14f7fe768685fc2513a7ed18f6a508f0a7",
    (5, 2**40, 0): "ba3a0a9c7caf2a724ed6ef82798fd4dc00372afb642d83584574eedb80e5b1c6",
    (8, 50, 1): "03eb86959b73f4253d634f970d50203528cb6967f4a333527417159458d625fb",
}


def test_base_files_pinned():
    for (n, q, seed), digest in BASE_FILE_SHA256.items():
        puzzle = generate(n, q, seed)
        bag, planted = disassemble(puzzle, seed + 1)
        buf = io.StringIO()
        write_puzzle(puzzle, buf)
        write_bag(bag, buf)
        write_assembly(planted, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (n, q, seed)


def test_read_puzzle_rejects_garbage():
    with pytest.raises(ValueError):
        read_puzzle(io.StringIO("2 2\n1 1 1\n"))
