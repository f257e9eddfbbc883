from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jigsolve.assemble import solve
from jigsolve.gen import generate
from jigsolve.grid import Assembly, Puzzle, disassemble, piece_at, positions_row_major
from jigsolve.rng import generator
from jigsolve.typicality import DEFAULT_C_PRIME, _crowded_pair, check_typical, report_from_candidates
from jigsolve.windows import BudgetExceededError, Candidates, candidate_neighborhoods
from helpers import claimed_candidates, explicit_puzzle, reference_report


def test_default_constant():
    assert DEFAULT_C_PRIME == Fraction(1, 50)


def test_monochromatic_core_uniqueness_fails():
    # n=3 keeps the exhaustive window stream small; the single core piece
    # has many candidate neighborhoods
    p = explicit_puzzle(3, 1, lambda orient, i, j: 1)
    report = check_typical(p, 1, budget=10**7)
    assert not report.core_unique
    assert report.core_witness == ((2, 2), "multiple")


def test_monochromatic_n6_blows_the_budget():
    # at n=6 the q=1 window stream is astronomically large; the checker
    # surfaces that as a budget error rather than pretending to finish
    p = explicit_puzzle(6, 1, lambda orient, i, j: 1)
    with pytest.raises(BudgetExceededError):
        check_typical(p, 1, budget=10**6)


def test_color_pair_property_unsatisfiable_at_small_k():
    # c' * k = 1/50 < 1, yet some pair of jig colors always occurs on a piece
    p = generate(8, 100, seed=5)
    report = check_typical(p, 1)
    assert not report.color_pair_ok
    assert report.color_pair_witness is not None
    (a, b), count = report.color_pair_witness
    assert count >= 1
    assert not report.typical


def test_color_pair_witness_is_smallest_over_threshold_pair():
    # the witness is the smallest jig color pair held by more than c' * k
    # pieces, recounted here piece by piece; the thresholds c' * k include
    # values below 1, integers and non-integers
    n = 4
    order = positions_row_major(n)
    planted = Assembly({v: ix for ix, v in enumerate(order)})
    statuses = claimed_candidates(n * n, {})  # the pair check ignores windows
    for q in (1, 3, 12, 40, 10**6):
        for seed in range(4):
            p = generate(n, q, seed=seed)
            pieces = [piece_at(p, v) for v in order]
            colors = sorted({c for piece in pieces for c in piece})
            pair_counts = []
            for a in colors:
                for b in colors[colors.index(a):]:
                    count = sum(
                        1
                        for piece in pieces
                        if any(sorted((piece[i], piece[j])) == [a, b] for i in range(4) for j in range(i + 1, 4))
                    )
                    pair_counts.append(((a, b), count))
            for c_prime in (Fraction(1, 50), Fraction(1), Fraction(3, 2), Fraction(2)):
                for k in (1, 2):
                    over = [(pair, count) for pair, count in pair_counts if count > c_prime * k]
                    report = report_from_candidates(p, planted, statuses, k, c_prime)
                    assert report.color_pair_witness == (over[0] if over else None)
                    assert report.color_pair_ok == (not over)


def test_crowded_pair_without_sorting_at_limit_zero():
    # at limit 0 (every k < 50 at the default c') the witness is the smallest
    # held pair, found without sorting; it and the sorting path at limit 1
    # agree with a count piece by piece, also for colors past 2^31
    def reference(sides, limit):
        counts = Counter(
            pair
            for row in sides.tolist()
            for pair in {tuple(sorted((row[i], row[j]))) for i in range(4) for j in range(i + 1, 4)}
        )
        over = sorted(pair for pair, count in counts.items() if count > limit)
        return (over[0], counts[over[0]]) if over else None

    rng = np.random.default_rng(7)
    for q, base in ((2, 0), (9, 0), (400, 0), (50, 2**40)):
        for _ in range(20):
            sides = base + rng.integers(1, q + 1, size=(int(rng.integers(1, 40)), 4))
            for limit in (0, 1):
                assert _crowded_pair(sides, limit) == reference(sides, limit), (q, limit)


def test_generous_c_prime_can_accept():
    # with c' = 1 the threshold is k; a clean puzzle at huge q is typical
    found = 0
    for seed in range(40):
        p = generate(8, 10**6, seed=seed)
        report = check_typical(p, 1, c_prime=Fraction(1))
        if report.typical:
            found += 1
            assert report.core_unique
            assert report.peripheral_consistent
            assert report.edge_colors_ok
            assert report.pair_sharing_ok
            assert report.color_pair_ok
    assert found >= 35  # huge q: typical with room to spare


def test_typical_implies_planted_recovery():
    # the backbone implication, tested where typicality is satisfiable
    checked = 0
    for seed in range(40):
        n = 8
        p = generate(n, 5000, seed=seed)
        report = check_typical(p, 1, c_prime=Fraction(1))
        if not report.typical:
            continue
        checked += 1
        bag, planted = disassemble(p, seed + 1000)
        out = solve(bag, 1)
        assert out.solved, f"typical puzzle not solved (seed {seed})"
        assert out.assembly.placement == planted.placement
    assert checked >= 10


def test_edge_color_property_counts():
    from helpers import all_distinct_puzzle

    p = all_distinct_puzzle(5)
    report = check_typical(p, 1, budget=10**7)
    assert report.nonunique_peripheral_edges == 0
    assert report.edge_colors_ok
    assert report.pair_sharing_ok


def test_edge_color_property_fails_on_repeated_boundary():
    # distinct colors everywhere except the 4n boundary half edges, which
    # all share one color: every one of them is then non-unique, far over
    # the n - 2k - 1 allowance
    n = 6
    counter = [1]

    def fill(orient, i, j):
        if orient == "h" and i in (0, n):
            return 1
        if orient == "v" and j in (0, n):
            return 1
        counter[0] += 1
        return counter[0]

    p = explicit_puzzle(n, 200, fill)
    report = check_typical(p, 1, budget=10**7)
    assert not report.edge_colors_ok
    assert report.nonunique_peripheral_edges >= 4 * n
    assert report.edge_witness is not None
    assert not report.typical


def test_pair_sharing_witness():
    # force two peripheral pieces to share the color pair {777, 888} on
    # edges that cannot create new windows
    n = 6
    counter = [1000]

    def fill(orient, i, j):
        if orient == "v" and (i, j) in ((1, 0), (3, 0)):
            return 777
        if (orient, i, j) in (("h", 0, 1), ("v", 3, 1)):
            return 888
        counter[0] += 1
        return counter[0]

    p = explicit_puzzle(n, 3000, fill)
    report = check_typical(p, 1, budget=10**7)
    assert not report.pair_sharing_ok
    a, b, colors = report.pair_witness
    assert {a, b} == {(1, 1), (3, 1)}
    assert colors == (777, 888)


def test_report_from_candidates_matches_check_typical():
    from jigsolve.grid import Assembly, PieceBag, piece_at, positions_row_major

    n = 7
    p = generate(n, 2000, seed=11)
    order = positions_row_major(n)
    bag = PieceBag(n, p.q, [piece_at(p, v) for v in order])
    planted = Assembly({v: ix for ix, v in enumerate(order)})
    statuses = candidate_neighborhoods(bag, 1)
    direct = check_typical(p, 1)
    shared = report_from_candidates(p, planted, statuses, 1)
    assert direct == shared


def test_budget_propagates():
    p = explicit_puzzle(6, 1, lambda orient, i, j: 1)
    with pytest.raises(BudgetExceededError):
        check_typical(p, 1, budget=100)


def test_k_validation():
    p = generate(4, 3, seed=0)
    with pytest.raises(ValueError):
        check_typical(p, 2)


def mixed_statuses(planted: Assembly, noise: float, seed: int) -> Candidates:
    """Statuses of a shuffled bag as windows would give them: inner pieces
    unique with their planted neighborhood, border pieces without windows.
    Each piece is then redrawn with probability ``noise`` as one of the
    kinds the checker tells apart: no window, unique with random
    neighbors, multiple, or planted (a border piece: multiple)."""
    grid = planted.grid
    n = len(grid)
    rng = generator(seed)
    padded = np.full((n + 2, n + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1] = grid
    around = np.stack([padded[1:-1, 2:], padded[2:, 1:-1], padded[1:-1, :-2], padded[:-2, 1:-1]], axis=-1)
    stable = np.empty((n * n, 4), dtype=np.int64)
    stable[grid.ravel()] = around.reshape(-1, 4)
    windows = (stable >= 0).all(axis=1).astype(np.int64)
    kind = np.where(rng.random(n * n) < noise, rng.integers(0, 4, n * n), -1)
    windows[kind == 0] = 0
    windows[kind > 0] = rng.integers(1, 4, int((kind > 0).sum()))
    stable[kind == 1] = rng.integers(0, n * n, (int((kind == 1).sum()), 4))
    stable[kind == 2, rng.integers(0, 4, int((kind == 2).sum()))] = -1
    return Candidates(np.where(windows[:, None] > 0, stable, -1), windows)


@given(
    n=st.integers(3, 9),
    q=st.one_of(st.integers(1, 40), st.just(10**6)),
    k=st.sampled_from([1, 2]),
    noise=st.sampled_from([0.0, 0.03, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    c_prime=st.sampled_from([DEFAULT_C_PRIME, Fraction(1), Fraction(3, 2), Fraction(3)]),
    huge=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_report_matches_reference(n, q, k, noise, seed, c_prime, huge):
    # low q repeats edge colors and shares pairs; huge colors rank the pairs first
    assume(2 * k < n)
    puzzle = generate(n, q, seed)
    if huge:
        shift = 2**63 - 1 - puzzle.q
        puzzle = Puzzle(n, 2**63 - 1, puzzle.hcolors + shift, puzzle.vcolors + shift)
    _, planted = disassemble(puzzle, seed + 1)
    statuses = mixed_statuses(planted, noise, seed + 2)
    assert report_from_candidates(puzzle, planted, statuses, k, c_prime) == reference_report(
        puzzle, planted, statuses, k, c_prime
    )


def test_border_piece_never_names_its_planted_neighborhood():
    # a border position has no planted neighborhood: even claims that name
    # its planted neighbors on the board, and piece 0 off it, do not match
    n = 4
    puzzle = generate(n, 10**6, seed=3)
    planted = Assembly(np.arange(n * n).reshape(n, n))  # position (i, j) holds (j - 1) * n + i - 1
    statuses = claimed_candidates(n * n, {4: (5, 8, 0, 0)})  # position (1, 2): right (2, 2), up (1, 3), down (1, 1)
    report = report_from_candidates(puzzle, planted, statuses, 1)
    assert report.peripheral_witness == ((1, 2), "not planted")
    assert report == reference_report(puzzle, planted, statuses, 1)


def test_report_matches_reference_at_n60():
    for seed in range(10):
        puzzle = generate(60, 3600, seed)
        bag, planted = disassemble(puzzle, seed + 1)
        statuses = candidate_neighborhoods(bag, 1)
        for c_prime in (DEFAULT_C_PRIME, Fraction(2)):
            report = report_from_candidates(puzzle, planted, statuses, 1, c_prime)
            assert report == reference_report(puzzle, planted, statuses, 1, c_prime)
