from fractions import Fraction

import pytest

from jigsolve.assemble import solve
from jigsolve.gen import generate
from jigsolve.grid import Assembly, disassemble, piece_at, positions_row_major
from jigsolve.typicality import DEFAULT_C_PRIME, check_typical, report_from_candidates
from jigsolve.windows import BudgetExceededError, candidate_neighborhoods
from helpers import claimed_candidates, explicit_puzzle


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
        out = solve(bag, n, 1)
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
