import random
import tracemalloc
from collections import Counter
from collections.abc import Mapping
from itertools import count

import pytest
from hypothesis import assume, given, settings, strategies

from jigsolve import windows
from jigsolve.gen import generate
from jigsolve.grid import Direction, PieceBag, disassemble
from jigsolve.windows import (
    NO_WINDOW,
    BudgetExceededError,
    CandidateNeighborhood,
    CandidateStatus,
    WindowAssembly,
    aggregate_candidates,
    candidate_neighborhoods,
    enumerate_windows,
)


def test_window_assembly_accessors():
    wa = WindowAssembly(1, tuple(range(9)))
    assert wa.side == 3
    assert wa.center == 4
    assert wa.neighborhood() == CandidateNeighborhood(right=5, up=1, left=3, down=7)


def test_planted_windows_always_appear():
    # every interior planted 3x3 block is a feasible window of the bag
    n = 8
    p = generate(n, 10_000, seed=4)
    bag, planted = disassemble(p, 44)
    found = {wa.cells for wa in enumerate_windows(bag, 1)}
    for ci in range(2, n):
        for cj in range(2, n):
            block = tuple(
                planted.placement[(ci + dx, cj + dy)]
                for dy in (1, 0, -1)
                for dx in (-1, 0, 1)
            )
            assert block in found


def test_windows_are_feasible_and_injective():
    p = generate(5, 4, seed=6)
    bag, _ = disassemble(p, 6)
    pieces = bag.colors
    count = 0
    for wa in enumerate_windows(bag, 1, budget=10**7):
        count += 1
        assert len(set(wa.cells)) == 9
        for r in range(3):
            for c in range(3):
                pid = wa.cells[3 * r + c]
                if c < 2:
                    assert pieces[pid, Direction.RIGHT] == pieces[wa.cells[3 * r + c + 1], Direction.LEFT]
                if r < 2:
                    assert pieces[pid, Direction.DOWN] == pieces[wa.cells[3 * (r + 1) + c], Direction.UP]
    assert count > 0


def test_enumeration_deterministic():
    p = generate(4, 3, seed=1)
    bag, _ = disassemble(p, 2)
    a = list(enumerate_windows(bag, 1, budget=10**7))
    b = list(enumerate_windows(bag, 1, budget=10**7))
    assert a == b


def test_budget_exceeded_on_monochromatic():
    p = generate(4, 1, seed=0)
    bag, _ = disassemble(p, 0)
    with pytest.raises(BudgetExceededError):
        list(enumerate_windows(bag, 1, budget=1000))


def test_budget_counts_candidate_rows():
    # about 3.9 k candidate rows, though a depth-first search places only 1.5 k pieces
    bag, _ = disassemble(generate(3, 2, 1), 2)
    with pytest.raises(BudgetExceededError, match="budget of 2000 candidate rows"):
        list(enumerate_windows(bag, 1, budget=2000))
    assert len(list(enumerate_windows(bag, 1, budget=4000))) == 52


def test_budget_bounds_memory():
    # one color: every row extends by every piece, so the budget is all that stops it
    bag, _ = disassemble(generate(30, 1, 0), 0)
    budget = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            next(enumerate_windows(bag, 1, budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * budget


def test_budget_runs_out_at_a_two_sided_cell():
    # A B  four classes of interchangeable pieces: 10 each of A, B and C, 200
    # C D  of D. Candidate rows: cell 1 takes all 256 pieces; cell 2, with a left
    # neighbor only, the A-B and C-D pairs; cell 3, with an upper neighbor only,
    # a C under each A-B pair; cell 4, pinned by two colors, every D under each
    # of those. Nothing fits right of a B or below a C, so the class rows end
    # there. A separate 3x3 block adds 6, 4 and 4 rows to cells 2-4, 7 to the
    # five cells after them, and gives the one window.
    fresh = count(5)  # colors 1..4 link the classes; every other side is unique
    a, b, c, d = 1, 2, 3, 4
    pieces = [(a, next(fresh), next(fresh), b) for _ in range(10)]
    pieces += [(next(fresh), next(fresh), a, c) for _ in range(10)]
    pieces += [(d, b, next(fresh), next(fresh)) for _ in range(10)]
    pieces += [(next(fresh), c, d, next(fresh)) for _ in range(200)]
    right = [[next(fresh) for _ in range(3)] for _ in range(3)]  # [row][col]
    down = [[next(fresh) for _ in range(3)] for _ in range(3)]
    pieces += [
        (
            right[r][col],
            down[r - 1][col] if r else next(fresh),
            right[r][col - 1] if col else next(fresh),
            down[r][col],
        )
        for r in range(3)
        for col in range(3)
    ]
    pieces += [tuple(next(fresh) for _ in range(4)) for _ in range(256 - len(pieces))]
    bag = PieceBag(16, next(fresh), pieces)
    through_one_sided = 256 + (10 * 10 + 10 * 200 + 6) + (10 * 10 * 10 + 4)
    through_two_sided = through_one_sided + 10 * 10 * 10 * 200 + 4
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            next(enumerate_windows(bag, 1, through_one_sided))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * through_one_sided
    with pytest.raises(BudgetExceededError):
        next(enumerate_windows(bag, 1, through_two_sided - 1))
    with pytest.raises(BudgetExceededError):
        next(enumerate_windows(bag, 1, through_two_sided + 6))
    block = WindowAssembly(1, tuple(range(230, 239)))
    assert list(enumerate_windows(bag, 1, through_two_sided + 7)) == [block]


def test_enumerate_validates_arguments():
    p = generate(3, 2, seed=0)
    bag, _ = disassemble(p, 0)
    with pytest.raises(ValueError):
        list(enumerate_windows(bag, 0))
    with pytest.raises(ValueError):
        list(enumerate_windows(bag, 1, budget=0))


def test_candidates_unique_and_planted_on_easy_puzzle():
    n = 8
    q = n * n * n  # far above the uniqueness threshold at this size
    p = generate(n, q, seed=13)
    bag, planted = disassemble(p, 31)
    statuses = candidate_neighborhoods(bag, 1)
    for v, pid in planted.placement.items():
        st = statuses[pid]
        if 2 <= v[0] <= n - 1 and 2 <= v[1] <= n - 1:
            assert st.kind == "unique"
            expected = CandidateNeighborhood(
                right=planted.placement[(v[0] + 1, v[1])],
                up=planted.placement[(v[0], v[1] + 1)],
                left=planted.placement[(v[0] - 1, v[1])],
                down=planted.placement[(v[0], v[1] - 1)],
            )
            assert st.stable == tuple(expected)
        else:
            assert st.kind == "none"  # corner/edge pieces see no window


def test_candidates_multiple_on_tiny_monochromatic():
    p = generate(3, 1, seed=0)
    bag, _ = disassemble(p, 0)
    statuses = candidate_neighborhoods(bag, 1, budget=10**7)
    multis = [st for st in statuses.values() if st.kind == "multiple"]
    assert multis
    for st in multis:
        assert None in st.stable


def test_candidate_witnesses_realized_by_windows():
    p = generate(4, 3, seed=3)
    bag, _ = disassemble(p, 5)
    neighborhoods = {}
    for wa in enumerate_windows(bag, 1, budget=10**7):
        neighborhoods.setdefault(wa.center, set()).add(wa.neighborhood())
    statuses = candidate_neighborhoods(bag, 1, budget=10**7)
    for pid, st in statuses.items():
        if st.kind == "none":
            assert pid not in neighborhoods
        elif st.kind == "unique":
            assert neighborhoods[pid] == {st.stable}
        else:
            assert len(neighborhoods[pid]) >= 2
            # stable directions agree across every observed neighborhood
            for d in range(4):
                claims = {nb[d] for nb in neighborhoods[pid]}
                if st.stable[d] is None:
                    assert len(claims) > 1
                else:
                    assert claims == {st.stable[d]}


@given(
    nq=strategies.integers(3, 5).flatmap(
        lambda n: strategies.tuples(strategies.just(n), strategies.integers(n, 3 * n))
    ),
    seed=strategies.integers(0, 10**9),
)
@settings(max_examples=40, deadline=None)
def test_aggregate_independent_of_stream_order(nq, seed):
    n, q = nq
    bag, _ = disassemble(generate(n, q, seed), seed)
    stream = list(enumerate_windows(bag, 1, budget=10**7))
    shuffled = stream[:]
    random.Random(seed).shuffle(shuffled)
    expected = aggregate_candidates(n * n, iter(stream))
    assert aggregate_candidates(n * n, reversed(stream)) == expected
    assert aggregate_candidates(n * n, iter(shuffled)) == expected


def fold_windows(num_pieces, stream):
    """Per-window reference fold: the neighbors every window of a piece agrees on."""
    agreed = {}
    for wa in stream:
        nb = list(wa.neighborhood())
        seen = agreed.setdefault(wa.center, nb)
        for d in range(4):
            if seen[d] != nb[d]:
                seen[d] = None
    return {
        pid: CandidateStatus("multiple" if None in agreed[pid] else "unique", tuple(agreed[pid]))
        if pid in agreed
        else NO_WINDOW
        for pid in range(num_pieces)
    }


@given(
    n=strategies.integers(3, 6),
    k=strategies.sampled_from((1, 2)),
    q_per_n=strategies.integers(1, 4),
    seed=strategies.integers(0, 10**9),
)
@settings(max_examples=60, deadline=None)
def test_aggregate_matches_per_window_fold(n, k, q_per_n, seed):
    bag, _ = disassemble(generate(n, q_per_n * n, seed), seed)
    try:
        stream = list(enumerate_windows(bag, k, budget=10**6))
    except BudgetExceededError:
        assume(False)
    expected = fold_windows(n * n, stream)
    got = aggregate_candidates(n * n, iter(stream))
    for pid in range(n * n):
        assert (got[pid].kind, got[pid].stable) == (expected[pid].kind, expected[pid].stable)
    assert got.windows.tolist() == [Counter(wa.center for wa in stream)[pid] for pid in range(n * n)]


def test_candidates_mapping_contract():
    # what the CLI and outside tracers read: a read-only mapping of ids to statuses
    n = 4
    bag, _ = disassemble(generate(n, 3, seed=3), 5)
    got = candidate_neighborhoods(bag, 1, budget=10**7)
    assert isinstance(got, Mapping)
    assert len(got) == n * n and list(got) == list(range(n * n))
    values = list(got.values())
    assert values == [got[pid] for pid in got] and list(got.items()) == list(enumerate(values))
    assert all(isinstance(st, CandidateStatus) for st in values)
    assert all(st is NO_WINDOW for st in values if st.kind == "none")
    kinds = Counter(st.kind for st in values)
    assert kinds["unique"] == got.unique.sum() and kinds["multiple"] == got.multiple.sum() > 0
    assert kinds["none"] == (got.windows == 0).sum()
    assert got == dict(got.items()) == candidate_neighborhoods(bag, 1, budget=10**7)
    for missing in (-1, n * n, "0", 1.5, None):
        assert missing not in got
        with pytest.raises(KeyError):
            got[missing]
    assert got.get(n * n) is None


def test_chunked_extension_keeps_the_stream(monkeypatch):
    # cells past the chunk bound are expanded a few parents at a time,
    # with the same rows in the same order
    bag, _ = disassemble(generate(4, 3, seed=3), 5)
    whole = list(enumerate_windows(bag, 1, budget=10**7))
    monkeypatch.setattr(windows, "_CHUNK_ROWS", 7)
    assert list(enumerate_windows(bag, 1, budget=10**7)) == whole
    monkeypatch.setattr(windows, "_CHUNK_ROWS", 1)
    assert list(enumerate_windows(bag, 1, budget=10**7)) == whole
