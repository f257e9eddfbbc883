import hashlib
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import chain, count

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from jigsolve import windows
from jigsolve.gen import generate
from jigsolve.grid import DOWN, LEFT, RIGHT, STEPS, UP, PieceBag, disassemble
from jigsolve.oracle import brute_force_window_rows, brute_force_windows
from jigsolve.windows import (
    BudgetExceededError,
    CandidateStatus,
    WindowAssembly,
    aggregate_candidates,
    candidate_neighborhoods,
    enumerate_windows,
    window_rows,
)

def same_candidates(a, b):
    return np.array_equal(a.stable, b.stable) and np.array_equal(a.windows, b.windows)


def test_planted_windows_always_appear():
    # every interior planted 3x3 block is a feasible window of the bag
    n = 8
    p = generate(n, 10_000, seed=4)
    bag, planted = disassemble(p, 44)
    found = set(map(tuple, window_rows(bag, 1).tolist()))
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
    rows = window_rows(bag, 1, budget=10**7)
    assert len(rows) > 0
    assert all(len(set(cells)) == 9 for cells in rows.tolist())
    colors = bag.colors[rows.reshape(-1, 3, 3)]  # [window, row, column, side], top row first
    assert (colors[:, :, :-1, RIGHT] == colors[:, :, 1:, LEFT]).all()
    assert (colors[:, :-1, :, DOWN] == colors[:, 1:, :, UP]).all()


def test_enumeration_deterministic():
    p = generate(4, 3, seed=1)
    bag, _ = disassemble(p, 2)
    a = window_rows(bag, 1, budget=10**7)
    b = window_rows(bag, 1, budget=10**7)
    assert np.array_equal(a, b)


def test_budget_exceeded_on_monochromatic():
    p = generate(4, 1, seed=0)
    bag, _ = disassemble(p, 0)
    with pytest.raises(BudgetExceededError):
        list(enumerate_windows(bag, 1, budget=1000))


def test_budget_counts_candidate_rows():
    # about 3.8 k candidate rows, though a depth-first search places only 1.5 k pieces
    bag, _ = disassemble(generate(3, 2, 1), 2)
    with pytest.raises(BudgetExceededError, match="budget of 2000 candidate rows"):
        list(enumerate_windows(bag, 1, budget=2000))
    assert len(list(enumerate_windows(bag, 1, budget=4000))) == 52


def _domino_rows(bag: PieceBag, k: int) -> int:
    """Candidate rows of the domino steps, walked one partial window at a
    time: both domino tables (each piece with every piece that matches its
    right or down side, itself included), then for each later step every
    single or distinct pair that fits the placed neighbors, before the
    candidates that repeat a piece of the window are dropped."""
    side = 2 * k + 1
    steps = []
    for s in range(1, side):
        if s >= 2:
            steps += [[(s, 0), (s, 1)]] + [[(s, r)] for r in range(2, s)]
        steps += [[(0, s), (1, s)]] + [[(c, s)] for c in range(2, s + 1)]
    colors = bag.colors.tolist()
    pids = range(len(colors))
    across = [(p, r) for p in pids for r in pids if colors[p][RIGHT] == colors[r][LEFT]]
    down = [(p, r) for p in pids for r in pids if colors[p][DOWN] == colors[r][UP]]
    total = len(across) + len(down)

    def fits(row: dict, cell: tuple[int, int], pid: int) -> bool:
        c, r = cell
        return ((c - 1, r) not in row or colors[row[c - 1, r]][RIGHT] == colors[pid][LEFT]) and (
            (c, r - 1) not in row or colors[row[c, r - 1]][DOWN] == colors[pid][UP]
        )

    def walk(row: dict, step: int) -> None:
        nonlocal total
        if step == len(steps):
            return
        cells = steps[step]
        if len(cells) == 1:
            fitting = [(pid,) for pid in pids if fits(row, cells[0], pid)]
        else:
            table = across if cells[0][1] == cells[1][1] else down
            fitting = [(p, r) for p, r in table if p != r and fits(row, cells[0], p) and fits(row, cells[1], r)]
        total += len(fitting)
        for pieces in fitting:
            if not set(pieces) & set(row.values()):
                walk({**row, **dict(zip(cells, pieces))}, step + 1)

    for p, r in across:
        if p != r:
            walk({(0, 0): p, (1, 0): r}, 0)
    return total


def test_budget_counts_domino_steps():
    # Few colors make pieces that pair with themselves and candidates that
    # repeat a piece the window holds; the budget counts both.
    for n, q, s, k in ((3, 2, 1, 1), (4, 3, 0, 1), (4, 4, 1, 1), (5, 6, 0, 2)):
        bag, _ = disassemble(generate(n, q, s), s + 1)
        need = _domino_rows(bag, k)
        window_rows(bag, k, need)
        with pytest.raises(BudgetExceededError):
            window_rows(bag, k, need - 1)


def test_budget_bounds_memory():
    # one color: every row extends by every piece, so the budget is all that
    # stops it. The domino tables are counted before they are built: at
    # n=60 they would hold 13 M pairs, at n=30 1.6 M, which a budget of
    # 2 * 10^6 admits, so there both are built whole, one extension each,
    # and the first step runs out.
    for n, budget in ((30, 10**6), (30, 2 * 10**6), (60, 10**6)):
        bag, _ = disassemble(generate(n, 1, 0), 0)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                next(enumerate_windows(bag, 1, budget))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * budget, (n, budget)


def test_budget_runs_out_at_a_two_sided_cell():
    # A B  four classes of interchangeable pieces: 10 each of A, B and C, 200
    # C D  of D. Both domino tables are counted first: the A-B and C-D pairs
    # across, the A-C and B-D pairs down. The horizontal ones are the first
    # step's rows. The next step, pinned by the down colors of an A-B pair,
    # takes every C-D pair under it, so D's cell is pinned by two colors.
    # Nothing fits right of a B or below a C, so the class rows end there. A
    # separate 3x3 block adds 6 pairs to each table, 4 rows to that step, 4
    # to the three steps after it, and gives the one window.
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
    dominoes = 10 * 10 + 10 * 200 + 6
    tables = 2 * dominoes
    through_two_sided = tables + 10 * 10 * 10 * 200 + 4
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            next(enumerate_windows(bag, 1, tables))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * tables
    with pytest.raises(BudgetExceededError):
        next(enumerate_windows(bag, 1, through_two_sided - 1))
    with pytest.raises(BudgetExceededError):
        next(enumerate_windows(bag, 1, through_two_sided + 3))
    block = WindowAssembly(1, tuple(range(230, 239)))
    assert list(enumerate_windows(bag, 1, through_two_sided + 4)) == [block]


#: SHA-256 of the shape, dtype and bytes of ``window_rows(bag, k)`` for
#: bags ``disassemble(generate(n, q, s), s + 1)``, keyed (n, q, k, s) and
#: hashed with the cell-by-cell enumeration. Aggregation and the
#: benchmark's window counter read the rows in this order.
WINDOW_ROWS_SHA256 = {
    (4, 4, 1, 0): "7495f1f8d3d3f6f71bd478b0b985173836c24f333b431037ad2bbb55acf8e71a",
    (4, 4, 1, 1): "031f5abaedea821796da417bda4f1c4548c555ffab9a0571fe8efcba0ec844a9",
    (4, 2, 1, 0): "e5634b7150cbeadf71ddde7383e0d1dc738f259ecc32dcb70c32b320b519cce0",
    (4, 2, 1, 1): "3632079a891cd55d61927a72750dae062eb600d5438924345a35621bf53069e5",
    (30, 231, 1, 0): "f66f46fcbbc818dc7da01ab29ce5f16e29a2cfa4fb6bc57db2e0027b2624255b",
    (30, 231, 1, 1): "a9900413bd0e5ea13305b1941d0031c456faeeacfd31417e8d157b516368a578",
    (60, 600, 1, 0): "84996f52b4d6a7f1bc3b01343445f83929b05dcf9a424dd7737326118bd77a34",
    (60, 600, 1, 1): "97c05652f94392e21f8a352cbb81ff3daf5f6d5ae17280bd894985a8308775ac",
    (60, 3600, 1, 0): "9a0a879b1208e4f008b1cad07fef13d24e1c254a9fb5b4e8c49a5cc90ddd1aa7",
    (60, 3600, 1, 1): "82b534d29c1e3cb1ee8beacd37e0965c9b735b3275fb59d22c7483921be8402b",
    (5, 8, 2, 0): "fde4d8dfef97177358bac6558a7a161549c9e405e53fc441ccaaff1b6a0fccaf",
    (5, 8, 2, 1): "943b9ff7312d1e4242b491922ea5a2af2478974e8c65aac179aef03144f7de33",
    (6, 12, 2, 0): "f95fb455b93783a1938c12bd14b96b4f9816105951c43cfa4cf9fd38b7bd6ccf",
    (6, 12, 2, 1): "c37122bb79a601c60f22244cc761687ddeca87d95390fc2ffda8e2c5a4e3090c",
    (30, 84, 2, 0): "eda91ac7641c7b91bced97e526f6b1d47c067ee81d8b0aeb81472382ed66f417",
    (30, 84, 2, 1): "a9e26adc57d99a8b91db21f86ede5ba9f3339cf20446dabb9296186bfd94c9a9",
    (30, 84, 3, 0): "29dd887f37e860ae30a6d78e5e576ca025b124425eaf20587fef1c2051902a5d",
    (30, 84, 3, 1): "d7a1cc94fc32b7286077ff6bcc113ed2e50739d53ad628a034eaae402292552b",
    # the widest steps take 408,108 and 421,346 candidate rows, so at the
    # default _CHUNK_ROWS their parents split into several runs
    (24, 48, 2, 0): "a1689a3aa6ce58108d6222fd55ad41a73c734188fae6a441fd6b1f827ca96211",
    (24, 48, 2, 1): "1b5082b50304169a4abc50ed4c90fa7557298b798c464b5c29a9565a2bbec67b",
}


def test_window_rows_pinned():
    for (n, q, k, s), digest in WINDOW_ROWS_SHA256.items():
        bag, _ = disassemble(generate(n, q, s), s + 1)
        rows = window_rows(bag, k)
        got = hashlib.sha256(f"{rows.shape} {rows.dtype.str}".encode() + rows.tobytes()).hexdigest()
        assert got == digest, (n, q, k, s)


def test_enumerate_validates_arguments():
    p = generate(3, 2, seed=0)
    bag, _ = disassemble(p, 0)
    with pytest.raises(ValueError):
        list(enumerate_windows(bag, 0))
    with pytest.raises(ValueError):
        list(enumerate_windows(bag, 1, budget=0))
    with pytest.raises(ValueError):
        window_rows(bag, 0)
    with pytest.raises(ValueError):
        window_rows(bag, 1, budget=0)


def test_candidates_unique_and_planted_on_easy_puzzle():
    n = 8
    q = n * n * n  # far above the uniqueness threshold at this size
    p = generate(n, q, seed=13)
    bag, planted = disassemble(p, 31)
    statuses = candidate_neighborhoods(bag, 1)
    for (i, j), pid in planted.placement.items():
        if 2 <= i <= n - 1 and 2 <= j <= n - 1:
            assert statuses.unique[pid]
            expected = [planted.placement[(i + dx, j + dy)] for dx, dy in STEPS]
            assert statuses.stable[pid].tolist() == expected
        else:
            assert statuses.windows[pid] == 0  # corner/edge pieces see no window


def test_candidates_multiple_on_tiny_monochromatic():
    p = generate(3, 1, seed=0)
    bag, _ = disassemble(p, 0)
    statuses = candidate_neighborhoods(bag, 1, budget=10**7)
    assert statuses.multiple.any()
    assert (statuses.stable[statuses.multiple] < 0).any(axis=1).all()


def test_candidate_witnesses_realized_by_windows():
    p = generate(4, 3, seed=3)
    bag, _ = disassemble(p, 5)
    neighborhoods = {}
    # row-major cells 4, 5, 1, 3 and 7: the center and its right, up, left and down neighbors
    for center, *around in window_rows(bag, 1, budget=10**7)[:, [4, 5, 1, 3, 7]].tolist():
        neighborhoods.setdefault(center, set()).add(tuple(around))
    statuses = candidate_neighborhoods(bag, 1, budget=10**7)
    for pid, stable in enumerate(statuses.stable.tolist()):
        if statuses.windows[pid] == 0:
            assert pid not in neighborhoods
        elif statuses.unique[pid]:
            assert neighborhoods[pid] == {tuple(stable)}
        else:
            assert statuses.multiple[pid]
            assert len(neighborhoods[pid]) >= 2
            # stable directions agree across every observed neighborhood
            for d in range(4):
                claims = {nb[d] for nb in neighborhoods[pid]}
                if stable[d] < 0:
                    assert len(claims) > 1
                else:
                    assert claims == {stable[d]}


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
    assert same_candidates(aggregate_candidates(n * n, reversed(stream)), expected)
    assert same_candidates(aggregate_candidates(n * n, iter(shuffled)), expected)


def fold_windows(stream):
    """Per-window reference fold: for each piece with windows, the right, up,
    left and down neighbors every window of it agrees on, -1 where two differ."""
    agreed = {}
    for wa in stream:
        side = 2 * wa.k + 1
        mid = wa.k * side + wa.k
        nb = [wa.cells[mid + 1], wa.cells[mid - side], wa.cells[mid - 1], wa.cells[mid + side]]
        seen = agreed.setdefault(wa.cells[mid], nb)
        for d in range(4):
            if seen[d] != nb[d]:
                seen[d] = -1
    return agreed


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
    expected = fold_windows(stream)
    got = aggregate_candidates(n * n, iter(stream))
    for pid in range(n * n):
        agreed = expected.get(pid)
        assert got.stable[pid].tolist() == (agreed or [-1] * 4)
        assert got.unique[pid] == (agreed is not None and -1 not in agreed)
        assert got.multiple[pid] == (agreed is not None and -1 in agreed)
    centers = Counter(wa.cells[len(wa.cells) // 2] for wa in stream)
    assert got.windows.tolist() == [centers[pid] for pid in range(n * n)]


def same_folds(a, b):
    return same_candidates(a, b) and np.array_equal(a.unique, b.unique) and np.array_equal(a.multiple, b.multiple)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n, q", [(5, 5), (5, 8), (8, 12), (8, 20), (30, 84), (30, 231)])
def test_row_fold_equals_tuple_fold(n, q, k):
    # a fresh stream is folded from its rows; a list of its tuples, as the
    # benchmark's tracer passes, through the tuple reader; a started stream
    # folds only the windows it has not given yet, as a generator would
    for seed in range(3):
        bag, _ = disassemble(generate(n, q, seed), seed + 1)
        tuples = list(enumerate_windows(bag, k))
        from_rows = aggregate_candidates(n * n, enumerate_windows(bag, k))
        assert same_folds(from_rows, aggregate_candidates(n * n, iter(tuples))), (n, q, k, seed)
        started = enumerate_windows(bag, k)
        next(started, None)
        assert same_folds(aggregate_candidates(n * n, started), aggregate_candidates(n * n, iter(tuples[1:])))


def test_row_fold_without_windows_and_over_budget():
    bag, _ = disassemble(generate(3, 9, 0), 1)  # nine pieces hold no 5x5 window
    for windows_of in (lambda: enumerate_windows(bag, 2), lambda: iter(list(enumerate_windows(bag, 2)))):
        empty = aggregate_candidates(9, windows_of())
        assert empty.stable.tolist() == [[-1] * 4] * 9 and empty.windows.tolist() == [0] * 9
        assert not empty.unique.any() and not empty.multiple.any()
    with pytest.raises(BudgetExceededError):
        aggregate_candidates(9, enumerate_windows(bag, 1, budget=1))


def test_aggregate_candidates_on_a_hand_built_stream():
    # k=1 windows given by their middle cell and its right, up, left and
    # down neighbors; the corners do not reach the fold
    def window(center, right, up, left, down):
        return WindowAssembly(1, (50, up, 51, left, center, right, 52, down, 53))

    stream = [
        window(0, 1, 2, 3, 4),
        window(2, 6, 7, 8, 9),
        window(5, 1, 2, 3, 4),
        window(0, 1, 5, 3, 4),  # disagrees with the first window of 0 upward only
        window(3, 4, 5, 6, 7),
        window(2, 6, 7, 8, 9),
        window(5, 4, 3, 2, 1),  # disagrees with the first window of 5 on every side
        window(0, 1, 2, 3, 4),
        window(2, 6, 7, 8, 1),  # the only disagreement of 2 is its last window, downward
    ]
    expected = {0: [1, -1, 3, 4], 2: [6, 7, 8, -1], 3: [4, 5, 6, 7], 5: [-1] * 4}
    assert fold_windows(stream) == expected
    for order in (stream, stream[::-1]):
        got = aggregate_candidates(10, iter(order))
        assert got.stable.tolist() == [expected.get(pid, [-1] * 4) for pid in range(10)]
        assert got.windows.tolist() == [3, 0, 3, 1, 0, 2, 0, 0, 0, 0]
        assert np.flatnonzero(got.unique).tolist() == [3]
        assert np.flatnonzero(got.multiple).tolist() == [0, 2, 5]
    empty = aggregate_candidates(6, iter([]))
    assert empty.stable.tolist() == [[-1] * 4] * 6 and empty.windows.tolist() == [0] * 6
    assert not empty.unique.any() and not empty.multiple.any()
    with pytest.raises(IndexError):
        aggregate_candidates(5, iter([window(0, 1, 2, 3, 4), window(5, 1, 2, 3, 4)]))


@pytest.mark.parametrize("n, q, seed, k", [(5, 8, 3, 1), (6, 10, 2, 2)])
def test_adapter_tuples_are_exactly_window_assemblies(n, q, seed, k):
    # the benchmark hashes and compares the adapters' tuples, so each must be
    # a WindowAssembly of Python ints, equal to (k, cells) and hashing alike
    bag, _ = disassemble(generate(n, q, seed), 4)
    stream = list(enumerate_windows(bag, k, budget=10**7))
    brute = [brute_force_windows(bag, center, k) for center in range(n * n)]
    assert [] in brute and len(stream) == sum(map(len, brute)) > 0
    for wa in chain(stream, *brute):
        assert type(wa) is WindowAssembly and type(wa.k) is int and wa.k == k
        assert type(wa.cells) is tuple and len(wa.cells) == (2 * k + 1) ** 2
        assert all(type(c) is int for c in wa.cells)
        assert wa == (k, wa.cells) and hash(wa) == hash((k, wa.cells))


def test_perfbench_adapter_contract():
    # what the benchmark reads: statuses by id from values(), the stream's
    # cells and the brute-force list's cells, each equal to the arrays
    n = 5  # 10 unique pieces, 11 multiple (8 with a stable direction) and 4 without windows
    bag, _ = disassemble(generate(n, 8, seed=3), 4)
    got = candidate_neighborhoods(bag, 1, budget=10**7)
    values = got.values()
    assert len(values) == n * n and all(isinstance(st, CandidateStatus) for st in values)
    for st, unique, multiple in zip(values, got.unique, got.multiple):
        assert st.kind == ("unique" if unique else "multiple" if multiple else "none")
    # a status is its kind alone; the agreed neighbors stay in the array
    assert set(values) == {CandidateStatus(kind) for kind in ("none", "unique", "multiple")}
    assert (got.stable[got.multiple] >= 0).any(axis=1).sum() == 8
    kinds = Counter(st.kind for st in values)
    assert kinds["unique"] == got.unique.sum() and kinds["multiple"] == got.multiple.sum() > 0
    assert kinds["none"] == (got.windows == 0).sum() > 0
    # the tracer calls next on the stream and the oracle job loops over it:
    # both give the rows' tuples in order, and the call itself is lazy
    rows = window_rows(bag, 1, budget=10**7)
    expected = [(1, cells) for cells in map(tuple, rows.tolist())]
    stream = enumerate_windows(bag, 1, budget=10**7)
    assert [(wa.k, wa.cells) for wa in iter(stream)] == expected
    stream = enumerate_windows(bag, 1, budget=10**7)
    assert [tuple(next(stream)) for _ in expected] == expected
    with pytest.raises(StopIteration):
        next(stream)
    lazy = enumerate_windows(bag, 1, budget=1)
    with pytest.raises(BudgetExceededError):
        next(lazy)
    every = brute_force_window_rows(bag, 1)
    for center in range(n * n):
        brute = every[every[:, 4] == center]
        assert [(wa.k, wa.cells) for wa in brute_force_windows(bag, center, 1)] == [
            (1, cells) for cells in map(tuple, brute.tolist())
        ]


def test_chunked_extension_keeps_the_stream(monkeypatch):
    # steps past the run bound split their parents into runs, each taken
    # through every later step before the next (at 1, one parent with
    # candidates per run), with the same rows in the same order; the stream
    # only reads the rows, so it is compared once, across many of its
    # 1024-row batches
    bag, _ = disassemble(generate(4, 3, seed=3), 5)
    rows = window_rows(bag, 1, budget=10**7)
    assert len(rows) > 10 * 1024
    stream = [wa.cells for wa in enumerate_windows(bag, 1, budget=10**7)]
    assert stream == list(map(tuple, rows.tolist()))
    for chunk in (7, 1):
        monkeypatch.setattr(windows, "_CHUNK_ROWS", chunk)
        assert np.array_equal(window_rows(bag, 1, budget=10**7), rows)


def test_deep_windows_take_no_recursion():
    # k=16 places a 33x33 window in 1024 steps, one level each on the
    # walk's stack; the only windows are the four planted ones
    bag, planted = disassemble(generate(34, 10**6, 0), 1)
    rows = window_rows(bag, 16)
    top = planted.grid[::-1]  # row 0 on top, as in a window
    blocks = [top[r : r + 33, c : c + 33].ravel().tolist() for r in (0, 1) for c in (0, 1)]
    assert sorted(rows.tolist()) == sorted(blocks)


def test_runs_bound_memory(monkeypatch):
    # with runs of 2^12 candidate rows, no step is held whole: the peak
    # stays below the two int64 index arrays (parent and entry) that the
    # widest step, 145,609 candidate rows, would take in one piece
    bag, _ = disassemble(generate(20, 40, 0), 1)
    rows = window_rows(bag, 2)
    monkeypatch.setattr(windows, "_CHUNK_ROWS", 1 << 12)
    tracemalloc.start()
    try:
        chunked = window_rows(bag, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, rows)
    assert peak < 145_609 * 16


def test_extended_runs_release_their_parents(monkeypatch):
    # a run's slices are the last references to its parent level, so by the
    # time the next step looks its cells up, that level is gone; only the
    # first level, the horizontal dominoes, stays, since the step tables
    # are built from it
    parents = []
    checks = 0
    extend, runs = windows._extend, windows._Index.runs

    def recorded(cols, *rest):
        if cols[0].base is not None:  # a run, not the pieces of a domino table
            parents.append(weakref.ref(cols[0].base))
        return extend(cols, *rest)

    def checked(index, key):
        nonlocal checks
        if len(parents) >= 2:
            assert parents[-1]() is None, f"the parents of run {len(parents)} are still held"
            checks += 1
        return runs(index, key)

    monkeypatch.setattr(windows, "_extend", recorded)
    monkeypatch.setattr(windows._Index, "runs", checked)
    bag, _ = disassemble(generate(20, 40, 0), 1)
    assert len(window_rows(bag, 2)) == 1348
    assert checks == 14  # 16 steps of one run each, checked from the third
