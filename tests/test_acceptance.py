"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line once its assertions hold (visible with -s).
The heavy window-equivalence criterion compares the fast and brute-force
windows of each puzzle as arrays, packed one int64 a window and sorted,
so duplicates count. It parallelizes over seeds; on a single-core host
it runs serially.
"""

import hashlib
import math
import multiprocessing
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from jigsolve.constraints import (
    SQRT_TOL,
    WindowMap,
    boundary_of,
    build_constraint_graph,
    feasibility_probability,
    is_satisfied,
    partition_bound,
    tiles_of,
)
from jigsolve.experiments import CSV_HEADER, SweepConfig, sweep
from jigsolve.gen import generate, generate_variant
from jigsolve.grid import Assembly, disassemble, is_feasible
from jigsolve.oracle import brute_force_window_rows
from jigsolve.variant import (
    brute_force_variant_solve,
    identity_assembly,
    is_feasible_rot_assembly,
    make_involution,
)
from jigsolve.windows import window_rows
from helpers import random_window_map

EXAMPLE_MAP = WindowMap(2, {(1, 1): (1, 1), (1, 2): (3, 2), (2, 1): (3, 1), (2, 2): (1, 2)})


def test_c01_worked_example_exact():
    start = time.perf_counter()
    tiles = tiles_of(EXAMPLE_MAP)
    assert [sorted(t) for t in tiles] == [[(1, 1), (1, 2)], [(3, 1), (3, 2)]]
    _, stats = build_constraint_graph(EXAMPLE_MAP)
    assert stats.num_vertices == 6
    assert stats.num_components == 3
    assert stats.rank == 3
    for q in (2, 3, 5):
        assert feasibility_probability(stats, q) == Fraction(1, q**3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 worked example exact: PASS ({elapsed:.3f}s)")


def test_c02_rank_lower_bound():
    start = time.perf_counter()
    rng = random.Random(0xC2)
    checked = 0
    for k, n in ((1, 6), (1, 10), (2, 6), (2, 10)):
        for _ in range(2500):
            wm = random_window_map(rng, k, n)
            _, stats = build_constraint_graph(wm)
            assert 2 * stats.rank >= stats.num_constraints + stats.num_leaf_constraints, wm
            checked += 1
    assert checked == 10_000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 rank >= (w+u)/2 on {checked} maps: PASS ({elapsed:.1f}s)")


def _probability_law_maps():
    """Five window maps with ranks 1..5, all targeting a 4x4 board."""
    m1 = WindowMap(1, {(0, 0): (1, 1), (1, 0): (3, 1)})
    m2 = WindowMap(
        1,
        {(0, 0): (1, 1), (1, 0): (3, 1), (0, 1): (1, 2), (1, 1): (3, 2)},
    )
    m3 = EXAMPLE_MAP
    m4 = WindowMap(2, dict(EXAMPLE_MAP.mapping) | {(-2, -2): (1, 4), (-1, -2): (3, 4)})
    m5 = WindowMap(
        2,
        dict(m4.mapping) | {(-2, 0): (1, 3), (-1, 0): (3, 3)},
    )
    return (m1, m2, m3, m4, m5)


def test_c03_feasibility_probability_law():
    start = time.perf_counter()
    q = 3
    trials = 100_000
    for expected_rank, wm in enumerate(_probability_law_maps(), start=1):
        graph, stats = build_constraint_graph(wm)
        assert stats.rank == expected_rank
        hits = 0
        base = expected_rank * 10_000_000
        for t in range(trials):
            hits += is_satisfied(graph, generate(4, q, seed=base + t))
        p = q ** (-expected_rank)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) <= 4 * sigma, (expected_rank, hits)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 probability law q^-rank (ranks 1..5): PASS ({elapsed:.1f}s)")


def test_c04_isoperimetry():
    start = time.perf_counter()
    # (a) every subset of a 4x4 box, exactly
    cells = [(i, j) for i in range(4) for j in range(4)]
    for mask in range(1, 1 << 16):
        subset = [cells[b] for b in range(16) if mask >> b & 1]
        count, _ = boundary_of(subset)
        assert count * count >= 16 * len(subset), subset
    # (b) every partition of s^2 for s <= 7
    def descending_partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in descending_partitions(total - first, first):
                yield (first,) + rest

    for s in range(1, 8):
        for parts in descending_partitions(s * s, s * s):
            result = partition_bound(parts, s)
            assert result.surplus >= result.lower_bound - SQRT_TOL, (s, parts)
    # (c) full-window injections: rank >= t (2 - 2/s)
    rng = random.Random(0xC4)
    for k in (1, 2, 3):
        s = 2 * k + 1
        n = 4 * s
        for _ in range(10_000):
            wm = random_window_map(rng, k, n, full=True)
            t = len(tiles_of(wm)) - 1
            _, stats = build_constraint_graph(wm)
            assert stats.rank >= t * (2 - 2 / s) - SQRT_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 isoperimetry (subsets, partitions, windows): PASS ({elapsed:.1f}s)")


def _sorted_keys(rows, base):
    # one int64 per window: its cells as the digits of a base-N number
    # (at most 16^9 = 2^36 here), sorted
    keys = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        keys = keys * base + column
    return np.sort(keys)


def _windows_equal_for_seed(args):
    # the fast and brute-force windows as equal multisets: the same sorted rows
    n, q, seed = args
    puzzle = generate(n, q, seed=seed)
    bag, _ = disassemble(puzzle, seed + 1)
    fast = window_rows(bag, 1, budget=10**8)
    fast_count, fast = len(fast), _sorted_keys(fast, n * n)
    brute = brute_force_window_rows(bag, 1)
    brute_count, brute = len(brute), _sorted_keys(brute, n * n)
    return (np.array_equal(fast, brute), fast_count, brute_count)


def test_c05_oracle_equivalence():
    start = time.perf_counter()
    jobs = []
    for n in (3, 4):
        for q in (2, 3, 4):
            for s in range(50):
                jobs.append((n, q, 1000 * n + 10 * q + s))
    workers = min(multiprocessing.cpu_count(), 8)
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_windows_equal_for_seed, jobs, chunksize=4)
    else:
        results = [_windows_equal_for_seed(job) for job in jobs]
    for job, (ok, fast_count, brute_count) in zip(jobs, results):
        assert ok, f"window multisets differ at {job}: fast={fast_count} brute={brute_count}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.0f}s (>120s)"
    print(f"ACCEPTANCE 5 oracle equivalence on {len(jobs)} puzzles: PASS ({elapsed:.0f}s)")


CRITERION6_CONFIG = SweepConfig(
    ns=(30,), k=1, trials=200, master_seed=0x20260808, alphas=(1.6,)
)

#: SHA-256 of the criterion-6 CSV without its runtime column: every line cut
#: at its last comma, header included, joined by newlines. A change of this
#: value means a change of the solver's or the checker's results.
CRITERION6_FIRST_NINE_SHA256 = "d844375a90cef708f41506721dbaf1204f7b2958e20f667d299ea9425817e568"


@pytest.fixture(scope="module")
def criterion6_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "criterion6.csv"
    start = time.perf_counter()
    with open(out, "w") as fh:
        sweep(CRITERION6_CONFIG, fh)
    return out, time.perf_counter() - start


def _parse_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append(
            {
                "typical": fields[4] == "true",
                "solved": fields[5] == "true",
                "planted_match": fields[6] == "true",
            }
        )
    return rows


def test_c06_typicality_implies_recovery(criterion6_csv):
    path, elapsed = criterion6_csv
    rows = _parse_rows(path)
    assert len(rows) == 200
    exceptions = [r for r in rows if r["typical"] and not r["planted_match"]]
    assert not exceptions, f"{len(exceptions)} typical trials missed the planted assembly"
    matches = sum(r["planted_match"] for r in rows)
    assert matches >= 0.9 * len(rows), f"planted recovery {matches}/200"
    typical_count = sum(r["typical"] for r in rows)
    assert elapsed < 600.0
    print(
        f"ACCEPTANCE 6 typical=>recovery (0 exceptions of {typical_count} typical), "
        f"recovery {matches}/200: PASS ({elapsed:.0f}s)"
    )


def test_c07_easy_regime():
    start = time.perf_counter()
    config = SweepConfig(ns=(30,), k=1, trials=100, master_seed=0xEA5, qs=(900,))
    from jigsolve.experiments import sweep_records

    matches = sum(rec.planted_match for rec in sweep_records(config))
    assert matches >= 95, f"planted recovery {matches}/100"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7 easy regime q=n^2 recovery {matches}/100: PASS ({elapsed:.0f}s)")


def test_c08_duplicates_break_vertex_uniqueness():
    start = time.perf_counter()
    n, q, seeds = 20, 3, 50
    with_duplicates = 0
    for seed in range(seeds):
        puzzle = generate(n, q, seed=seed)
        bag, planted = disassemble(puzzle, seed)
        by_value = {}
        dup = None
        for pid, piece in enumerate(map(tuple, bag.colors.tolist())):
            if piece in by_value:
                dup = (by_value[piece], pid)
                break
            by_value[piece] = pid
        if dup is None:
            continue
        with_duplicates += 1
        a, b = dup
        swapped = {
            v: (b if pid == a else a if pid == b else pid)
            for v, pid in planted.placement.items()
        }
        assert is_feasible(bag, Assembly(swapped)), f"swap not feasible at seed {seed}"
    assert with_duplicates >= 0.9 * seeds
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 8 duplicate pieces on {with_duplicates}/{seeds} puzzles, "
        f"all swaps feasible: PASS ({elapsed:.1f}s)"
    )


def test_c09_variant_model():
    start = time.perf_counter()
    # identity assembly is feasible for any generated variant puzzle
    for seed in range(10):
        for q, kind in ((1, "identity"), (5, "pairing"), (9, "identity")):
            vp = generate_variant(3, q, make_involution(q, kind), seed=seed)
            assert is_feasible_rot_assembly(vp, identity_assembly(3))
    # exhaustive count at n=2, q=1, identity involution
    vp = generate_variant(2, 1, make_involution(1, "identity"), seed=0)
    assert len(brute_force_variant_solve(vp, limit=2000)) == 1536
    # uniqueness at n=2, q=100 with the pairing involution
    unique = 0
    for seed in range(100):
        vp = generate_variant(2, 100, make_involution(100, "pairing"), seed=seed)
        if len(brute_force_variant_solve(vp, limit=1000)) == 1:
            unique += 1
    assert unique >= 95, f"unique assemblies on {unique}/100 seeds"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 9 variant model (1536 exact, {unique}/100 unique): PASS ({elapsed:.1f}s)")


def test_c10_sweep_determinism(criterion6_csv, tmp_path):
    path, _ = criterion6_csv
    rerun = tmp_path / "rerun.csv"
    with open(rerun, "w") as fh:
        sweep(CRITERION6_CONFIG, fh)

    def strip_runtime(text):
        lines = text.splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    first = strip_runtime(path.read_text())
    second = strip_runtime(rerun.read_text())
    assert first == second
    assert hashlib.sha256("\n".join(first).encode()).hexdigest() == CRITERION6_FIRST_NINE_SHA256
    print(f"ACCEPTANCE 10 sweep reproducibility ({len(first) - 1} rows): PASS")
