"""Trial harness and sweep grid: generate, check, solve, record, emit CSV.

A trial is fully determined by (n, q, k, seed, budget). The sweep derives
one seed per (cell, trial) slot from the master seed, so re-running a
config reproduces the CSV byte for byte apart from the runtime column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .assemble import solve
from .gen import generate
from .grid import check_n_q, disassemble, parse_ints
from .rng import MASK64, mix_seed
from .typicality import DEFAULT_C_PRIME, report_from_candidates
from .windows import DEFAULT_BUDGET, BudgetExceededError, aggregate_candidates, enumerate_windows

CSV_HEADER = "n,q,k,seed,typical,solved,planted_match,multi_candidate_pieces,windows_explored,runtime_ms"

#: Tag mixed into the puzzle seed to derive the shuffle seed.
_SHUFFLE_TAG = 1


@dataclass(frozen=True)
class TrialRecord:
    n: int
    q: int
    k: int
    seed: int
    typical: bool
    solved: bool
    planted_match: bool
    multi_candidate_pieces: int
    windows_explored: int
    runtime_ms: int

    def csv_row(self) -> str:
        bools = [self.typical, self.solved, self.planted_match]
        t, s, p = ("true" if b else "false" for b in bools)
        return (
            f"{self.n},{self.q},{self.k},{self.seed},{t},{s},{p},"
            f"{self.multi_candidate_pieces},{self.windows_explored},{self.runtime_ms}"
        )


def run_trial(n: int, q: int, k: int, seed: int, budget: int = DEFAULT_BUDGET) -> TrialRecord:
    """One full experiment: generate, disassemble, check, solve, compare.

    The puzzle uses ``seed``; the shuffle uses ``mix_seed(seed, 1)``. One
    window enumeration is shared between the typicality check and the
    solve. A budget blowout or a failed solve is recorded, not raised.
    """
    t0 = time.perf_counter()
    puzzle = generate(n, q, seed)
    bag, planted = disassemble(puzzle, mix_seed(seed, _SHUFFLE_TAG))

    typical = False
    solved = False
    planted_match = False
    multi = 0
    windows_explored = 0
    try:
        statuses = aggregate_candidates(len(bag.colors), enumerate_windows(bag, k, budget))
    except BudgetExceededError:
        statuses = None
    if statuses is not None:
        # every window has exactly one center
        windows_explored = int(statuses.windows.sum())
        multi = int(statuses.multiple.sum())
        report = report_from_candidates(puzzle, planted, statuses, k, DEFAULT_C_PRIME)
        typical = report.typical
        outcome = solve(bag, k, budget, candidates=statuses)
        if outcome.solved:
            solved = True
            planted_match = np.array_equal(outcome.assembly.grid, planted.grid)

    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return TrialRecord(
        n=n,
        q=q,
        k=k,
        seed=seed,
        typical=typical,
        solved=solved,
        planted_match=planted_match,
        multi_candidate_pieces=multi,
        windows_explored=windows_explored,
        runtime_ms=runtime_ms,
    )


@dataclass(frozen=True)
class SweepConfig:
    """Grid of experiment cells: n values crossed with a q rule.

    Exactly one of ``qs`` (explicit color counts) or ``alphas`` (exponent
    grid, q = ceil(n ** alpha)) must be given.
    """

    ns: tuple[int, ...]
    k: int
    trials: int
    master_seed: int
    qs: tuple[int, ...] | None = None
    alphas: tuple[float, ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if (self.qs is None) == (self.alphas is None):
            raise ValueError("give exactly one of qs or alphas")
        if not (self.qs or self.alphas):
            raise ValueError("the q rule lists no value")
        if not self.ns or self.trials < 1 or self.k < 1 or self.budget < 1:
            raise ValueError("all sweep parameters must be positive")
        if not 0 <= self.master_seed <= MASK64:
            raise ValueError(f"master seed must be an integer in [0, 2^64); got {self.master_seed}")
        for n in self.ns:
            m = n - 2 * self.k
            if m < 1 or 2 * m * m < n * n:
                raise ValueError(f"need 2 (n - 2k)^2 >= n^2; violated at n={n}, k={self.k}")
        for n, q in self.cells():
            check_n_q(n, q)

    def cells(self) -> list[tuple[int, int]]:
        out = []
        for n in self.ns:
            if self.qs is not None:
                out.extend((n, q) for q in self.qs)
            else:
                out.extend((n, _q_from_alpha(n, alpha)) for alpha in self.alphas)
        return out


def _q_from_alpha(n: int, alpha: float) -> int:
    try:
        return math.ceil(n**alpha)
    except (OverflowError, ValueError):
        raise ValueError(f"alpha={alpha} gives no finite q at n={n}") from None


def sweep_records(config: SweepConfig) -> Iterator[TrialRecord]:
    """Trial records in deterministic (cell, trial) order."""
    for cell_index, (n, q) in enumerate(config.cells()):
        for trial_index in range(config.trials):
            seed = mix_seed(config.master_seed, cell_index, trial_index)
            yield run_trial(n, q, config.k, seed, config.budget)


def sweep(config: SweepConfig, out: TextIO) -> int:
    """Write the full grid as CSV; returns the number of data rows."""
    out.write(CSV_HEADER + "\n")
    rows = 0
    for record in sweep_records(config):
        out.write(record.csv_row() + "\n")
        rows += 1
    return rows


def parse_config(text: str) -> dict[str, str]:
    """Flat key=value config: one pair per line, # comments allowed."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_from_options(options: dict[str, str]) -> SweepConfig:
    """Build a SweepConfig from string options (file or CLI overrides)."""
    known = ("n", "q", "alpha", "k", "trials", "seed", "budget")
    for key in options:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}; known: {', '.join(known)}")

    def ints(key: str) -> tuple[int, ...] | None:
        if key not in options:
            return None
        return tuple(parse_ints(options[key].replace(",", " ").split(), f"config key {key!r}"))

    def one(key: str, default: int) -> int:
        return parse_ints([options.get(key, str(default))], f"config key {key!r}")[0]

    def floats(key: str) -> tuple[float, ...] | None:
        if key not in options:
            return None
        vals = []
        for token in options[key].replace(",", " ").split():
            try:
                vals.append(float(token))
            except ValueError:
                raise ValueError(f"config key {key!r}: expected a number, got {token!r}") from None
        return tuple(vals)

    ns = ints("n")
    if ns is None:
        raise ValueError("config must set n")
    return SweepConfig(
        ns=ns,
        k=one("k", 1),
        trials=one("trials", 1),
        master_seed=one("seed", 0),
        qs=ints("q"),
        alphas=floats("alpha"),
        budget=one("budget", DEFAULT_BUDGET),
    )
