#!/usr/bin/env python3
"""jigsolve benchmark: trial throughput and latency on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_n30_a16 --seed 1 --seconds 30 --trace 0

The benchmark imports jigsolve from ``src/`` next to this directory and
calls only its public functions. All work runs in this one process.

* ``--trace 0`` times trials with tracing off and prints the end-to-end
  metrics of ``BENCHMARK.json``.
* ``--trace 1`` runs each trial twice, untraced and traced (alternating
  which goes first), requires both to give the same result, and prints
  the per-layer metrics: self time per layer, counters, and the tracing
  overhead. The spans are written to ``.perfbench/`` at exit.

Times are wall times scaled to a reference host speed (see
``hostspeed.py``); the unscaled ones are printed too. Every trial's
output is checked; a trial that raises or fails a check counts as
failed. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every check passed,
1 when one failed or the jigsolve sources are missing, and 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# no byte-code files written in the checkout
sys.dont_write_bytecode = True

from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, patched, trace_targets  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Criterion-6 master seed; the default workload seed.
DEFAULT_SEED = 0x20260808
#: trial_ms.tail is a workload's nearest-rank ``tail_pct`` percentile, and
#: an untraced run times enough trials to put this many beyond it.
TAIL_SAMPLES = 10
#: Traced runs sum their counters over exactly this many first trials.
COUNT_TRIALS = 10
#: setup_s is the median of this many fresh set-ups ...
SETUP_REPS = 7
#: ... each running one trial of this fixed seed, so that setup_s does not
#: depend on --seed. The timed process warms up on the same trial.
WARMUP_SEED = 0
WARMUP_TRIALS = 2
#: The oracle workload enumerates without a budget, as criterion 5 does.
ORACLE_BUDGET = 10**8

MODULES = ("assemble", "experiments", "gen", "grid", "oracle", "rng", "windows")
#: jigsolve's byte-code is looked up here, a directory that never exists,
#: so that whatever __pycache__ the checkout holds, stale or fresh, cannot
#: change setup_s: jigsolve compiles from source on every import.
NO_PYCACHE = ROOT / ".perfbench" / "no-pycache"


def load_library() -> types.SimpleNamespace:
    """Import jigsolve afresh, from source, from this checkout's ``src/``.

    jigsolve modules imported before are dropped from ``sys.modules``
    first; objects that still hold them keep working.
    """
    package = SRC / "jigsolve"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: jigsolve sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for mod in [m for m in sys.modules if m.partition(".")[0] == "jigsolve"]:
        del sys.modules[mod]
    import numpy  # noqa: F401  -- installed code loads from its own byte-code cache

    sys.pycache_prefix = str(NO_PYCACHE)
    try:
        mods = {name: importlib.import_module(f"jigsolve.{name}") for name in MODULES}
    finally:
        sys.pycache_prefix = None
    loaded = Path(mods["grid"].__file__).resolve().parent
    if loaded != package.resolve():
        raise SystemExit(f"perfbench: imported jigsolve from {loaded}, not {package}")
    return types.SimpleNamespace(**mods)


def setup_seconds(name: str) -> float:
    """One set-up: jigsolve imported afresh, then the warm-up trial of ``name``."""
    start = time.perf_counter()
    WORKLOADS[name].trial(load_library(), WARMUP_SEED, 0)
    return time.perf_counter() - start


def capture_targets(lib, captured: dict) -> list:
    """Keep the shuffled bag, planted placement and solve outcome of a trial.

    ``run_trial`` returns only a summary record; these are what the
    output check needs to re-verify a solved assembly from outside.
    """

    def keep(key):
        def wrap(fn):
            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                captured[key] = result
                return result

            return kept

        return wrap

    return [
        (lib.experiments, "disassemble", keep("disassembled")),
        (lib.experiments, "solve", keep("outcome")),
    ]


def tail_trials(tail_pct: int) -> int:
    """Fewest trials that put TAIL_SAMPLES beyond the nearest-rank ``tail_pct``."""
    return -(-100 * TAIL_SAMPLES // (100 - tail_pct))


@dataclass(frozen=True)
class Sweep:
    """Trials of one sweep cell, seeded as ``sweep_records`` seeds cell 0."""

    n: int
    q: int
    k: int = 1
    budget: int | None = None  # None: run_trial's default
    tail_pct: int = 85
    root_span = "experiments.run_trial"

    def trial(self, lib, seed: int, t: int):
        budget = {} if self.budget is None else {"budget": self.budget}
        return lib.experiments.run_trial(self.n, self.q, self.k, lib.rng.mix_seed(seed, 0, t), **budget)

    def summary(self, record) -> tuple:
        return (
            record.typical,
            record.solved,
            record.planted_match,
            record.multi_candidate_pieces,
            record.windows_explored,
        )

    def matched(self, record) -> bool:
        return record.planted_match

    def counted(self, record) -> dict[str, int]:
        """Counters a traced trial must have recorded, as the result states them."""
        return {"windows.yielded": record.windows_explored}

    def check(self, lib, seed: int, t: int, record, captured: dict) -> list[str]:
        """Problems with one trial's record, re-derived from outside."""
        problems = []
        expected = (self.n, self.q, self.k, lib.rng.mix_seed(seed, 0, t))
        if (record.n, record.q, record.k, record.seed) != expected:
            problems.append(f"record is for {(record.n, record.q, record.k, record.seed)}, not {expected}")
        if "disassembled" not in captured:
            return problems + ["trial never disassembled a puzzle"]
        bag, planted = captured["disassembled"]
        outcome = captured.get("outcome")
        solved = outcome is not None and outcome.solved
        if record.solved != solved:
            problems.append(f"record says solved={record.solved}, solve returned {solved}")
        if solved:
            if not lib.grid.is_feasible(bag, outcome.assembly):
                problems.append("solved assembly is not feasible")
            match = outcome.assembly.placement == planted.placement
            if record.planted_match != match:
                problems.append(f"record says planted_match={record.planted_match}, assembly says {match}")
        elif record.planted_match:
            problems.append("unsolved trial claims a planted match")
        if not 0 <= record.multi_candidate_pieces <= self.n * self.n:
            problems.append(f"multi_candidate_pieces={record.multi_candidate_pieces} out of range")
        return problems


@dataclass(frozen=True)
class OracleJob:
    planted: object
    fast: set
    fast_count: int
    brute_count: int
    brute_only: int  # brute-force windows missing from the fast set


@dataclass(frozen=True)
class OracleJobs:
    """Criterion-5 style jobs: a bag's fast window set against brute force."""

    n: int
    q: int
    k: int = 1
    tail_pct: int = 90
    root_span = "bench.oracle_job"

    def trial(self, lib, seed: int, t: int) -> OracleJob:
        job_seed = lib.rng.mix_seed(seed, 5, t)
        puzzle = lib.gen.generate(self.n, self.q, job_seed)
        bag, planted = lib.grid.disassemble(puzzle, lib.rng.mix_seed(job_seed, 1))
        fast: set = set()
        fast_count = 0
        for wa in lib.windows.enumerate_windows(bag, self.k, ORACLE_BUDGET):
            fast.add(wa.cells)
            fast_count += 1
        brute_count = brute_only = 0
        for center in range(self.n * self.n):
            for wa in lib.oracle.brute_force_windows(bag, center, self.k):
                brute_count += 1
                brute_only += wa.cells not in fast
        return OracleJob(planted, fast, fast_count, brute_count, brute_only)

    def summary(self, job: OracleJob) -> tuple:
        return (job.fast_count, len(job.fast), job.brute_count, job.brute_only)

    def planted_windows(self, job: OracleJob) -> list[tuple[int, ...]]:
        k, n, place = self.k, self.n, job.planted.placement
        span = range(-k, k + 1)
        return [
            tuple(place[(i + x, j - y)] for y in span for x in span)
            for j in range(k + 1, n - k + 1)
            for i in range(k + 1, n - k + 1)
        ]

    def matched(self, job: OracleJob) -> bool:
        return all(w in job.fast for w in self.planted_windows(job))

    def counted(self, job: OracleJob) -> dict[str, int]:
        return {"windows.yielded": job.fast_count, "oracle.windows": job.brute_count}

    def check(self, lib, seed: int, t: int, job: OracleJob, captured: dict) -> list[str]:
        problems = []
        if job.fast_count != len(job.fast):
            problems.append(f"fast enumeration yielded {job.fast_count - len(job.fast)} duplicate windows")
        # brute force yields each window once, under its own center, so
        # equal sets means no brute-only window and equal counts
        if job.brute_only or job.brute_count != len(job.fast):
            problems.append(
                f"window sets differ: {len(job.fast)} fast, {job.brute_count} brute, "
                f"{job.brute_only} only brute"
            )
        if not self.matched(job):
            problems.append("a planted window is missing from the fast set")
        return problems


# n=30 q=231 spends ~88% of a trial enumerating windows; n=60 q=3600
# splits it between enumeration, solve and typicality; the n=4 jobs are
# allocation-heavy enumeration plus the only use of the oracle. q=2 and
# q=3 oracle jobs are too slow or too heavy-tailed for a 30 s run.
# On the sweeps tail_pct is the highest percentile that keeps
# TAIL_SAMPLES beyond it at the fewest trials a sweep run times. On
# oracle_n4 that would be p98 of the ~500 jobs of a run, but job sizes
# are heavy-tailed, so the ten jobs beyond it vary with the seed: the
# ten-seed spread of p98 was 0.13-0.21, that of p90 0.07.
WORKLOADS = {
    "sweep_n30_a16": Sweep(n=30, q=231),  # q = ceil(n ** 1.6)
    "sweep_n60_a20": Sweep(n=60, q=3600),  # q = n ** 2.0
    "oracle_n4": OracleJobs(n=4, q=4),
}

LAYER_TIMES = {
    # metric: (span name, "self" or "busy")
    "gen.generate_ms": ("gen.generate", "self"),
    "grid.disassemble_ms": ("grid.disassemble", "self"),
    "windows.enumerate_ms": ("windows.enumerate", "self"),
    "windows.aggregate_ms": ("windows.aggregate", "self"),
    "typicality.report_ms": ("typicality.report", "self"),
    "assemble.solve_ms": ("assemble.solve", "busy"),
    "assemble.solve_self_ms": ("assemble.solve", "self"),
    "assemble.mutual_components_ms": ("assemble.mutual_components", "self"),
    "assemble.core_guesses_ms": ("assemble.core_guesses", "self"),
    "assemble.assemble_shells_ms": ("assemble.assemble_shells", "self"),
    "grid.is_feasible_ms": ("grid.is_feasible", "self"),
    "oracle.brute_force_windows_ms": ("oracle.brute_force_windows", "self"),
    "experiments.run_trial_self_ms": ("experiments.run_trial", "self"),
}

LAYER_COUNTS = (
    "windows.yielded",
    "windows.multi_pieces",
    "windows.none_pieces",
    "windows.budget_exceeded",
    "typicality.typical",
    "assemble.components",
    "assemble.largest_component",
    "assemble.guesses",
    "assemble.guesses_tried",
    "assemble.shells_stuck",
    "oracle.windows",
)

#: Stages whose share of a traced trial is printed (the ROADMAP baseline rows).
SHARE_STAGES = (
    ("gen", "gen.generate_ms"),
    ("enumerate", "windows.enumerate_ms"),
    ("aggregate", "windows.aggregate_ms"),
    ("typicality", "typicality.report_ms"),
    ("solve", "assemble.solve_ms"),
    ("brute", "oracle.brute_force_windows_ms"),
)


class Run:
    """Trials of one workload with their timings and output problems."""

    def __init__(self, lib, name: str, seed: int, speed: HostSpeed):
        self.lib = lib
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.speed = speed
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def timed(self, seed: int, t: int, tracer: Tracer | None = None):
        """Trial ``t`` of ``seed`` with its output checked: (result or None, seconds)."""
        lib, wl = self.lib, self.workload
        captured: dict = {}
        targets = capture_targets(lib, captured)
        if tracer is not None:
            tracer.trial = t
            targets = trace_targets(lib, tracer) + targets
        with patched(targets):
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.trial(lib, seed, t)
                else:
                    with tracer.span(wl.root_span):
                        result = wl.trial(lib, seed, t)
            except Exception as exc:  # a failed trial is counted, the run goes on
                self.problems.append(f"trial {t} raised {exc!r}")
                return None, time.perf_counter() - start
            elapsed = time.perf_counter() - start
        for problem in wl.check(lib, seed, t, result, captured):
            self.problems.append(f"trial {t}: {problem}")
            return None, elapsed
        return result, elapsed

    def warm_up(self) -> None:
        """Checked runs of the warm-up trial, untimed."""
        for _ in range(WARMUP_TRIALS):
            self.timed(WARMUP_SEED, 0)


def rank(pct: int, count: int) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count`` values."""
    return max(-(-pct * count // 100), 1)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[rank(pct, len(values)) - 1]


def measure(run: Run, seconds: float, min_trials: int) -> dict:
    """End-to-end metrics from untraced trials.

    At least ``min_trials`` run; planted_match_rate is taken over exactly
    those first trials, so it repeats exactly for a seed.
    """
    times, raw = [], []  # scaled to the reference host speed, and as measured
    matched = 0
    start = time.perf_counter()
    t = 0
    while t < min_trials or time.perf_counter() - start < seconds:
        factor = run.speed.sample()
        result, elapsed = run.timed(run.seed, t)
        run.attempted += 1
        if result is None:
            run.failed += 1
        else:
            times.append(elapsed * factor)
            raw.append(elapsed)
            if t < min_trials and run.workload.matched(result):
                matched += 1
        t += 1
    if not times:  # every trial failed; report zeros rather than invalid JSON
        times = raw = [0.0]
    pct = run.workload.tail_pct
    metrics = {
        "trials_per_s": (len(times) / sum(times) if sum(times) else 0.0, "1/s"),
        "trial_ms.p50": (statistics.median(times) * 1000, "ms"),
        "trial_ms.tail": (percentile(times, pct) * 1000, "ms"),
        "planted_match_rate": (matched / min_trials, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = len(times) - rank(pct, len(times))
    notes = [
        f"trial_ms.tail is p{pct} of {len(times)} trials ({beyond} beyond it)",
        f"planted_match_rate over the first {min_trials} trials",
        f"unscaled wall time: p50 {statistics.median(raw) * 1000:.2f} ms, "
        f"p{pct} {percentile(raw, pct) * 1000:.2f} ms, "
        f"host slower than reference by x{sum(raw) / sum(times) if sum(times) else 1.0:.3f}",
    ]
    return {"metrics": metrics, "notes": notes}


def pair_problems(workload, plain, traced, counts: Counter) -> list[str]:
    """Ways a traced trial differs from its untraced twin or from its own counters."""
    problems = []
    if workload.summary(plain) != workload.summary(traced):
        problems.append(f"traced result {workload.summary(traced)} differs from untraced {workload.summary(plain)}")
    for counter, expected in workload.counted(traced).items():
        if counts[counter] != expected:
            problems.append(f"{counter} traced {counts[counter]}, result says {expected}")
    return problems


def layer_times(tracer: Tracer, factors: list[float], root_span: str) -> tuple[dict, float]:
    """LAYER_TIMES per traced trial, and the whole ``root_span`` trial, in ms.

    Each span's time is scaled by its trial's entry in ``factors``; the
    times are means over ``len(factors)`` trials.
    """
    busy: dict[str, float] = {}
    self_: dict[str, float] = {}
    for span in tracer.spans:
        factor = factors[span.trial]
        busy[span.name] = busy.get(span.name, 0.0) + span.busy * factor
        self_[span.name] = self_.get(span.name, 0.0) + span.self_time * factor
    per_trial_ms = 1000 / len(factors)
    metrics = {}
    for metric, (name, kind) in LAYER_TIMES.items():
        total = (busy if kind == "busy" else self_).get(name, 0.0)
        metrics[metric] = (total * per_trial_ms, "ms")
    return metrics, busy.get(root_span, 0.0) * per_trial_ms


def stage_shares(metrics: dict, trial_ms: float) -> str:
    """SHARE_STAGES that ran, each with its time and share of a trial."""
    return ", ".join(
        f"{label} {metrics[m][0]:.1f} ms ({metrics[m][0] / trial_ms:.1%})"
        for label, m in SHARE_STAGES
        if metrics[m][0] > 0
    )


def measure_traced(run: Run, seconds: float, count_trials: int) -> dict:
    """Per-layer metrics from traced trials, each paired with an untraced one.

    At least ``count_trials`` pairs run, so the counters summed over them
    repeat exactly for a seed.
    """
    tracer = Tracer()
    plain_times, traced_times, overhead, factors = [], [], [], []
    start = time.perf_counter()
    t = 0
    while t < count_trials or time.perf_counter() - start < seconds:
        factors.append(run.speed.sample())
        if t % 2 == 0:
            plain, plain_s = run.timed(run.seed, t)
            traced, traced_s = run.timed(run.seed, t, tracer)
        else:
            traced, traced_s = run.timed(run.seed, t, tracer)
            plain, plain_s = run.timed(run.seed, t)
        run.attempted += 1
        if plain is None or traced is None:
            run.failed += 1  # the failing half has recorded its problem
        else:
            problems = pair_problems(run.workload, plain, traced, tracer.counts[t])
            run.problems.extend(f"trial {t}: {p}" for p in problems)
            run.failed += bool(problems)
        plain_times.append(plain_s * factors[t])
        traced_times.append(traced_s * factors[t])
        overhead.append((traced_s - plain_s) * factors[t])
        t += 1

    metrics, trial_ms = layer_times(tracer, factors, run.workload.root_span)
    counts = sum((tracer.counts[i] for i in range(count_trials)), start=Counter())
    for name in LAYER_COUNTS:
        metrics[name] = (counts[name], "count")
    tried = counts["assemble.guesses_tried"]
    metrics["assemble.solved_per_guess"] = (counts["assemble.solved"] / tried if tried else 0.0, "ratio")
    metrics["trace.overhead_ms"] = (statistics.median(overhead) * 1000, "ms")
    metrics["trace.overhead_pct"] = ((sum(traced_times) / sum(plain_times) - 1) * 100, "%")

    notes = [
        f"{t} traced trials, {trial_ms:.1f} ms each; counters over the first {count_trials}",
        "stage shares of a traced trial: " + stage_shares(metrics, trial_ms),
    ]
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{run.name}-{run.seed}.jsonl"
    tracer.write(spans_path)
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return {"metrics": metrics, "notes": notes}


def host_facts() -> str:
    import numpy

    load = os.getloadavg()
    return (
        f"host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}"
    )


def run_workload(
    lib,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    speed: HostSpeed,
    min_trials: int | None = None,
    count_trials: int = COUNT_TRIALS,
    setup_reps: int = SETUP_REPS,
) -> dict:
    """Set up, measure and check one workload; returns the result object.

    setup_s is the median of ``setup_reps`` set-ups, each importing
    jigsolve afresh and running the warm-up trial.
    ``min_trials`` defaults to what the workload's tail needs.
    """
    facts = host_facts()
    run = Run(lib, name, seed, speed)
    if min_trials is None:
        min_trials = tail_trials(run.workload.tail_pct)
    if trace:
        run.warm_up()
        measured = measure_traced(run, seconds, count_trials)
    else:
        setups = [(speed.sample(), setup_seconds(name)) for _ in range(setup_reps)]
        run.warm_up()
        measured = measure(run, seconds, min_trials)
        measured["metrics"]["setup_s"] = (statistics.median(f * s for f, s in setups), "s")
        measured["notes"].append("unscaled set-ups: " + ", ".join(f"{s:.4f}" for _, s in setups) + " s")
    return {
        "facts": facts,
        "notes": measured["notes"],
        "problems": run.problems,
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    lib = load_library()
    result = run_workload(lib, args.workload, args.seed, args.seconds, bool(args.trace), HostSpeed())

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(result["facts"])
    for note in result["notes"]:
        print(note)
    for problem in result["problems"][:20]:
        print(f"PROBLEM {problem}")
    print(f"error_rate = {result['failed'] / result['attempted']} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
