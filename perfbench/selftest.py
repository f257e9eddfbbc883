#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics ``BENCHMARK.json``
names, each with its unit, in both trace modes; that each output check
fires on a deliberately corrupted result; that the command's last line
is the result object; and that the command fails, without a result, in
a directory holding only the benchmark. Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter

sys.dont_write_bytecode = True  # no byte-code files in the checkout

from run import ROOT, WORKLOADS, capture_targets, load_library, pair_problems, run_workload  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import patched  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def check_metrics(lib, spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = run_workload(
                lib, name, SEED, 0.01, trace, HostSpeed(), min_trials=2, count_trials=2, setup_reps=1
            )
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={int(trace)} emits the {key} metrics with their units")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={int(trace)} passes its checks")


def check_corruptions(lib) -> None:
    sweep = WORKLOADS["sweep_n30_a16"]
    captured: dict = {}
    with patched(capture_targets(lib, captured)):
        record = sweep.trial(lib, SEED, 0)
    expect(not sweep.check(lib, SEED, 0, record, captured), "an intact sweep trial passes")
    expect(record.solved, "the sweep trial used for corruption is solved")

    outcome = captured["outcome"]
    placement = dict(outcome.assembly.placement)
    a, b = (1, 1), (2, 1)
    placement[a], placement[b] = placement[b], placement[a]
    broken = dict(captured, outcome=dataclasses.replace(outcome, assembly=type(outcome.assembly)(placement)))
    expect(bool(sweep.check(lib, SEED, 0, record, broken)), "a swapped solved assembly is caught")
    lying = dataclasses.replace(record, planted_match=not record.planted_match)
    expect(bool(sweep.check(lib, SEED, 0, lying, captured)), "a wrong planted_match is caught")
    counts = Counter({"windows.yielded": record.windows_explored})
    expect(not pair_problems(sweep, record, record, counts), "an identical traced twin passes")
    drifted = dataclasses.replace(record, multi_candidate_pieces=record.multi_candidate_pieces + 1)
    expect(bool(pair_problems(sweep, record, drifted, counts)), "a traced result that differs is caught")
    counts["windows.yielded"] += 1
    expect(bool(pair_problems(sweep, record, record, counts)), "a traced counter that disagrees is caught")

    oracle = WORKLOADS["oracle_n4"]
    job = oracle.trial(lib, SEED, 0)
    expect(not oracle.check(lib, SEED, 0, job, {}), "an intact oracle job passes")
    fast = set(job.fast)
    fast.pop()
    short = dataclasses.replace(job, fast=fast, fast_count=len(fast))
    expect(bool(oracle.check(lib, SEED, 0, short, {})), "a fast window set missing a window is caught")
    doubled = dataclasses.replace(job, fast_count=job.fast_count + 1)
    expect(bool(oracle.check(lib, SEED, 0, doubled, {})), "a duplicated fast window is caught")


def last_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_command(spec: dict) -> None:
    command = spec["command"] + ["--workload", "oracle_n4", "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    line = last_line(done.stdout)
    expect(done.returncode == 0, "the command exits 0")
    expect(
        line is not None and set(line) == {"correct", "attempted", "failed", "metrics"},
        "the command's last line is the result object",
    )

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(done.returncode != 0 and last_line(done.stdout) is None, "without the sources the command fails")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lib = load_library()
    check_metrics(lib, spec)
    check_corruptions(lib)
    check_command(spec)
    print("selftest: " + ("PASS" if not failures else f"FAIL ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
