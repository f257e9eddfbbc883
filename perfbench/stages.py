#!/usr/bin/env python3
"""Per-stage times of the two sweep cells in the ROADMAP baseline table.

    python3 perfbench/stages.py

Runs n=30 q=231 k=1 for 10 seeds, and n=60 q=600 k=1 for 2 seeds with a
budget of 10^9 (it exceeds the default budget), seeded as cell 0 of a
sweep with the criterion-6 master seed. Prints each stage's mean time
per trial as the traced benchmark run computes it, unscaled.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # no byte-code files in the checkout

from run import DEFAULT_SEED, Sweep, layer_times, load_library, stage_shares  # noqa: E402
from tracing import Tracer, patched, trace_targets  # noqa: E402

CASES = (
    # (cell, trials)
    (Sweep(n=30, q=231), 10),
    (Sweep(n=60, q=600, budget=10**9), 2),
)


def main() -> int:
    lib = load_library()
    for cell, trials in CASES:
        tracer = Tracer()
        records = []
        with patched(trace_targets(lib, tracer)):
            for t in range(trials):
                tracer.trial = t
                with tracer.span(cell.root_span):
                    records.append(cell.trial(lib, DEFAULT_SEED, t))
        metrics, trial_ms = layer_times(tracer, [1.0] * trials, cell.root_span)
        print(f"n={cell.n} q={cell.q} k={cell.k} budget={cell.budget or 'default'} trials={trials}: "
              f"{trial_ms:.1f} ms per trial")
        for name, (value, unit) in metrics.items():
            if value > 0:
                print(f"  {name:32s} {value:10.1f} {unit}")
        print("  shares: " + stage_shares(metrics, trial_ms))
        yielded = [tracer.counts[t]["windows.yielded"] for t in range(trials)]
        exceeded = sum(tracer.counts[t]["windows.budget_exceeded"] for t in range(trials))
        print(f"  windows yielded per trial: {yielded}; budget exceeded in {exceeded}/{trials}")
        print(f"  solved {sum(r.solved for r in records)}/{trials}, "
              f"planted match {sum(r.planted_match for r in records)}/{trials}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
