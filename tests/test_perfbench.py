"""The benchmark harness still runs against the library.

``perfbench`` reads jigsolve through its public functions and attributes
(adapters, traced counters and output checks); its own self-test runs
every workload at smoke size and corrupts each result once to see each
check fire.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: PASS" in done.stdout.splitlines()
