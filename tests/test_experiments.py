import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import jigsolve
from jigsolve import windows
from jigsolve.gen import generate
from jigsolve.grid import disassemble
from jigsolve.rng import mix_seed
from jigsolve.windows import candidate_neighborhoods, window_rows
from jigsolve.experiments import (
    CSV_HEADER,
    SweepConfig,
    config_from_options,
    parse_config,
    run_trial,
    sweep,
    sweep_records,
)


@pytest.mark.parametrize("n, q, seed", [(30, 231, mix_seed(0x20260808, 0, 0)), (60, 3600, mix_seed(0x20260808, 0, 1))])
def test_untraced_trial_builds_no_window_tuple(monkeypatch, n, q, seed):
    # run_trial folds the enumeration's rows directly
    expected = run_trial(n, q, 1, seed)

    def refused(*args):
        raise AssertionError("an untraced trial built window tuples")

    monkeypatch.setattr(windows, "window_tuples", refused)
    assert replace(run_trial(n, q, 1, seed), runtime_ms=0) == replace(expected, runtime_ms=0)


def test_run_trial_deterministic():
    a = run_trial(8, 512, 1, seed=7)
    b = run_trial(8, 512, 1, seed=7)
    assert (a.typical, a.solved, a.planted_match) == (b.typical, b.solved, b.planted_match)
    assert a.multi_candidate_pieces == b.multi_candidate_pieces
    assert a.windows_explored == b.windows_explored


@pytest.mark.parametrize("n, q, k, seed", [(12, 60, 1, 3), (30, 231, 1, 5), (6, 12, 2, 1)])
def test_run_trial_counts_match_the_window_stream(n, q, k, seed):
    record = run_trial(n, q, k, seed)
    bag, _ = disassemble(generate(n, q, seed), mix_seed(seed, 1))
    statuses = candidate_neighborhoods(bag, k)
    assert record.windows_explored == len(window_rows(bag, k))
    assert record.multi_candidate_pieces == statuses.multiple.sum()


def test_run_trial_implications():
    # planted_match => solved, across a mixed bag of regimes (the small-q
    # cells blow the reduced budget quickly and record a failure)
    for seed in range(6):
        for q in (4, 64, 512):
            rec = run_trial(8, q, 1, seed=seed, budget=2 * 10**5)
            if rec.planted_match:
                assert rec.solved
            if rec.typical:
                assert rec.planted_match


def test_run_trial_easy_regime_recovers():
    rec = run_trial(8, 8**3, 1, seed=3)
    assert rec.solved and rec.planted_match
    assert rec.windows_explored >= 36  # at least the planted core windows


def test_run_trial_records_budget_blowout():
    rec = run_trial(6, 1, 1, seed=0, budget=10**4)
    assert not rec.solved and not rec.planted_match and not rec.typical
    assert rec.windows_explored == 0  # nothing is yielded before the budget check fails


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(ns=(8,), k=1, trials=1, master_seed=0)  # no q rule
    with pytest.raises(ValueError):
        SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, qs=(4,), alphas=(1.5,))
    with pytest.raises(ValueError):
        SweepConfig(ns=(6,), k=1, trials=1, master_seed=0, qs=(4,))  # 2(n-2k)^2 < n^2
    with pytest.raises(ValueError, match="q must be positive"):
        SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, qs=(4, 0))
    with pytest.raises(ValueError, match="q must be positive"):
        SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, alphas=(-math.inf,))
    with pytest.raises(ValueError, match="at most 2\\*\\*63 - 1"):
        SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, qs=(2**63,))
    with pytest.raises(ValueError, match="at most 2\\*\\*63 - 1"):
        SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, alphas=(21.0,))
    for alpha in (math.inf, 1000.0, math.nan):
        with pytest.raises(ValueError, match="no finite q"):
            SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, alphas=(alpha,))
    for rule in ({"qs": ()}, {"alphas": ()}):
        with pytest.raises(ValueError, match="lists no value"):
            SweepConfig(ns=(8,), k=1, trials=1, master_seed=0, **rule)
    for options in ({"n": "8", "q": ""}, {"n": "8", "alpha": ","}):
        with pytest.raises(ValueError, match="lists no value"):
            config_from_options(options)
    with pytest.raises(ValueError, match="unknown config key 'trails'"):
        config_from_options({"n": "8", "q": "40", "trails": "3"})
    cfg = SweepConfig(ns=(8,), k=1, trials=2, master_seed=0, alphas=(1.0, 2.0))
    assert cfg.cells() == [(8, 8), (8, 64)]


def test_sweep_rows_and_determinism():
    cfg = SweepConfig(ns=(7,), k=1, trials=3, master_seed=11, qs=(49, 343))
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert sweep(cfg, buf1) == 6
    sweep(cfg, buf2)
    lines1 = buf1.getvalue().splitlines()
    lines2 = buf2.getvalue().splitlines()
    assert lines1[0] == CSV_HEADER
    assert len(lines1) == 7
    # identical except the runtime column
    strip = lambda line: line.rsplit(",", 1)[0]
    assert [strip(x) for x in lines1] == [strip(x) for x in lines2]


def test_sweep_csv_independent_of_hash_seed(tmp_path):
    # set and dict iteration order must not leak into any trial outcome;
    # the two cells give unsolved and solved trials
    src = str(Path(jigsolve.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"sweep{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "jigsolve.cli", "sweep", "--set", "n=8", "--set", "alpha=1.6,2.4",
             "--set", "trials=5", "--set", "seed=3", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert len(outputs[0]) == 11
    assert outputs[0] == outputs[1]


def test_sweep_seeds_differ_across_cells_and_trials():
    cfg = SweepConfig(ns=(7,), k=1, trials=3, master_seed=5, qs=(50, 90))
    seeds = [rec.seed for rec in sweep_records(cfg)]
    assert len(set(seeds)) == len(seeds) == 6


def test_csv_row_shape():
    rec = run_trial(6, 100, 1, seed=1)
    row = rec.csv_row()
    assert row.count(",") == CSV_HEADER.count(",")
    fields = row.split(",")
    assert fields[0] == "6" and fields[1] == "100" and fields[2] == "1"
    assert fields[4] in ("true", "false")


def test_parse_config():
    options = parse_config(
        """
        # experiment grid
        n = 8
        alpha = 1.0, 1.6
        trials = 2
        seed = 9
        """
    )
    cfg = config_from_options(options)
    assert cfg.ns == (8,)
    assert cfg.alphas == (1.0, 1.6)
    assert cfg.trials == 2
    assert cfg.master_seed == 9
    assert cfg.cells() == [(8, 8), (8, math.ceil(8**1.6))]
    with pytest.raises(ValueError):
        parse_config("bad line without equals")
    with pytest.raises(ValueError):
        config_from_options({"k": "1"})


def test_success_rate_grows_with_alpha():
    # a small smoke version of the exponent sweep: success at alpha=2.2
    # should be at least as common as at alpha=1.0
    cfg_lo = SweepConfig(ns=(8,), k=1, trials=10, master_seed=3, alphas=(1.0,))
    cfg_hi = SweepConfig(ns=(8,), k=1, trials=10, master_seed=3, alphas=(2.2,))
    lo = sum(rec.planted_match for rec in sweep_records(cfg_lo))
    hi = sum(rec.planted_match for rec in sweep_records(cfg_hi))
    assert hi >= lo
    assert hi >= 8


#: SHA-256 of the alpha grid's 200 records without their runtime column,
#: joined by newlines. A change of this value means a change of the
#: solver's or the checker's results.
ALPHA_GRID_FIRST_NINE_SHA256 = "30fb88ff6880c3318e5a8b53f6295ab03ebcdd5bcdf3fe11526f08d340859dab"


def test_alpha_grid_monotone_at_n30():
    # the exponent grid at full scale: recovery rates may invert once by
    # at most 0.06 along alpha (small-q cells blow the budget and count
    # as failures, which is the honest reading)
    cfg = SweepConfig(
        ns=(30,), k=1, trials=50, master_seed=77, alphas=(1.0, 1.3, 1.6, 2.0),
        budget=10**6,
    )
    rates = {q: 0 for (_, q) in cfg.cells()}
    first_nine = []
    for rec in sweep_records(cfg):
        rates[rec.q] += rec.planted_match
        first_nine.append(rec.csv_row().rsplit(",", 1)[0])
    assert len(first_nine) == 200
    assert hashlib.sha256("\n".join(first_nine).encode()).hexdigest() == ALPHA_GRID_FIRST_NINE_SHA256
    ordered = [rates[q] / 50 for (_, q) in cfg.cells()]
    inversions = [
        ordered[i] - ordered[i + 1]
        for i in range(len(ordered) - 1)
        if ordered[i + 1] < ordered[i]
    ]
    assert len(inversions) <= 1
    assert all(gap <= 0.06 for gap in inversions)
    assert ordered[-1] >= 0.9  # the top cell must actually succeed
