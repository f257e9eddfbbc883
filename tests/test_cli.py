import pytest

from jigsolve.cli import main
from jigsolve.gen import generate
from jigsolve.grid import disassemble, read_puzzle, write_bag, write_puzzle


def test_generate_and_oracle(tmp_path, capsys):
    out = tmp_path / "puzzle.txt"
    assert main(["generate", "--n", "3", "--q", "50", "--seed", "4", "--out", str(out)]) == 0
    with open(out) as fh:
        p = read_puzzle(fh)
    assert p.n == 3 and p.q == 50
    assert main(["oracle", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "unique vertex assembly" in text


def test_generate_bag_and_solve_roundtrip(tmp_path, capsys):
    puzfile = tmp_path / "p.txt"
    bagfile = tmp_path / "b.txt"
    plantedfile = tmp_path / "a.txt"
    assert (
        main(
            [
                "generate", "--n", "8", "--q", "600", "--seed", "1",
                "--out", str(puzfile),
                "--bag-out", str(bagfile),
                "--planted-out", str(plantedfile),
                "--bag-seed", "2",
            ]
        )
        == 0
    )
    code = main(["solve", "--in", str(bagfile), "--k", "1", "--planted", str(plantedfile)])
    assert code == 0
    assert "planted match: yes" in capsys.readouterr().out


def test_solve_failure_exit_code(tmp_path, capsys):
    bagfile = tmp_path / "bag.txt"
    p = generate(3, 1, seed=0)
    bag, _ = disassemble(p, 0)
    with open(bagfile, "w") as fh:
        write_bag(bag, fh)
    assert main(["solve", "--in", str(bagfile), "--k", "1"]) == 1
    assert "failed" in capsys.readouterr().out


def test_candidates_counts(tmp_path, capsys):
    bagfile = tmp_path / "bag.txt"
    p = generate(6, 6**3, seed=5)
    bag, _ = disassemble(p, 5)
    with open(bagfile, "w") as fh:
        write_bag(bag, fh)
    assert main(["candidates", "--in", str(bagfile), "--k", "1"]) == 0
    text = capsys.readouterr().out
    assert "unique: 16" in text  # the 4x4 interior
    assert "none: 20" in text


@pytest.mark.parametrize("k", ["0", "2", "50"])
def test_candidates_k_out_of_range_exit_code(tmp_path, capsys, k):
    # every command taking --k states the one radius rule; at 2k >= n no
    # window fits the board, and enumerating them anyway takes long
    bagfile, puzfile = tmp_path / "bag.txt", tmp_path / "p.txt"
    main(["generate", "--n", "4", "--q", "4", "--out", str(puzfile), "--bag-out", str(bagfile)])
    for command, infile in (("solve", bagfile), ("candidates", bagfile), ("typical", puzfile)):
        capsys.readouterr()
        assert main([command, "--in", str(infile), "--k", k]) == 2, command
        assert capsys.readouterr().err == "error: need 1 <= k < n/2\n", command


@pytest.mark.parametrize(
    "command, infile, cap, exceeded",
    [
        ("candidates", "bag.txt", ["--k", "1", "--budget", "100"], "budget of 100"),
        ("typical", "puzzle.txt", ["--k", "1", "--budget", "100"], "budget of 100"),
        ("oracle", "puzzle.txt", ["--limit", "5"], "limit of 5"),
        ("variant-oracle", "variant.txt", ["--limit", "5"], "limit of 5"),
    ],
)
def test_budget_or_limit_exceeded_exit_code(tmp_path, capsys, command, infile, cap, exceeded):
    # a monochromatic n=6 puzzle has far more windows and assemblies than either cap
    main(["generate", "--n", "6", "--q", "1", "--out", str(tmp_path / "puzzle.txt"),
          "--bag-out", str(tmp_path / "bag.txt")])
    main(["generate", "--n", "6", "--q", "1", "--variant", "--out", str(tmp_path / "variant.txt")])
    capsys.readouterr()
    assert main([command, "--in", str(tmp_path / infile), *cap]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and exceeded in err


@pytest.mark.parametrize(
    "command, header, kind",
    [
        ("candidates", "0 5", "bag"),
        ("solve", "0 5", "bag"),
        ("oracle", "-1 5", "puzzle"),
        ("typical", "-1 5", "puzzle"),
        ("variant-oracle", "2 0", "variant"),
    ],
)
def test_non_positive_header_exit_code(tmp_path, capsys, command, header, kind):
    infile = tmp_path / "in.txt"
    infile.write_text(header + "\n")
    k = ["--k", "1"] if command in ("candidates", "solve", "typical") else []
    assert main([command, "--in", str(infile), *k]) == 2
    assert capsys.readouterr().err == f"error: {kind} file: n and q must be positive\n"


@pytest.mark.parametrize(
    "content, named",
    [
        ("0\n", "n must be positive"),
        ("1\n0\n", "expected an assembly for n=8"),
        ("2\n0 0\n1 2\n", "piece ids must be 0..3, each once"),
    ],
    ids=["zero-header", "other-n", "repeated-id"],
)
def test_bad_planted_file_exit_code(tmp_path, capsys, content, named):
    bagfile = tmp_path / "b.txt"
    main(["generate", "--n", "8", "--q", "600", "--seed", "1", "--out", str(tmp_path / "p.txt"),
          "--bag-out", str(bagfile), "--bag-seed", "2"])
    plantedfile = tmp_path / "a.txt"
    plantedfile.write_text(content)
    capsys.readouterr()
    assert main(["solve", "--in", str(bagfile), "--k", "1", "--planted", str(plantedfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "args, content, message",
    [
        (["candidates", "--in", "in.txt", "--k", "1"], "1 x\n", "bag file: expected an integer, got 'x'"),
        (["oracle", "--in", "in.txt"], "1 2\n1 y\n1\n1\n", "puzzle file: expected an integer, got 'y'"),
        (["variant-oracle", "--in", "in.txt"], "1 1\n1\n1 1 1 z\n", "variant file: expected an integer, got 'z'"),
        (
            ["solve", "--in", "bag.txt", "--k", "1", "--planted", "in.txt"],
            "2\n0 1\n2 w\n",
            "assembly file: expected an integer, got 'w'",
        ),
        (
            ["sweep", "--config", "in.txt", "--out", "out.csv"],
            "n = 8\ntrials = abc\n",
            "config key 'trials': expected an integer, got 'abc'",
        ),
        (
            ["sweep", "--config", "in.txt", "--out", "out.csv", "--set", "alpha=x"],
            "n = 8\n",
            "config key 'alpha': expected a number, got 'x'",
        ),
        (["analyze-window", "--in", "in.txt"], "x\n1 1 -> 1 1\n", "window map: expected an integer, got 'x'"),
    ],
    ids=["bag", "puzzle", "variant", "planted", "sweep-config", "sweep-alpha", "window-map"],
)
def test_non_integer_token_exit_code(tmp_path, monkeypatch, capsys, args, content, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bag.txt").write_text("1 1\n1 1 1 1\n")
    (tmp_path / "in.txt").write_text(content)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bag_with_q_past_int64_exit_code(tmp_path, capsys):
    big = 2**63
    bagfile = tmp_path / "bag.txt"
    bagfile.write_text(f"3 {big + 1}\n" + "1 1 1 1\n" * 7 + f"{big} 1 1 1\n1 1 {big + 1} 1\n")
    assert main(["candidates", "--in", str(bagfile), "--k", "1"]) == 2
    assert capsys.readouterr().err == f"error: q must be at most 2**63 - 1; got q={big + 1}\n"


@pytest.mark.parametrize("command", ["candidates", "solve"])
def test_bag_with_color_past_int64_exit_code(tmp_path, capsys, command):
    # q fits int64 but a color does not: rejected before the int64 array is built
    bagfile = tmp_path / "bag.txt"
    bagfile.write_text("2 5\n" + "1 1 1 1\n" * 3 + f"1 {2**64} 1 1\n")
    assert main([command, "--in", str(bagfile), "--k", "1"]) == 2
    assert capsys.readouterr().err == "error: piece colors must lie in [1..5]\n"


@pytest.mark.parametrize("command", ["oracle", "typical"])
@pytest.mark.parametrize(
    "q, color, message",
    [
        (2**64, 2**64, "q must be at most 2**63 - 1; got q=18446744073709551616"),
        (5, 2**64, "colors must lie in [1..5]"),
    ],
    ids=["q-past-int64", "color-past-int64"],
)
def test_puzzle_past_int64_exit_code(tmp_path, capsys, command, q, color, message):
    # a 1x1 puzzle: one line of two horizontal colors, two lines of one vertical
    puzfile = tmp_path / "p.txt"
    puzfile.write_text(f"1 {q}\n{color} 1\n1\n1\n")
    k = ["--k", "1"] if command == "typical" else []
    assert main([command, "--in", str(puzfile), *k]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_variant_with_color_past_int64_exit_code(tmp_path, capsys):
    # q fits int64 but a color does not: rejected before the int64 array is built
    varfile = tmp_path / "var.txt"
    varfile.write_text("1 1\n1\n1 1 1 99999999999999999999\n")
    assert main(["variant-oracle", "--in", str(varfile)]) == 2
    assert capsys.readouterr().err == "error: colors must lie in [1..1]\n"


@pytest.mark.parametrize("extra", [["--bag-out"], ["--planted-out"], ["--bag-out", "--planted-out"]])
def test_variant_generate_rejects_bag_outputs(tmp_path, capsys, extra):
    args = ["generate", "--n", "2", "--q", "3", "--variant", "--out", str(tmp_path / "v.txt")]
    for flag in extra:
        args += [flag, str(tmp_path / f"{flag[2:]}.txt")]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --bag-out and --planted-out apply to base puzzles, not --variant\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--variant"], "--bag-seed applies to base puzzles, not --variant"),
        ([], "--bag-seed applies only with --bag-out or --planted-out"),
    ],
    ids=["variant", "no-bag-output"],
)
@pytest.mark.parametrize("seed", ["7", "0"])
def test_bag_seed_without_a_bag_output_exit_code(tmp_path, capsys, extra, message, seed):
    # no output uses the shuffle, so a given seed would be ignored
    args = ["generate", "--n", "2", "--q", "3", "--out", str(tmp_path / "p.txt"), "--bag-seed", seed]
    assert main(args + extra) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_bag_seed_defaults_to_zero(tmp_path):
    base = ["generate", "--n", "3", "--q", "5", "--seed", "1", "--out", str(tmp_path / "p.txt")]
    assert main(base + ["--bag-out", str(tmp_path / "default.txt")]) == 0
    assert main(base + ["--bag-out", str(tmp_path / "zero.txt"), "--bag-seed", "0"]) == 0
    assert main(base + ["--bag-out", str(tmp_path / "seven.txt"), "--bag-seed", "7"]) == 0
    assert (tmp_path / "default.txt").read_text() == (tmp_path / "zero.txt").read_text()
    assert (tmp_path / "default.txt").read_text() != (tmp_path / "seven.txt").read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["--seed", str(2**64)],
        ["--seed", str(2**64), "--variant"],
        ["--bag-seed", str(2**64), "--bag-out", "b.txt"],
    ],
    ids=["seed", "variant-seed", "bag-seed"],
)
def test_seed_past_64_bits_exit_code(tmp_path, capsys, monkeypatch, args):
    # masking such a seed would repeat the puzzle of a smaller one
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "3", "--q", "5", "--out", "p.txt", *args]) == 2
    assert capsys.readouterr().err == f"error: seed must be an integer in [0, 2^64); got {2**64}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_seed_past_64_bits_exit_code(tmp_path, capsys):
    out = tmp_path / "out.csv"
    sweep = ["sweep", "--set", "n=7", "--set", "q=300", "--out", str(out)]
    assert main([*sweep, "--set", f"seed={2**64 - 1}"]) == 0
    capsys.readouterr()
    out.unlink()
    assert main([*sweep, "--set", f"seed={2**64}"]) == 2
    assert capsys.readouterr().err == f"error: master seed must be an integer in [0, 2^64); got {2**64}\n"
    assert not out.exists()


def test_involution_without_variant_exit_code(tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert main(["generate", "--n", "2", "--q", "3", "--involution", "pairing", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --involution applies only with --variant\n"
    assert not out.exists()
    # with --variant the default involution is the identity
    assert main(["generate", "--n", "2", "--q", "3", "--variant", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "1 2 3"


@pytest.mark.parametrize(
    "command, limit",
    [("oracle", "-1"), ("oracle", "0"), ("variant-oracle", "0")],
)
def test_non_positive_limit_exit_code(tmp_path, capsys, command, limit):
    infile = tmp_path / "in.txt"
    variant = ["--variant"] if command == "variant-oracle" else []
    main(["generate", "--n", "3", "--q", "5", *variant, "--out", str(infile)])
    capsys.readouterr()
    assert main([command, "--in", str(infile), "--limit", limit]) == 2
    assert capsys.readouterr().err == "error: limit must be positive\n"


def test_typical_output(tmp_path, capsys):
    puzfile = tmp_path / "p.txt"
    p = generate(6, 10**5, seed=2)
    with open(puzfile, "w") as fh:
        write_puzzle(p, fh)
    assert main(["typical", "--in", str(puzfile), "--k", "1"]) == 0
    text = capsys.readouterr().out
    assert "typical: False" in text  # default c' makes property five fail
    assert main(["typical", "--in", str(puzfile), "--k", "1", "--c-prime", "1"]) == 0


@pytest.mark.parametrize("c_prime", ["1/0", "0", "0/5", "-3", ""])
def test_non_positive_c_prime_exit_code(tmp_path, capsys, c_prime):
    puzfile = tmp_path / "p.txt"
    main(["generate", "--n", "6", "--q", "50", "--out", str(puzfile)])
    capsys.readouterr()
    assert main(["typical", "--in", str(puzfile), "--k", "1", "--c-prime", c_prime]) == 2
    assert capsys.readouterr().err == f"error: --c-prime must be a positive rational, got {c_prime!r}\n"


def test_analyze_window(tmp_path, capsys):
    mapfile = tmp_path / "map.txt"
    mapfile.write_text("2\n1 1 -> 1 1\n1 2 -> 3 2\n2 1 -> 3 1\n2 2 -> 1 2\n")
    assert main(["analyze-window", "--in", str(mapfile)]) == 0
    text = capsys.readouterr().out
    assert "tiles: 2" in text
    assert "rank: 3" in text
    assert "q^-3" in text


@pytest.mark.parametrize(
    "content, named",
    [
        ("", "empty window map"),
        ("1\n1 1 1 1\n", "'1 1 1 1'"),
        ("1\n0 0 -> 2 2\n0 0 -> 3 3\n", "(0, 0) is mapped twice"),
    ],
)
def test_analyze_window_bad_input(tmp_path, capsys, content, named):
    mapfile = tmp_path / "map.txt"
    mapfile.write_text(content)
    assert main(["analyze-window", "--in", str(mapfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_variant_generate_and_oracle(tmp_path, capsys):
    out = tmp_path / "variant.txt"
    assert (
        main(
            [
                "generate", "--n", "2", "--q", "40", "--seed", "3",
                "--variant", "--involution", "pairing", "--out", str(out),
            ]
        )
        == 0
    )
    assert main(["variant-oracle", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "feasible assemblies:" in text


def test_sweep_cli(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("n = 7\nq = 300\ntrials = 2\nseed = 4\nk = 1\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("n,q,k,seed")
    # overrides win
    assert main(["sweep", "--config", str(cfgfile), "--set", "trials=1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--k", "1"])  # missing --in
    assert exc.value.code == 2


def test_config_error_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("n = 6\nq = 4\nk = 1\n")  # 2(n-2k)^2 < n^2
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["oracle", "--in", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfgfile), "--set", "n30", "--out", str(out)]) == 2
    assert "bad --set override: 'n30'" in capsys.readouterr().err
    # a q rule with no positive finite q is rejected before --out is opened
    for rule in ("q=0", f"q={2**63}", "alpha=inf", "alpha=1000", "q=", "alpha=,"):
        assert main(["sweep", "--set", "n=30", "--set", rule, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    # so is a key the config does not know, from a file or from --set
    cfgfile.write_text("n = 8\nq = 40\ntrails = 3\n")
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key 'trails'")
    for typo in ("budgte=5", "sead=9"):
        assert main(["sweep", "--set", "n=8", "--set", "q=40", "--set", typo, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown config key {typo.split('=')[0]!r}")
    assert not out.exists()


def test_variant_oracle_involution_cross_check(tmp_path, capsys):
    out = tmp_path / "var.txt"
    main(["generate", "--n", "2", "--q", "4", "--seed", "0", "--variant",
          "--involution", "pairing", "--out", str(out)])
    assert main(["variant-oracle", "--in", str(out), "--involution", "pairing"]) == 0
    capsys.readouterr()
    assert main(["variant-oracle", "--in", str(out), "--involution", "identity"]) == 2
