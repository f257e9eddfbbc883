"""Command line interface.

Subcommands: generate, solve, oracle, typical, candidates, analyze-window,
variant-oracle, sweep. Exit codes: 0 on success; 1 when a solve fails
(``budget_exceeded`` included) or another command exceeds its window
budget (``--budget``) or result limit (``--limit``), which prints
``error: <message>`` on stderr; 2 on usage errors and malformed input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import assemble, constraints, experiments, gen, grid, oracle, typicality, variant, windows


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.variant:
        if args.bag_out or args.planted_out:
            raise ValueError("--bag-out and --planted-out apply to base puzzles, not --variant")
        if args.bag_seed is not None:
            raise ValueError("--bag-seed applies to base puzzles, not --variant")
        iota = variant.make_involution(args.q, args.involution or "identity")
        vp = gen.generate_variant(args.n, args.q, iota, args.seed)
        with open(args.out, "w") as fh:
            variant.write_variant(vp, fh)
        print(f"wrote variant puzzle n={args.n} q={args.q} to {args.out}")
        return 0
    if args.involution:
        raise ValueError("--involution applies only with --variant")
    if args.bag_seed is not None and not (args.bag_out or args.planted_out):
        raise ValueError("--bag-seed applies only with --bag-out or --planted-out")
    puzzle = gen.generate(args.n, args.q, args.seed)
    if args.bag_out or args.planted_out:  # shuffled first, so a bad --bag-seed writes no file
        bag, planted = grid.disassemble(puzzle, args.bag_seed or 0)
    with open(args.out, "w") as fh:
        grid.write_puzzle(puzzle, fh)
    print(f"wrote puzzle n={args.n} q={args.q} to {args.out}")
    if args.bag_out or args.planted_out:
        if args.bag_out:
            with open(args.bag_out, "w") as fh:
                grid.write_bag(bag, fh)
            print(f"wrote bag to {args.bag_out}")
        if args.planted_out:
            with open(args.planted_out, "w") as fh:
                grid.write_assembly(planted, fh)
            print(f"wrote planted assembly to {args.planted_out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    with open(args.infile) as fh:
        bag = grid.read_bag(fh)
    planted = None
    if args.planted:
        with open(args.planted) as fh:
            planted = grid.read_assembly(fh)
        if planted.grid.shape != (bag.n, bag.n):
            raise ValueError(f"planted file: expected an assembly for n={bag.n}")
    outcome = assemble.solve(bag, args.k, args.budget)
    if not outcome.solved:
        print(f"failed: {outcome.failure}")
        return 1
    print(f"solved after {outcome.guesses_tried} core guess(es)")
    if planted is not None:
        match = (outcome.assembly.grid == planted.grid).all()
        print(f"planted match: {'yes' if match else 'no'}")
        if not match:
            return 1
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    with open(args.infile) as fh:
        puzzle = grid.read_puzzle(fh)
    report = oracle.uniqueness_report(puzzle, args.limit)
    print(f"feasible assemblies: {report.num_feasible}")
    print(f"unique vertex assembly: {'yes' if report.unique_vertex else 'no'}")
    print(f"unique edge assembly: {'yes' if report.unique_edge else 'no'}")
    return 0


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
        if value > 0:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"--c-prime must be a positive rational, got {text!r}")


def _cmd_typical(args: argparse.Namespace) -> int:
    c_prime = typicality.DEFAULT_C_PRIME
    if args.c_prime is not None:
        c_prime = _positive_fraction(args.c_prime)
    with open(args.infile) as fh:
        puzzle = grid.read_puzzle(fh)
    report = typicality.check_typical(puzzle, args.k, c_prime, args.budget)
    print(f"core neighborhoods unique: {report.core_unique} (witness {report.core_witness})")
    print(
        f"peripheral neighborhoods consistent: {report.peripheral_consistent}"
        f" (witness {report.peripheral_witness})"
    )
    print(
        f"non-unique peripheral edge colors: {report.nonunique_peripheral_edges}"
        f" (allowed {puzzle.n - 2 * args.k - 1}): {report.edge_colors_ok}"
    )
    print(f"no shared jig color pairs: {report.pair_sharing_ok} (witness {report.pair_witness})")
    print(
        f"color pairs within {c_prime} * k pieces: {report.color_pair_ok}"
        f" (witness {report.color_pair_witness})"
    )
    print(f"typical: {report.typical}")
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    with open(args.infile) as fh:
        bag = grid.read_bag(fh)
    grid.check_radius(bag.n, args.k)
    statuses = windows.candidate_neighborhoods(bag, args.k, args.budget)
    print(f"none: {int((statuses.windows == 0).sum())}")
    print(f"unique: {int(statuses.unique.sum())}")
    print(f"multiple: {int(statuses.multiple.sum())}")
    return 0


def _cmd_analyze_window(args: argparse.Namespace) -> int:
    source = open(args.infile) if args.infile else sys.stdin
    try:
        tokens = source.read().split("\n")
    finally:
        if args.infile:
            source.close()
    lines = [ln.strip() for ln in tokens if ln.strip()]
    if not lines:
        raise ValueError("empty window map: expected 'k' on the first line")
    (k,) = grid.parse_ints(lines[:1], "window map")
    mapping = {}
    for line in lines[1:]:
        try:
            lhs, rhs = line.split("->")
            wx, wy = (int(t) for t in lhs.split())
            px, py = (int(t) for t in rhs.split())
        except ValueError:
            raise ValueError(f"bad window map line {line!r}: expected 'wx wy -> px py'") from None
        if (wx, wy) in mapping:
            raise ValueError(f"window cell ({wx}, {wy}) is mapped twice")
        mapping[(wx, wy)] = (px, py)
    wm = constraints.WindowMap(k, mapping)
    tiles = constraints.tiles_of(wm)
    graph, stats = constraints.build_constraint_graph(wm)
    print(f"tiles: {len(tiles)}")
    print(f"graph vertices: {stats.num_vertices}")
    print(f"graph components: {stats.num_components}")
    print(f"rank: {stats.rank}")
    print(f"constraints: {stats.num_constraints}")
    print(f"leaf constraints: {stats.num_leaf_constraints}")
    print(f"feasibility probability: q^-{stats.rank}")
    return 0


def _cmd_variant_oracle(args: argparse.Namespace) -> int:
    with open(args.infile) as fh:
        vp = variant.read_variant(fh)
    if args.involution:
        declared = variant.make_involution(vp.q, args.involution)
        if declared.images != vp.iota.images:
            raise ValueError(f"file involution does not match --involution {args.involution}")
    assemblies = variant.brute_force_variant_solve(
        vp, limit=args.limit, boundary_fixed=args.boundary_fixed
    )
    print(f"feasible assemblies: {len(assemblies)}")
    print(f"unique vertex assembly: {'yes' if len(assemblies) == 1 else 'no'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    options: dict[str, str] = {}
    if args.config:
        with open(args.config) as fh:
            options.update(experiments.parse_config(fh.read()))
    for override in args.set or []:
        key, _, value = override.partition("=")
        if not _:
            raise ValueError(f"bad --set override: {override!r}")
        options[key.strip()] = value.strip()
    config = experiments.config_from_options(options)
    with open(args.out, "w") as fh:
        rows = experiments.sweep(config, fh)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jigsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random puzzle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", action="store_true")
    p.add_argument("--involution", choices=("identity", "pairing"), help="with --variant (default identity)")
    p.add_argument("--out", required=True)
    p.add_argument("--bag-out", help="also write the shuffled bag")
    p.add_argument("--planted-out", help="also write the planted assembly")
    p.add_argument("--bag-seed", type=int, help="seed for the shuffle (default 0)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="reconstruct a bag")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=windows.DEFAULT_BUDGET)
    p.add_argument("--planted", help="compare against a planted assembly file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive uniqueness report (tiny n: seconds up to n=8 at q=2n)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--limit", type=int, default=oracle.DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("typical", help="check the structural properties")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c-prime", help="positive threshold constant, e.g. 1/50")
    p.add_argument("--budget", type=int, default=windows.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_typical)

    p = sub.add_parser("candidates", help="per-piece candidate status counts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=windows.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("analyze-window", help="stats of a window map")
    p.add_argument("--in", dest="infile", help="file with 'k' then 'wx wy -> px py' lines (default stdin)")
    p.set_defaults(func=_cmd_analyze_window)

    p = sub.add_parser("variant-oracle", help="exhaustive variant solve (tiny n)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--involution",
        choices=("identity", "pairing"),
        help="cross-check the involution stored in the file",
    )
    p.add_argument("--boundary-fixed", action="store_true")
    p.add_argument("--limit", type=int, default=oracle.DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_variant_oracle)

    p = sub.add_parser("sweep", help="run an experiment grid to CSV")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (windows.BudgetExceededError, oracle.LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
