"""Command-line front end: solve, generate, bench.

Solve output follows the evaluation text protocol: one "o <cost>" line per
incumbent improvement, a final "s OPTIMUM FOUND" / "s UNKNOWN" status line,
then "v <literals>" for the best assignment.  The cost is the unsat count
times the formula's uniform clause weight (Instance.weight, 1 for CNF);
bench rows report unsat counts.  Stats go to stderr so stdout stays
machine-readable.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .config import SolverConfig
from .generate import random_clauses, random_instance, render_dimacs
from .instance import ParseError, parse_dimacs
from .oracle import BRUTE_FORCE_CAP, brute_force_dense
from .search import (COMPLETE, INCOMPLETE, OPTIMUM, solve_complete,
                     solve_incomplete)

BENCH_COLUMNS = ["kind", "name", "n", "m", "mode", "best_unsat",
                 "oracle_unsat", "proved", "time_to_best", "time_total",
                 "nodes", "sdp_solves", "ratio"]


def _config_from(args) -> SolverConfig | None:
    """The solver settings, or None (reported on stderr) if they are invalid."""
    try:
        return SolverConfig(seed=args.seed, time_limit=args.timeout)
    except ValueError as exc:
        print(f"invalid solver setting: {exc}", file=sys.stderr)
        return None


def _run(instance, config, mode, emit):
    """One search in `mode`, calling emit(incumbent) on each improvement:
    (best incumbent or None, whether it is a proved optimum, stats)."""
    if mode == COMPLETE:
        best, status, stats = solve_complete(instance, config,
                                             on_improve=emit)
        return best, status == OPTIMUM, stats
    best, stats = solve_incomplete(instance, config, emit=emit)
    return best, False, stats


def cmd_solve(args) -> int:
    config = _config_from(args)
    if config is None:
        return 2
    try:
        instance = parse_dimacs(Path(args.input).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error in {args.input}: {exc}", file=sys.stderr)
        return 2

    def emit(incumbent):
        print(f"o {instance.weight * incumbent.unsat}", flush=True)

    best, proved, stats = _run(instance, config, args.mode, emit)
    print("s OPTIMUM FOUND" if proved else "s UNKNOWN", flush=True)
    if best is not None:
        lits = (str(v if best.assignment[v] > 0 else -v)
                for v in range(1, instance.num_vars + 1))
        print("v " + " ".join(lits), flush=True)
    for key, value in stats.as_dict().items():
        print(f"stats {key}={value}", file=sys.stderr)
    return 0 if best is not None else 1


def cmd_generate(args) -> int:
    try:
        rng = np.random.default_rng(args.seed)
        clauses = random_clauses(args.n, args.m, args.length, rng)
    except ValueError as exc:
        print(f"invalid generator setting: {exc}", file=sys.stderr)
        return 2
    text = render_dimacs(args.n, clauses)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _bench_inputs(args):
    """(name, instance) pairs from a directory or the generator settings."""
    if args.dir:
        paths = sorted(p for p in Path(args.dir).iterdir()
                       if p.suffix in (".cnf", ".wcnf", ".dimacs"))
        return [(p.name, parse_dimacs(p.read_text())) for p in paths]
    if args.gen_count:
        if args.gen_count < 0:
            raise ValueError(f"negative instance count {args.gen_count}")
        out = []
        for seed in range(args.seed, args.seed + args.gen_count):
            name = (f"rand-n{args.gen_n}-m{args.gen_m}"
                    f"-l{args.gen_length}-s{seed}")
            out.append((name, random_instance(args.gen_n, args.gen_m,
                                              args.gen_length, seed)))
        return out
    return []


def cmd_bench(args) -> int:
    config = _config_from(args)
    if config is None:
        return 2
    try:
        inputs = _bench_inputs(args)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"bench input error: {exc}", file=sys.stderr)
        return 2
    if not inputs:
        print("empty input set", file=sys.stderr)
        return 2
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_COLUMNS, restval="")
    writer.writeheader()
    solved_times = []
    ratio_rows = []
    for name, instance in inputs:
        oracle = ""
        if instance.num_vars <= BRUTE_FORCE_CAP:
            oracle, _ = brute_force_dense(instance)
        clauses = instance.num_clauses + instance.empty_count

        def ratio(unsat):
            """Satisfied clauses over the optimum's ("" without an oracle)."""
            if oracle == "":
                return ""
            opt = clauses - oracle
            return 1.0 if opt == 0 else round((clauses - unsat) / opt, 6)

        emits = []
        t_start = time.monotonic()
        best, proved, stats = _run(instance, config, args.mode, emits.append)
        total = time.monotonic() - t_start
        head = {"name": name, "n": instance.num_vars,
                "m": instance.num_clauses, "mode": args.mode,
                "oracle_unsat": oracle}
        row = {"kind": "instance", **head, "proved": proved,
               "time_total": round(total, 6), "nodes": stats.nodes_popped,
               "sdp_solves": stats.sdp_solves}
        if best is not None:
            row.update(best_unsat=best.unsat, ratio=ratio(best.unsat),
                       time_to_best=round(best.found_at, 6))
        writer.writerow(row)
        if oracle != "":
            ratio_rows += [{"kind": "ratio", **head, "best_unsat": inc.unsat,
                            "ratio": ratio(inc.unsat),
                            "time_to_best": round(inc.found_at, 6)}
                           for inc in emits]
        if proved:
            solved_times.append((total, name))
    for rank, (t, name) in enumerate(sorted(solved_times), start=1):
        writer.writerow({"kind": "cactus", "name": name, "n": rank,
                         "mode": args.mode, "proved": True,
                         "time_total": round(t, 6)})
    writer.writerows(ratio_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpsat",
        description="MAXSAT solving via a low-rank semidefinite relaxation "
                    "inside branch and bound")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolverConfig

    def solver_flags(p):
        p.add_argument("--mode", choices=(COMPLETE, INCOMPLETE),
                       default=COMPLETE)
        p.add_argument("--timeout", type=float, default=defaults.time_limit,
                       help="wall-clock limit in seconds")
        p.add_argument("--seed", type=int, default=defaults.seed,
                       help="RNG seed")

    p_solve = sub.add_parser("solve", help="solve one DIMACS file")
    p_solve.add_argument("input")
    solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="emit a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--length", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=defaults.seed)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run a batch and emit CSV")
    inputs = p_bench.add_mutually_exclusive_group()
    inputs.add_argument("--dir", default=None,
                        help="directory of DIMACS files")
    inputs.add_argument("--gen-count", type=int, default=0,
                        help="generate this many random instances instead")
    p_bench.add_argument("--gen-n", type=int, default=16)
    p_bench.add_argument("--gen-m", type=int, default=64)
    p_bench.add_argument("--gen-length", type=int, default=2)
    solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
