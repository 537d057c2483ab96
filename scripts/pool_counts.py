#!/usr/bin/env python3
"""Optima, statuses and summed search counters over a seeded formula pool.

Solves `sdpsat.generate.random_instance(n, m, length, seed)` for every
seed in [first, first + count) with `solve_complete` (SolverConfig(seed=0),
no time limit) and prints one JSON line: the optima and statuses in seed
order and every integer SearchStats counter summed over the pool (wall
time is left out, so two runs of one tree compare equal).
With `--oracle` the brute-force optima are added and checked against the
solver's; a mismatch exits 1.  BLAS runs on one thread, set before numpy
loads.

Two solver versions that should search the same tree print the same
line; for example:

    python3 scripts/pool_counts.py --n 28 --m 112 --length 2 --count 200
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import fields  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdpsat.config import SolverConfig  # noqa: E402
from sdpsat.generate import random_instance  # noqa: E402
from sdpsat.oracle import BRUTE_FORCE_CAP, brute_force  # noqa: E402
from sdpsat.search import SearchStats, solve_complete  # noqa: E402

COUNTERS = [f.name for f in fields(SearchStats) if f.type in (int, "int")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--length", type=int, required=True)
    ap.add_argument("--first", type=int, default=0, help="first seed")
    ap.add_argument("--count", type=int, default=40, help="formulas")
    ap.add_argument("--oracle", action="store_true",
                    help="also brute-force every optimum "
                         f"(n <= {BRUTE_FORCE_CAP})")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be at least 1")
    if args.oracle and args.n > BRUTE_FORCE_CAP:
        ap.error(f"--n must be at most {BRUTE_FORCE_CAP} with --oracle")
    try:
        formulas = [random_instance(args.n, args.m, args.length, seed)
                    for seed in range(args.first, args.first + args.count)]
    except ValueError as exc:
        ap.error(f"invalid generator setting: {exc}")

    optima, statuses, oracle = [], [], []
    totals = dict.fromkeys(COUNTERS, 0)
    for inst in formulas:
        best, status, stats = solve_complete(inst, SolverConfig(seed=0))
        optima.append(best.unsat)
        statuses.append(status)
        for name in COUNTERS:
            totals[name] += getattr(stats, name)
        if args.oracle:
            oracle.append(brute_force(inst)[0])
    line = {"n": args.n, "m": args.m, "length": args.length,
            "seeds": [args.first, args.first + args.count],
            "optima": optima, "statuses": statuses, "counters": totals}
    if args.oracle:
        line["oracle"] = oracle
    print(json.dumps(line))
    return 1 if args.oracle and oracle != optima else 0


if __name__ == "__main__":
    sys.exit(main())
