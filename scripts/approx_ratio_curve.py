#!/usr/bin/env python3
"""Rounding quality of the root relaxation over wall time.

Generates random MAX2SAT instances, solves the root relaxation once, then
keeps drawing rounding trials for a fixed budget, sampling the best
satisfied-count ratio seen so far.  The denominator is the certified upper
bound on the satisfiable count (exact optima are out of reach above the
brute-force cap), so every reported ratio is a lower bound on the true one;
it is 1.0 when that bound is 0.

Output: CSV rows (instance, elapsed_seconds, best_ratio) on stdout.
"""

import argparse
import csv
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdpsat.config import SolverConfig  # noqa: E402
from sdpsat.generate import random_instance  # noqa: E402
from sdpsat.rounding import node_unsat, round_once  # noqa: E402
from sdpsat.search import Searcher  # noqa: E402


def ratio(sat: int, sat_upper: int) -> float:
    """sat / sat_upper, rounded; 1.0 when the bound is 0, as in sdpsat
    bench."""
    return 1.0 if sat_upper == 0 else round(sat / sat_upper, 6)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10)
    ap.add_argument("--n", type=int, default=80)
    ap.add_argument("--m", type=int, default=320)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=float, default=2.0,
                    help="rounding seconds per instance after the solve")
    ap.add_argument("--samples", type=int, default=20)
    args = ap.parse_args()
    if args.instances < 1 or args.samples < 1:
        ap.error("--instances and --samples must be at least 1")
    if not args.budget > 0:
        ap.error("--budget must be positive")
    seeds = range(args.seed, args.seed + args.instances)
    try:
        formulas = [random_instance(args.n, args.m, 2, seed=seed)
                    for seed in seeds]
    except ValueError as exc:
        ap.error(f"invalid generator setting: {exc}")

    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "elapsed_seconds", "best_ratio"])
    for seed, inst in zip(seeds, formulas):
        engine = Searcher(inst, SolverConfig(seed=seed))
        t0 = time.monotonic()
        res = engine.solve_root()
        sat_upper = inst.num_clauses - math.ceil(res.cert.dual_bound - 1e-6)
        best = 0
        next_sample = 0
        deadline = time.monotonic() + args.budget
        step = args.budget / args.samples
        while time.monotonic() < deadline:
            values = round_once(engine.factor, engine.state, engine.rng)
            sat = inst.num_clauses - node_unsat(engine.state, values)
            best = max(best, sat)
            elapsed = time.monotonic() - t0
            if elapsed >= next_sample:
                writer.writerow([f"rand-s{seed}", round(elapsed, 4),
                                 ratio(best, sat_upper)])
                next_sample = elapsed + step
        writer.writerow([f"rand-s{seed}",
                         round(time.monotonic() - t0, 4),
                         ratio(best, sat_upper)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
