#!/usr/bin/env python3
"""Cost of one DFS step below a solved root, in us.

For every seed in [first, first + count), solves the root of
`sdpsat.generate.random_instance(n, m, length, seed)` as the search does
(Searcher.solve_root, SolverConfig(seed=0)), seeds a ShiftLedger and a
LossTracker from it, and draws a full-depth path: every free variable, in
a seeded order, with a seeded value.  One round walks every root's path
down and unwinds it; a step is one assignment there: instance.assign,
ShiftLedger.apply and LossTracker.move on the way down, both reverts and
instance.unassign_to on the way back.  The printed figure is the median
over the rounds of the round's time per step.  BLAS runs on one thread,
set before numpy loads.

Output: a header and one whitespace-separated row on stdout:
n, m, length, roots, steps per round, us per step.

    python3 scripts/step_cost.py --n 14 --m 98 --length 3 --count 20
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from sdpsat.bounds import ShiftLedger  # noqa: E402
from sdpsat.config import SolverConfig  # noqa: E402
from sdpsat.generate import random_instance  # noqa: E402
from sdpsat.instance import FALSE, TRUE, assign, unassign_to  # noqa: E402
from sdpsat.sdp import LossTracker  # noqa: E402
from sdpsat.search import Searcher  # noqa: E402


def seeded_root(n: int, m: int, length: int, seed: int):
    """The solved root of one formula: (searcher, ledger, tracker, path)."""
    engine = Searcher(random_instance(n, m, length, seed),
                      SolverConfig(seed=0))
    res = engine.solve_root()
    rng = np.random.default_rng(seed)
    free = engine.state.free_vars()
    path = [(int(v), TRUE if rng.random() < 0.5 else FALSE)
            for v in rng.permutation(free)]
    return (engine, ShiftLedger(res.cert),
            LossTracker(engine.state, engine.factor), path)


def walk(engine, ledger, tracker, path) -> None:
    """Walk `path` down and unwind it, one step per assignment."""
    state, ws = engine.state, engine.ws
    for var, value in path:
        moved = assign(state, ws, var, value)
        ledger.apply(state, var, value, moved)
        tracker.move(state, moved)
    for _ in path:
        tracker.revert()
        ledger.revert()
        unassign_to(state, ws, len(state.trail) - 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--length", type=int, required=True)
    ap.add_argument("--first", type=int, default=0, help="first seed")
    ap.add_argument("--count", type=int, default=20, help="roots")
    ap.add_argument("--rounds", type=int, default=15,
                    help="timed walks over all roots (median taken)")
    args = ap.parse_args()
    if args.count < 1 or args.rounds < 1:
        ap.error("--count and --rounds must be at least 1")

    roots = [seeded_root(args.n, args.m, args.length, seed)
             for seed in range(args.first, args.first + args.count)]
    steps = sum(len(root[3]) for root in roots)
    per_step = []
    for _ in range(args.rounds):
        start = time.perf_counter()
        for root in roots:
            walk(*root)
        per_step.append((time.perf_counter() - start) / steps)
    print("n m length roots steps us_per_step")
    print(args.n, args.m, args.length, len(roots), steps,
          f"{1e6 * statistics.median(per_step):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
