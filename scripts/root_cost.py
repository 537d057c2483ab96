#!/usr/bin/env python3
"""Cost of the numpy layers of one dense root, of one unit-propagation
core count and one derived child cost matrix below it, in us per call, and
of one DFS step below it, in us per step.

For every seed in [first, first + count), solves and rounds the root of
`sdpsat.generate.random_instance(n, m, length, seed)` as the search does
(Searcher.solve_root and round_root, SolverConfig(seed=0)) and times, at
that solved root, each layer the search runs on it:

    node_cost      the solve's cost matrix, in the solve's sweep order
    dense_sweep    one sweep of that matrix (on a copy of the factor)
    cert_raw       certificate(cost, factor, repair=False)
    prune_cert     pruning_certificate at a floor 1 below the raw bound,
                   so its Cholesky runs
    cert_repaired  certificate(cost, factor), eigen-repaired
    loss_tracker   LossTracker(state, factor), as expand_root seeds one
    rounding       one best_rounding block of rounding_budget trials
    up_cores       bounds.up_cores at the node the walk below reaches
                   after DEPTH_LIMIT steps (one fewer than its length at
                   most), as a popped root one expansion deep, with need
                   = incumbent - base_unsat as Searcher.process_root sets
                   it
    child_cost     ShiftLedger.child_cost(res.cost, state) at that node,
                   with the ledger applied along those steps, as
                   expand_root derives a frontier child's cost matrix
    dfs_step       one step of a seeded full-depth walk (every free
                   variable, in a seeded order, with a seeded value) and
                   back: instance.assign, ShiftLedger.apply and
                   LossTracker.move on the way down, both reverts and
                   instance.unassign_to on the way back

node_cost is the first reader of a node's view in a root solve, so before
each of its calls the trail is moved away and back (one assign and one
unassign_to, not timed); the other layers find the view as the search
does.  The trail is moved to up_cores' node (the ledger applied along
it) before its calls, and back to the root (the ledger reverted) before
the walk's, untimed.  One round calls every layer once at every root,
the walk last; a layer's figure is the median over the rounds of its
mean time per call (per step for dfs_step).  BLAS runs on one thread,
set before numpy loads.

Output: a header and one whitespace-separated row on stdout: n, m,
length, roots, then one column per layer above, in us per call (per
step for dfs_step).

    python3 scripts/root_cost.py --n 14 --m 98 --length 3 --count 20
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from sdpsat import sdp, search  # noqa: E402
from sdpsat.bounds import ShiftLedger, up_cores  # noqa: E402
from sdpsat.config import SolverConfig  # noqa: E402
from sdpsat.generate import random_instance  # noqa: E402
from sdpsat.instance import FALSE, TRUE, assign, unassign_to  # noqa: E402
from sdpsat.rounding import best_rounding, rounding_budget  # noqa: E402
from sdpsat.search import Searcher  # noqa: E402

LAYERS = ("node_cost", "dense_sweep", "cert_raw", "prune_cert",
          "cert_repaired", "loss_tracker", "rounding", "up_cores",
          "child_cost", "dfs_step")


def root_layers(n: int, m: int, length: int, seed: int) -> list:
    """The solved root of one formula as (setup, call, units) per layer, in
    LAYERS order; setup is None or an untimed step run before each call,
    and units counts what one call does (1, or the walk's steps)."""
    engine = Searcher(random_instance(n, m, length, seed),
                      SolverConfig(seed=0))
    res = engine.solve_root()
    engine.round_root()
    state, ws, factor, cost = engine.state, engine.ws, engine.factor, res.cost
    swept = sdp.Factor(factor.cols.copy())
    floor = sdp.certificate(cost, factor, repair=False).dual_bound - 1.0
    budget = rounding_budget(state.free_count)
    away = state.free_vars()[0]
    ledger, tracker = ShiftLedger(res.cert), sdp.LossTracker(state, factor)
    rng = np.random.default_rng(seed)
    path = [(int(v), TRUE if rng.random() < 0.5 else FALSE)
            for v in rng.permutation(state.free_vars())]
    below = path[:min(search.DEPTH_LIMIT, len(path) - 1)]

    def move_below():
        for var, value in below:
            ledger.apply(state, var, value, assign(state, ws, var, value))

    def back_to_root():
        for _ in below:
            ledger.revert()
        unassign_to(state, ws, 0)

    move_below()
    need = engine.best_unsat - state.base_unsat
    back_to_root()

    def move_away_and_back():
        assign(state, ws, away, TRUE)
        unassign_to(state, ws, 0)

    def walk():
        for var, value in path:
            moved = assign(state, ws, var, value)
            ledger.apply(state, var, value, moved)
            tracker.move(state, moved)
        for _ in path:
            tracker.revert()
            ledger.revert()
            unassign_to(state, ws, len(state.trail) - 1)

    return [
        (move_away_and_back, lambda: sdp.node_cost(state, engine.order), 1),
        (None, lambda: sdp.dense_sweep(cost, swept), 1),
        (None, lambda: sdp.certificate(cost, factor, repair=False), 1),
        (None, lambda: sdp.pruning_certificate(cost, factor, floor), 1),
        (None, lambda: sdp.certificate(cost, factor), 1),
        (None, lambda: sdp.LossTracker(state, factor), 1),
        (None, lambda: best_rounding(factor, state, budget,
                                     np.random.default_rng(0)), 1),
        (move_below, lambda: up_cores(state, need), 1),
        (None, lambda: ledger.child_cost(cost, state), 1),
        (back_to_root, walk, len(path)),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--length", type=int, required=True)
    ap.add_argument("--first", type=int, default=0, help="first seed")
    ap.add_argument("--count", type=int, default=20, help="roots")
    ap.add_argument("--rounds", type=int, default=15,
                    help="timed calls per layer and root (median taken)")
    args = ap.parse_args()
    if args.count < 1 or args.rounds < 1:
        ap.error("--count and --rounds must be at least 1")
    if args.n < 1:
        ap.error("--n must be at least 1")

    roots = [root_layers(args.n, args.m, args.length, seed)
             for seed in range(args.first, args.first + args.count)]
    units = [sum(layers[i][2] for layers in roots)
             for i in range(len(LAYERS))]
    rounds = [[0.0] * len(LAYERS) for _ in range(args.rounds)]
    for spent in rounds:
        for layers in roots:
            for i, (setup, call, _) in enumerate(layers):
                if setup is not None:
                    setup()
                start = time.perf_counter()
                call()
                spent[i] += time.perf_counter() - start
    medians = [statistics.median(spent[i] for spent in rounds) / units[i]
               for i in range(len(LAYERS))]
    print("n m length roots " + " ".join(LAYERS))
    print(args.n, args.m, args.length, len(roots),
          *(f"{1e6 * t:.1f}" for t in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
