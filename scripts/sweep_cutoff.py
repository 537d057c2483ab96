#!/usr/bin/env python3
"""Per-sweep cost of the dense and the sparse layout of the cost matrix.

For each size n, takes the root of a random MAX2SAT formula (m = 4n,
default rank) and times sdp.dense_sweep on the dense matrix (node_cost)
and sdp.sparse_sweep on the nonzero entries of its rows (sweep_plan),
each from the same start factor, plus the setup each layout costs once
per solve: node_cost for the dense one, sweep_plan(node_cost) for the
sparse one.  The crossover is where sdp.DENSE_MAX_COLUMNS belongs.  BLAS
runs on one thread, set before numpy loads.

Output: one whitespace-separated row per size on stdout, times in us:
n, rank, dense sweep, sparse sweep, dense setup, sparse setup.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from sdpsat import sdp  # noqa: E402
from sdpsat.generate import random_instance  # noqa: E402
from sdpsat.instance import NodeState  # noqa: E402

SIZES = (28, 64, 128, 200, 255, 400, 800)


def per_call_us(call, calls: int, rounds: int) -> float:
    """Median over `rounds` blocks of `calls` calls, per call, in us."""
    blocks = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        blocks.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(blocks)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sweeps", type=int, default=20,
                    help="sweeps per timed block")
    ap.add_argument("--rounds", type=int, default=5,
                    help="timed blocks per figure (median)")
    args = ap.parse_args()

    print("n rank dense_us sparse_us dense_setup_us sparse_setup_us")
    for n in args.sizes:
        inst = random_instance(n, 4 * n, 2, seed=args.seed)
        state = NodeState(inst)
        k = sdp.default_rank(n)
        start = sdp.init_factor(n, k, args.seed)
        order = list(range(1, n + 1))
        cost = sdp.node_cost(state, order)
        plan = sdp.sweep_plan(cost)
        dense_factor, sparse_factor = start.copy(), start.copy()
        dense = per_call_us(lambda: sdp.dense_sweep(cost, dense_factor),
                            args.sweeps, args.rounds)
        sparse = per_call_us(lambda: sdp.sparse_sweep(plan, sparse_factor),
                             args.sweeps, args.rounds)
        dense_setup = per_call_us(lambda: sdp.node_cost(state, order), 1,
                                  args.rounds)
        sparse_setup = per_call_us(
            lambda: sdp.sweep_plan(sdp.node_cost(state, order)), 1,
            args.rounds)
        print(f"{n} {k} {dense:.1f} {sparse:.1f} {dense_setup:.1f} "
              f"{sparse_setup:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
