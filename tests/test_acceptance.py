"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import random
import time
from unittest import mock

import numpy as np

import sdpsat.search
from sdpsat.bounds import ShiftLedger
from sdpsat.cli import main as cli_main
from sdpsat.config import SolverConfig
from sdpsat.generate import random_instance
from sdpsat.instance import (FALSE, FREE, TRUE, NodeState, WatchedStack,
                             assign, evaluate, instance_from_clauses,
                             unassign_to)
from sdpsat.oracle import (brute_force, brute_force_dense, dense_sdp_check,
                           min_unsat_completion)
from sdpsat.rounding import best_rounding, rounding_budget
from sdpsat.sdp import ZCache, clause_loss, solve as sdp_solve
from sdpsat.search import (OPTIMUM, Searcher, SearchNode, solve_complete,
                           solve_incomplete)
from tests.test_instance import naive_statuses
from tests.test_search import record_bounds
from tests.test_sdp import integral_factor


def test_criterion_01_exactness_vs_oracle_max2sat():
    t0 = time.monotonic()
    matched = 0
    total = 200
    for seed in range(total):
        inst = random_instance(16, 64, 2, seed=seed)
        best, status, _ = solve_complete(inst, SolverConfig(seed=seed))
        oracle_best, _ = brute_force(inst)
        assert status == OPTIMUM, f"seed {seed}: status {status}"
        assert best.unsat == oracle_best, (
            f"seed {seed}: solver {best.unsat} vs oracle {oracle_best}")
        matched += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s, budget 300s"
    print(f"criterion 1: PASS - {matched}/{total} optima match the oracle "
          f"in {elapsed:.1f}s")


def test_criterion_02_lower_bound_soundness():
    """The bounds of every decided child and every child dropped by its own
    certificate, the first 400 of each formula's search."""
    records = []
    seed = 0
    while len(records) < 1200 and seed < 200:
        n = 12 + seed % 3  # n in {12, 13, 14}
        inst = random_instance(n, 5 * n, 3, seed=seed)
        bucket = []
        engine = Searcher(inst, SolverConfig(seed=seed))
        with record_bounds(engine, bucket):
            engine.run()
        records.extend((inst, path, dual) for path, dual in bucket[:400])
        seed += 1
    sample = random.Random(0).sample(records, 1000)
    sound = 0
    for inst, path, dual in sample:
        values = [FREE] * (inst.num_vars + 1)
        values[0] = 1
        for var, val in path:
            values[var] = val
        assert math.ceil(dual - 1e-6) <= min_unsat_completion(inst, values)
        sound += 1
    print(f"criterion 2: PASS - {sound}/1000 recorded dual bounds below the "
          f"exhaustive completion minimum")


def test_criterion_03_loss_case_table():
    checked = 0
    for n_j in range(1, 5):
        for signs in itertools.product((1, -1), repeat=n_j):
            lits = [s * (i + 1) for i, s in enumerate(signs)]
            inst = instance_from_clauses(n_j, [lits])
            for values in itertools.product((1, -1), repeat=n_j):
                full = (1,) + values
                factor = integral_factor(inst, full)
                zc = ZCache(inst, 3)
                zc.rebuild(NodeState(inst), factor)
                loss = clause_loss(zc.z[0], n_j)
                n_true = sum(1 for lit in lits
                             if (lit > 0) == (full[abs(lit)] > 0))
                if n_true == 0:
                    assert abs(loss - 1.0) <= 1e-12
                elif n_true in (1, n_j):
                    assert abs(loss) <= 1e-12
                else:
                    assert loss < -1e-12
                checked += 1
    print(f"criterion 3: PASS - loss case structure exact on {checked} "
          f"clause/assignment combinations")


def test_criterion_04_monotone_sweeps_and_convergence():
    converged = 0
    total = 50
    for seed in range(total):
        inst = random_instance(100, 400, 2, seed=seed)
        engine = Searcher(inst, SolverConfig(seed=seed))
        engine.zcache.rebuild(engine.state, engine.factor)
        res = sdp_solve(engine.state, engine.factor, engine.zcache,
                        eps=1e-5, max_sweeps=400)
        for a, b in zip(res.trace, res.trace[1:]):
            assert b <= a + 1e-12, f"seed {seed}: objective increased"
        if abs(res.objective_unsat - res.cert.dual_bound) <= 0.1:
            converged += 1
    assert converged >= 45, f"only {converged}/50 reached the 0.1 gap"
    print(f"criterion 4: PASS - monotone on 50/50, gap <= 0.1 on "
          f"{converged}/50 within 400 sweeps")


def test_criterion_05_dual_warm_start_feasibility():
    """The expanding root's shifted certificate at every emitted child."""
    collected = []
    specs = ([(50, 200, 2, s) for s in range(6)]
             + [(30, 120, 3, s) for s in range(4)])
    for n, m, length, seed in specs:
        inst = random_instance(n, m, length, seed=seed)
        ledger = []

        def new_ledger(cert):
            ledger[:] = [ShiftLedger(cert)]
            return ledger[0]

        def new_node(*args, **kwargs):
            node = SearchNode(*args, **kwargs)
            # the queue's first node is made before any root is expanded
            if ledger and len(collected) < 4000:
                collected.append((inst, node.path, ledger[0].cert_snapshot()))
            return node

        with mock.patch.multiple(sdpsat.search, ShiftLedger=new_ledger,
                                 SearchNode=new_node):
            solve_complete(inst, SolverConfig(seed=seed, time_limit=2.0))
    assert len(collected) >= 200, f"only {len(collected)} transitions seen"
    sample = random.Random(1).sample(collected, 200)
    worst = 0.0
    for inst, path, cert in sample:
        state, ws = NodeState(inst), WatchedStack()
        for var, val in path:
            assign(state, ws, var, val)
        check = dense_sdp_check(state, lam=cert.lam)
        worst = min(worst, check.min_eig)
        assert check.min_eig >= -1e-6
    print(f"criterion 5: PASS - 200/200 shifted certificates feasible "
          f"(worst min-eig {worst:.2e})")


def test_criterion_06_approximation_quality():
    ratios = []
    for seed in range(100):
        inst = random_instance(40, 160, 2, seed=seed)
        engine = Searcher(inst, SolverConfig(seed=seed))
        res = engine.solve_root()
        budget = rounding_budget(engine.state.free_count)
        _, unsat, _ = best_rounding(engine.factor, engine.state, budget,
                                    engine.rng)
        # n=40 is beyond the brute-force cap; the certified dual bound gives
        # an upper bound on the satisfiable count, so this ratio is a lower
        # bound on the true satisfied/optimal ratio
        sat_upper = inst.num_clauses - math.ceil(res.cert.dual_bound - 1e-6)
        ratios.append((inst.num_clauses - unsat) / sat_upper)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 0.878, f"mean ratio {mean_ratio:.4f} below 0.878"
    print(f"criterion 6: PASS - mean root-rounding ratio {mean_ratio:.4f} "
          f">= 0.878 (conservative denominator)")


def test_criterion_07_anytime_behavior():
    hits = 0
    total = 100
    for seed in range(total):
        inst = random_instance(20, 80, 2, seed=seed)
        seen = []
        best, _ = solve_incomplete(
            inst, SolverConfig(seed=seed, time_limit=5.0),
            emit=lambda inc: seen.append(inc.unsat))
        assert seen, f"seed {seed}: nothing emitted"
        assert all(a > b for a, b in zip(seen, seen[1:])), (
            f"seed {seed}: emissions not strictly decreasing: {seen}")
        oracle_best, _ = brute_force_dense(inst)
        if best.unsat == oracle_best:
            hits += 1
    assert hits >= 95, f"optimum reached on only {hits}/100"
    print(f"criterion 7: PASS - anytime optimum on {hits}/100, emissions "
          f"strictly decreasing on 100/100")


def test_criterion_08_watched_stack_equivalence():
    inst = random_instance(500, 2000, 2, seed=0)
    state, ws = NodeState(inst), WatchedStack()
    rng = np.random.default_rng(0)
    checkpoints = set(rng.choice(100_000, size=100, replace=False).tolist())
    for step in range(100_000):
        if state.trail and (state.free_count == 0 or rng.random() < 0.4):
            unassign_to(state, ws, int(rng.integers(0, len(state.trail))))
        else:
            free = state.free_vars()
            var = free[int(rng.integers(0, len(free)))]
            assign(state, ws, var, TRUE if rng.random() < 0.5 else FALSE)
        if step in checkpoints:
            statuses, base = naive_statuses(inst, state.assignment)
            assert statuses == state.clause_status
            assert base == state.base_unsat
    # instrumented touch count over a fresh full assignment
    state2, ws2 = NodeState(inst), WatchedStack()
    order = rng.permutation(np.arange(1, 501))
    for v in order:
        assign(state2, ws2, int(v), TRUE if rng.random() < 0.5 else FALSE)
    assert ws2.touch_count == inst.nnz
    print(f"criterion 8: PASS - 100 checkpoints over 100k ops match the "
          f"naive re-scan; full assignment touches == nnz ({inst.nnz})")


def test_criterion_09_max3sat_generalization():
    matched = 0
    total = 50
    for seed in range(total):
        inst = random_instance(14, 60, 3, seed=seed)
        best, status, _ = solve_complete(inst, SolverConfig(seed=seed))
        oracle_best, _ = brute_force(inst)
        assert status == OPTIMUM
        assert best.unsat == oracle_best, (
            f"seed {seed}: solver {best.unsat} vs oracle {oracle_best}")
        matched += 1
    print(f"criterion 9: PASS - {matched}/{total} MAX3SAT optima match the "
          f"oracle")


def test_criterion_10_determinism(tmp_path, capsys):
    identical = 0
    total = 20
    for i in range(total):
        n, m = (14, 56) if i < 14 else (12, 48)
        mode = "complete" if i < 14 else "incomplete"
        path = tmp_path / f"det{i}.cnf"
        cli_main(["generate", "--n", str(n), "--m", str(m), "--length", "2",
                  "--seed", str(i), "-o", str(path)])
        outputs = []
        for _ in range(2):
            code = cli_main(["solve", str(path), "--mode", mode,
                             "--seed", str(i)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], f"instance {i} stdout differs"
        identical += 1
    print(f"criterion 10: PASS - byte-identical stdout on {identical}/{total} "
          f"instances (both modes)")
