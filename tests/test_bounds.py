"""Warm-started child bounds, checked on the path the search runs.

A child is priced the way Searcher.expand_root prices it: instance.assign,
then ShiftLedger.apply for the dual side and ZCache.assign_update for the
primal side.  Every figure is compared with the independent dense reference
oracle.dense_sdp_check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsat.bounds import Decision, ShiftLedger, ceil_bound, decide
from sdpsat.generate import random_instance
from sdpsat.instance import (FALSE, FREE, TRUE, NodeState, WatchedStack,
                             assign, parse_dimacs, unassign_to)
from sdpsat.oracle import dense_sdp_check
from sdpsat.sdp import (ZCache, dual_from_primal, init_factor, objective,
                        solve)
from tests.test_sdp import fresh_solver_state, integral_factor


def random_partial(rng, n, count):
    vars_ = rng.choice(np.arange(1, n + 1), size=count, replace=False)
    return [(int(v), TRUE if rng.random() < 0.5 else FALSE) for v in vars_]


def price_child(state, ws, factor, zc, ledger, parent_obj, assignments):
    """Assign a child delta as expand_root does; returns the child primal.

    The primal is the parent objective plus the cached-row objective moves,
    a valid upper bound on the child's relaxation optimum.  Restore with
    unassign_to + ZCache.rebuild (and ShiftLedger.revert per assignment).
    """
    child_obj = parent_obj
    for var, value in assignments:
        moved = assign(state, ws, var, value)
        if ledger is not None:
            ledger.apply(state, var, value, moved)
        _, d_obj = zc.assign_update(state, factor, var, moved)
        child_obj += d_obj
    return child_obj


def assert_ledger_matches_dense(ledger, state, tol=1e-6):
    """The ledger's running bound equals the snapshot's, with the constants
    recomputed densely, and the snapshot is feasible for the child."""
    snap = ledger.cert_snapshot()
    dense = dense_sdp_check(state, lam=snap.lam)
    expected = -snap.lam.sum() + dense.diag_sum + dense.const_offset
    assert ledger.dual_bound() == pytest.approx(expected, abs=1e-9)
    assert snap.dual_bound == pytest.approx(expected, abs=1e-9)
    assert dense.min_eig >= -tol
    return snap


def test_ceil_bound_guard():
    assert ceil_bound(4.9999999) == 5
    assert ceil_bound(4.2) == 5
    assert ceil_bound(5.0) == 5
    assert ceil_bound(0.0) == 0


def test_decide_examples():
    assert decide(4.5, 4.2, best_known=5) == Decision.PRUNE
    assert decide(3.0, 1.0, best_known=5) == Decision.EXPAND
    assert decide(5.6, 3.4, best_known=5) == Decision.SOLVE


def test_primal_init_empty_delta():
    inst = random_instance(8, 24, 2, seed=1)
    state, ws, factor, zc = fresh_solver_state(inst, seed=1)
    before = objective(state, factor, zc)
    after = price_child(state, ws, factor, zc, None, before, [])
    assert after == pytest.approx(before, abs=1e-12)
    assert after == pytest.approx(dense_sdp_check(state, factor).objective,
                                  abs=1e-9)


def test_primal_init_matches_dense_recomputation():
    rng = np.random.default_rng(3)
    for seed in range(20):
        inst = random_instance(10, 30, 2, seed=seed)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        delta = random_partial(rng, 10, int(rng.integers(1, 5)))
        child_obj = price_child(state, ws, factor, zc, None,
                                objective(state, factor, zc), delta)
        dense = dense_sdp_check(state, factor=factor)
        assert child_obj == pytest.approx(dense.objective, abs=1e-9)
        assert objective(state, factor, zc) == pytest.approx(
            dense.objective, abs=1e-9)
        unassign_to(state, ws, 0)
        zc.rebuild(state, factor)


def test_primal_init_integral_substitution_invariance():
    inst = random_instance(9, 27, 2, seed=4)
    encoded = (1,) + tuple(1 if i % 3 else -1 for i in range(9))
    factor = integral_factor(inst, encoded)
    state, ws = NodeState(inst), WatchedStack(inst)
    zc = ZCache(inst, 3)
    zc.rebuild(state, factor)
    before = objective(state, factor, zc)
    after = price_child(state, ws, factor, zc, None, before,
                        [(3, encoded[3])])
    assert after == pytest.approx(before, abs=1e-9)
    assert after == pytest.approx(dense_sdp_check(state, factor).objective,
                                  abs=1e-9)


def test_delta_vector_disjoint_support():
    inst = parse_dimacs("p cnf 3 2\n1 0\n2 3 0")
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    ledger = ShiftLedger(dual_from_primal(state, factor, zc))
    price_child(state, ws, factor, zc, ledger, 0.0, [(1, TRUE)])
    assert not ledger.delta.any() and not ledger.eta.any()


def test_delta_vector_worked_example():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    ledger = ShiftLedger(dual_from_primal(state, factor, zc))
    price_child(state, ws, factor, zc, ledger, 0.0, [(1, FALSE)])
    assert np.flatnonzero(ledger.delta).tolist() == [2]
    assert ledger.delta[2] == pytest.approx(-1.0 / 8.0)
    assert not ledger.eta.any()
    ledger.revert()
    unassign_to(state, ws, 0)
    assert not ledger.delta.any() and state.trail == []  # rolled back


def test_delta_vector_matches_dense_difference():
    rng = np.random.default_rng(11)
    for seed in range(30):
        length = 2 if seed % 2 == 0 else 3
        inst = random_instance(10, 30, length, seed=seed)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        parent = dense_sdp_check(state)
        parent_pos = {v: p for p, v in enumerate(parent.index)}
        ledger = ShiftLedger(dual_from_primal(state, factor, zc))
        assignments = random_partial(rng, 10, int(rng.integers(1, 4)))
        price_child(state, ws, factor, zc, ledger, 0.0, assignments)
        child = dense_sdp_check(state)
        assert set(np.flatnonzero(ledger.delta)) <= set(child.index[1:])
        for p, v in enumerate(child.index[1:], start=1):
            dense_diff = child.cost[0, p] - parent.cost[0, parent_pos[v]]
            assert ledger.delta[v] == pytest.approx(dense_diff, abs=1e-12)
        unassign_to(state, ws, 0)


def test_dual_init_no_coefficient_movement():
    inst = parse_dimacs("p cnf 2 2\n1 0\n2 0")
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    res = solve(state, factor, zc, eps=1e-8, max_sweeps=2000)
    assert res.cert.dual_bound == pytest.approx(0.0, abs=1e-6)
    ledger = ShiftLedger(res.cert)
    price_child(state, ws, factor, zc, ledger, res.objective_unsat,
                [(1, TRUE)])
    assert not ledger.delta.any() and not ledger.eta.any()
    assert_ledger_matches_dense(ledger, state)
    # no xi shift; the bound moves only by the constant bookkeeping of the
    # satisfied unit clause (folded diagonal 1/2 leaves, multiplier 1/4 of the
    # dropped column is recovered by masking): 0 - 1/2 + 1/4
    assert ledger.dual_bound() == pytest.approx(-0.25, abs=1e-6)
    assert ledger.dual_bound() <= 0.0 + 1e-9  # still below the child optimum


def test_dual_init_feasible_and_below_child_optimum():
    rng = np.random.default_rng(5)
    for seed in range(25):
        length = 2 if seed % 2 == 0 else 3
        inst = random_instance(12, 36, length, seed=seed + 50)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        res = solve(state, factor, zc, eps=1e-6, max_sweeps=4000)
        ledger = ShiftLedger(res.cert)
        assignments = random_partial(rng, 12, int(rng.integers(1, 5)))
        price_child(state, ws, factor, zc, ledger, res.objective_unsat,
                    assignments)
        assert_ledger_matches_dense(ledger, state)
        # child bound never exceeds a freshly solved child relaxation
        child_factor = init_factor(12, factor.k, seed=seed + 7)
        child_zc = ZCache(inst, factor.k)
        child_zc.rebuild(state, child_factor)
        child_res = solve(state, child_factor, child_zc, eps=1e-6,
                          max_sweeps=4000)
        assert ledger.dual_bound() <= child_res.objective_unsat + 1e-6
        unassign_to(state, ws, 0)


def test_bound_pair_ordering_on_warm_starts():
    rng = np.random.default_rng(9)
    for seed in range(15):
        inst = random_instance(10, 40, 2, seed=seed + 200)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        res = solve(state, factor, zc, eps=1e-4)
        ledger = ShiftLedger(res.cert)
        assignments = random_partial(rng, 10, 3)
        child_primal = price_child(state, ws, factor, zc, ledger,
                                   res.objective_unsat, assignments)
        assert child_primal == pytest.approx(
            dense_sdp_check(state, factor).objective, abs=1e-9)
        assert child_primal >= ledger.dual_bound() - 1e-6
        unassign_to(state, ws, 0)
        zc.rebuild(state, factor)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_shift_ledger_matches_direct_recomputation(seed):
    rng = np.random.default_rng(seed)
    length = 2 if seed % 2 == 0 else 3
    inst = random_instance(10, 30, length, seed=seed)
    state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
    res = solve(state, factor, zc, eps=1e-3)
    root = dense_sdp_check(state)
    root_pos = {v: p for p, v in enumerate(root.index)}
    ledger = ShiftLedger(res.cert)
    path = []
    free = state.free_vars()
    rng.shuffle(free)
    for var in free[:6]:
        value = TRUE if rng.random() < 0.5 else FALSE
        price_child(state, ws, factor, zc, ledger, 0.0, [(var, value)])
        path.append((var, value))
        snap = assert_ledger_matches_dense(ledger, state)
        # assigned columns leave the child: their multipliers are masked
        assigned = [v for v in range(1, inst.num_vars + 1)
                    if state.assignment[v] != FREE]
        assert np.all(snap.lam[assigned] == 0.0)
        # the running delta telescopes to the dense truth-row difference
        child = dense_sdp_check(state)
        for p, v in enumerate(child.index[1:], start=1):
            dense_diff = child.cost[0, p] - root.cost[0, root_pos[v]]
            assert ledger.delta[v] == pytest.approx(dense_diff, abs=1e-12)
    # full unwind restores the root accounting
    for _ in path:
        ledger.revert()
        unassign_to(state, ws, state.mark() - 1)
    assert ledger.dual_bound() == pytest.approx(res.cert.dual_bound, abs=1e-9)
    assert not ledger.delta.any() and not ledger.eta.any()
