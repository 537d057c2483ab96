import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpsat.rounding
from sdpsat.generate import random_instance
from sdpsat.instance import (ACTIVE, FALSE, FREE, TRUE, NodeState,
                             WatchedStack, assign, evaluate, parse_dimacs)
from sdpsat.oracle import brute_force
from sdpsat.rounding import best_rounding, node_unsat, round_once, rounding_budget
from sdpsat.sdp import ZCache, default_rank, init_factor, solve
from tests.test_sdp import fresh_solver_state, integral_factor
from tests.test_search import small_formulas

TRIANGLE = "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0"


def test_round_once_recovers_integral_factor():
    inst = random_instance(10, 30, 2, seed=2)
    encoded = (1,) + tuple(1 if i % 2 else -1 for i in range(10))
    factor = integral_factor(inst, encoded)
    state = NodeState(inst)
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = round_once(factor, state, rng)
        assert tuple(values) == encoded


def test_round_once_sign_flip_invariance():
    inst = random_instance(8, 20, 2, seed=5)
    state = NodeState(inst)
    factor = init_factor(8, 4, seed=1)
    flipped = factor.copy()
    flipped.cols *= -1.0
    r = np.random.default_rng(3).standard_normal(4)

    def round_with(f):
        dots = f.cols @ r
        return [1 if dots[0] * d >= 0 else -1 for d in dots]

    assert round_with(factor) == round_with(flipped)


def test_round_once_keeps_assigned_values():
    inst = random_instance(6, 12, 2, seed=8)
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 2, TRUE)
    assign(state, ws, 5, FALSE)
    factor = init_factor(6, 4, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        values = round_once(factor, state, rng)
        assert values[2] == TRUE and values[5] == FALSE


def test_rounding_budget_rule():
    assert rounding_budget(0) == 0
    assert rounding_budget(100, c=4.0) == 40
    assert rounding_budget(10_000, c=4.0) // rounding_budget(100, c=4.0) == 10
    assert rounding_budget(1, c=0.1) == 1
    # finite for every c a SolverConfig accepts
    assert rounding_budget(100, c=sys.float_info.max) >= 10 ** 308


def test_blockwise_rounding_matches_one_block(monkeypatch):
    """Trials in blocks of five draw the normals of one block of all 37
    trials; past the deadline only the first block runs."""
    inst = random_instance(12, 48, 2, seed=3)
    state = NodeState(inst)
    factor = init_factor(12, 5, seed=3)
    whole = best_rounding(factor, state, 37, np.random.default_rng(4))
    assert whole[2] == 37
    monkeypatch.setattr(sdpsat.rounding, "TRIAL_CELLS",
                        5 * len(state.lit_var))
    assert best_rounding(factor, state, 37, np.random.default_rng(4)) == whole
    late = best_rounding(factor, state, 37, np.random.default_rng(4),
                         deadline=time.monotonic() - 1.0)
    assert late[2] == 5


def test_best_rounding_budget_one_equals_single_trial():
    inst = random_instance(9, 27, 2, seed=4)
    state = NodeState(inst)
    factor = init_factor(9, 5, seed=6)
    values_a = round_once(factor, state, np.random.default_rng(9))
    values_b, unsat_b, trials = best_rounding(factor, state, 1,
                                              np.random.default_rng(9))
    assert values_a == values_b and trials == 1
    assert unsat_b == node_unsat(state, values_b)


def test_rounding_blocks_bound_the_factor_rows(monkeypatch):
    """With more factor rows than literal entries (unused variables), each
    block's value matrix still holds at most TRIAL_CELLS cells."""
    inst = parse_dimacs("p cnf 300 1\n1 2 0\n")
    state = NodeState(inst)
    factor = init_factor(300, 5, seed=0)
    monkeypatch.setattr(sdpsat.rounding, "TRIAL_CELLS", 1000)
    real, shapes = sdpsat.rounding.trial_values, []

    def recording(factor, state, r):
        values = real(factor, state, r)
        shapes.append(values.shape)
        return values

    monkeypatch.setattr(sdpsat.rounding, "trial_values", recording)
    _, _, ran = best_rounding(factor, state, 100, np.random.default_rng(0))
    assert ran == sum(trials for _, trials in shapes) == 100
    assert all(rows * trials <= 1000 for rows, trials in shapes)


def test_node_unsat_matches_full_evaluate():
    inst = random_instance(10, 40, 2, seed=12)
    state, ws = NodeState(inst), WatchedStack()
    rng = np.random.default_rng(7)
    for v in (1, 4, 7):
        assign(state, ws, v, TRUE if rng.random() < 0.5 else FALSE)
    factor = init_factor(10, 5, seed=13)
    for _ in range(25):
        values = round_once(factor, state, rng)
        assert node_unsat(state, values) == evaluate(inst, values)


def test_best_rounding_at_root_optimum_triangle():
    inst = parse_dimacs(TRIANGLE)
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    res = solve(state, factor, zc, eps=1e-6, max_sweeps=2000)
    values, unsat, _ = best_rounding(factor, state, 100,
                                     np.random.default_rng(0))
    best, _ = brute_force(inst)
    assert unsat == best == 1
    assert unsat >= math.ceil(res.dual_bound - 1e-6)


def test_best_rounding_never_below_dual_bound():
    for seed in range(10):
        inst = random_instance(12, 40, 2, seed=seed)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        res = solve(state, factor, zc, eps=1e-3)
        _, unsat, _ = best_rounding(factor, state, 10,
                                    np.random.default_rng(seed))
        assert unsat >= math.ceil(res.dual_bound - 1e-6)


def looped_rounding(factor, state, budget, rng):
    """best_rounding as one trial per loop pass: a draw of r, the signs
    and an unsat count by a walk over the node's active clauses."""
    assignment = np.array(state.assignment)
    best_values = best_unsat = None
    for _ in range(budget):
        r = rng.standard_normal(factor.k)
        dots = factor.cols @ r
        side = np.where(dots[0] * dots >= 0.0, 1, -1)
        values = np.where(assignment == FREE, side, assignment).tolist()
        unsat = state.base_unsat
        for j, clause in enumerate(state.instance.clauses):
            if state.clause_status[j] == ACTIVE and not any(
                    (values[abs(lit)] > 0) == (lit > 0) for lit in clause.lits
                    if assignment[abs(lit)] == FREE):
                unsat += 1
        if best_unsat is None or unsat < best_unsat:
            best_values, best_unsat = values, unsat
    return best_values, best_unsat


@settings(max_examples=200, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_batched_rounding_matches_trial_loop(inst, data):
    """All trials in one array step (in blocks of any size) give the values
    and unsat count of the trial-by-trial loop, first best on ties."""
    n = inst.num_vars
    state, ws, factor, zc = fresh_solver_state(
        inst, seed=data.draw(st.integers(0, 99)))
    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(0, n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    zc.rebuild(state, factor)
    if data.draw(st.booleans()):
        solve(state, factor, zc, max_sweeps=data.draw(st.integers(1, 20)))
    budget = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**32 - 1))
    expected = looped_rounding(factor, state, budget,
                               np.random.default_rng(seed))
    cells = data.draw(st.sampled_from((1, 50, sdpsat.rounding.TRIAL_CELLS)))
    saved, sdpsat.rounding.TRIAL_CELLS = sdpsat.rounding.TRIAL_CELLS, cells
    try:
        got = best_rounding(factor, state, budget, np.random.default_rng(seed))
    finally:
        sdpsat.rounding.TRIAL_CELLS = saved
    assert got == (*expected, budget)
    assert evaluate(inst, got[0]) == got[1]
