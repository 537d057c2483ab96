"""Warm-started child bounds, checked on the path the search runs.

A child is priced the way Searcher.expand_root prices it: instance.assign,
then ShiftLedger.apply for the dual side and LossTracker.move for the primal
side.  ZCache.assign_update prices the primal side independently, on z rows.
Every figure is compared with the independent dense reference
oracle.dense_sdp_check or a from-scratch recomputation.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsat import bounds, sdp, search
from sdpsat.bounds import Decision, LossTracker, ShiftLedger, decide
from sdpsat.config import SolverConfig
from sdpsat.generate import random_instance
from sdpsat.instance import (ACTIVE, FALSE, FREE, TRUE, NodeState,
                             WatchedStack, assign, instance_from_clauses,
                             parse_dimacs, unassign_to)
from sdpsat.oracle import dense_sdp_check, min_unsat_completion
from sdpsat.sdp import (ZCache, dual_from_primal, init_factor, node_cost,
                        objective, solve)
from sdpsat.search import Searcher
from tests.test_sdp import fresh_solver_state, integral_factor, priced_length
from tests.test_search import ceil_bound


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
    expected = -snap.lam.sum() + dense.offset
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


def test_decide_primal_tie_within_tol_expands():
    """A primal that ties the incumbent up to rounding expands, whichever
    side of it the rounding fell on; one 2 tol above it is solved."""
    for tol in (1e-6, 1e-9):
        with mock.patch.object(bounds, "PRUNE_TOL", tol):
            assert decide(2.0000000000000004, 0.5, 2) == Decision.EXPAND
            assert decide(2.0 + tol / 2, 0.5, 2) == Decision.EXPAND
            assert decide(2.0 + 2 * tol, 0.5, 2) == Decision.SOLVE


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
    state, ws = NodeState(inst), WatchedStack()
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
    assert not any(ledger.delta) and not any(ledger.eta)


def test_delta_vector_worked_example():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    ledger = ShiftLedger(dual_from_primal(state, factor, zc))
    price_child(state, ws, factor, zc, ledger, 0.0, [(1, FALSE)])
    assert np.flatnonzero(ledger.delta).tolist() == [2]
    assert ledger.delta[2] == pytest.approx(-1.0 / 8.0)
    assert not any(ledger.eta)
    ledger.revert()
    unassign_to(state, ws, 0)
    assert not any(ledger.delta) and state.trail == []  # rolled back


def test_rescale_worked_example():
    """A 3-clause losing a literal is priced at two literals: its truth-row
    entries move by -s (1/8 - 1/12), its pair changes by s_a s_b / 24 with
    eta 1/24 on both columns, and the child cost equals the fresh one."""
    inst = parse_dimacs("p cnf 3 1\n1 -2 3 0")
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    res = solve(state, factor, zc, eps=1e-6)
    ledger = ShiftLedger(res.cert)
    ledger.apply(state, 1, FALSE, assign(state, ws, 1, FALSE))
    dw = 1.0 / 8.0 - 1.0 / 12.0
    assert ledger.delta[2:] == pytest.approx([dw, -dw], abs=1e-15)
    assert ledger.eta[2:] == pytest.approx([dw, dw], abs=1e-15)
    assert ledger.pairs == [(2, 3, pytest.approx(-dw, abs=1e-15))]
    derived = ledger.child_cost(res.cost, state)
    fresh = node_cost(state)
    assert np.allclose(derived.matrix, fresh.matrix, rtol=0.0, atol=1e-15)
    # the clause now reads -v0 - v2 + v3 at weight 1/8
    assert fresh.matrix[0, 1:].tolist() == pytest.approx([1 / 8, -1 / 8])
    assert derived.offset == pytest.approx(fresh.offset, abs=1e-15)
    assert_ledger_matches_dense(ledger, state, tol=0.0)
    assert ledger.dual_bound() <= 0.0


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
    assert not any(ledger.delta) and not any(ledger.eta)
    assert_ledger_matches_dense(ledger, state)
    # no xi shift; the bound moves only by the offset of the satisfied
    # unit clause (its share 1/2 leaves, multiplier 1/4 of the dropped
    # column is recovered by masking): 0 - 1/2 + 1/4
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
        # a dense solve leaves the z-cache as it was; pricing reads it
        zc.rebuild(state, factor)
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
    assert not any(ledger.delta) and not any(ledger.eta)


def exact_cost(state, index):
    """The node's zero-diagonal cost matrix over `index` in exact rational
    arithmetic, walked clause by clause, each clause priced at its current
    length (priced_length)."""
    pos = {v: p for p, v in enumerate(index)}
    cost = [[Fraction(0)] * len(index) for _ in index]
    for j, clause in enumerate(state.instance.clauses):
        if state.clause_status[j] != ACTIVE:
            continue
        free = [(pos[abs(lit)], 1 if lit > 0 else -1) for lit in clause.lits
                if state.assignment[abs(lit)] == FREE]
        length = priced_length(state, clause)
        w = Fraction(1, 4 * length)
        entries = [(0, -1 - (length - len(free)))] + free
        for t, (pa, sa) in enumerate(entries):
            for pb, sb in entries[t + 1:]:
                cost[pa][pb] += sa * sb * w
                cost[pb][pa] += sa * sb * w
    return cost


def assert_within(matrix, exact, bound):
    bound = Fraction(bound)
    for row, exact_row in zip(matrix.tolist(), exact):
        for value, want in zip(row, exact_row):
            assert abs(Fraction(value) - want) <= bound


def wide_literal(state, data):
    """A free literal, drawn, of an active clause with three or more free
    literals; None when there is no such clause."""
    wide = [clause for j, clause in enumerate(state.instance.clauses)
            if state.clause_status[j] == ACTIVE
            and sum(state.assignment[abs(lit)] == FREE
                    for lit in clause.lits) >= 3]
    if not wide:
        return None
    return next(lit for lit in data.draw(st.sampled_from(wide)).lits
                if state.assignment[abs(lit)] == FREE)


@st.composite
def mixed_formulas(draw):
    """n = 4..10, at least the longest clause, with clauses of length 2, 3
    or both, 1 to 3, 3 and 4, or 5 to 7, m = n..4n."""
    lengths = draw(st.sampled_from(((2,), (3,), (2, 3), (1, 2, 3),
                                    (3, 4), (5, 6, 7))))
    n = draw(st.integers(max(4, *lengths), 10))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    clauses = []
    for _ in range(draw(st.integers(n, 4 * n))):
        picked = rng.choice(np.arange(1, n + 1), size=rng.choice(lengths),
                            replace=False)
        clauses.append([int(v) if rng.random() < 0.5 else -int(v)
                        for v in picked])
    return instance_from_clauses(n, clauses)


@settings(max_examples=150, deadline=None)
@given(inst=mixed_formulas(), data=st.data())
def test_child_cost_matches_fresh_build(inst, data):
    """Along a path of up to DEPTH_LIMIT assignments below a solved root,
    the child cost derived from the root's has the fresh build's columns,
    entries within entry_error of the exact costs (as the fresh build's
    are) and the same bound terms, and the shifted certificate is PSD for
    the child (dense oracle) with a bound at most the child's optimum.
    The path starts, where there are clauses with at least three free
    literals, by setting one of their literals false (an f >= 3 -> f - 1
    rescaling step) and then one true, so that clauses leave with two or
    more literals free.  Expansion then tests the root's children and
    leaves the root's matrix bit for bit as it was."""
    n = inst.num_vars
    engine = Searcher(inst, SolverConfig(seed=data.draw(st.integers(0, 99))))
    state, ws = engine.state, engine.ws
    factor, zc = engine.factor, engine.zcache
    order = data.draw(st.permutations(range(1, n + 1)))
    engine.move_to([(v, data.draw(st.sampled_from((TRUE, FALSE))))
                    for v in order[:data.draw(st.integers(0, 2))]])
    zc.rebuild(state, factor)
    res = solve(state, factor, zc, max_sweeps=data.draw(st.integers(1, 5)))
    root = res.cost
    root_bytes = root.matrix.tobytes()
    ledger = ShiftLedger(res.cert)

    path = []
    for step in range(min(search.DEPTH_LIMIT, state.free_count - 1)):
        lit = wide_literal(state, data) if step < 2 else None
        if lit is not None:
            # first a literal false (a rescaling step), then one true
            var = abs(lit)
            value = TRUE if (lit > 0) == (step == 1) else FALSE
        else:
            var = data.draw(st.sampled_from(state.free_vars()))
            value = data.draw(st.sampled_from((TRUE, FALSE)))
        path.append((var, value))
        ledger.apply(state, var, value, assign(state, ws, var, value))
        snap = ledger.cert_snapshot()
        assert dense_sdp_check(state, lam=snap.lam).min_eig >= 0.0
        assert snap.dual_bound <= min_unsat_completion(
            inst, state.assignment) + 1e-9
        derived = ledger.child_cost(root, state)
        fresh = node_cost(state)
        assert np.array_equal(derived.index, fresh.index)
        assert derived.entry_error == fresh.entry_error
        exact = exact_cost(state, fresh.index.tolist())
        assert_within(fresh.matrix, exact, fresh.entry_error)
        assert_within(derived.matrix, exact, derived.entry_error)
        assert np.array_equal(derived.matrix, derived.matrix.T)
        assert np.all(np.diag(derived.matrix) == 0.0)
        assert derived.offset == pytest.approx(fresh.offset, abs=1e-12)
    for _ in path:
        ledger.revert()
        unassign_to(state, ws, state.mark() - 1)

    # with no incumbent met, every frontier child is tested
    engine.best_unsat = 0
    engine.reorder(res.cert)
    engine.expand_root(res, 0)
    assert root.matrix.tobytes() == root_bytes


def ledger_state(ledger):
    return (list(ledger.lam), list(ledger.delta), list(ledger.eta),
            ledger.lam_sum, ledger.abs_delta_sum, ledger.eta_sum,
            ledger.offset, list(ledger.pairs))


@settings(max_examples=60, deadline=None)
@given(inst=mixed_formulas(), sparse=st.booleans(), data=st.data())
def test_step_pricing_matches_fresh_recomputation(inst, sparse, data):
    """Along a random DFS path below a root solved densely or sparsely,
    each step's running figures match from-scratch ones: the tracker's
    objective that of a freshly rebuilt z-cache, the
    ledger's O(1) bound its materialized certificate's, and the ledger's
    moves since the root (offset and the truth-row entry of every free
    column) the independent dense reference's change from the root.
    Where a clause has three or more free literals, the path starts by
    setting one of them false (an f >= 3 -> f - 1 rescaling step).
    Unwinding the path restores the ledger's lists and sums and the
    tracker's losses bit for bit."""
    n = inst.num_vars
    engine = Searcher(inst, SolverConfig(seed=data.draw(st.integers(0, 99))))
    state, ws = engine.state, engine.ws
    factor, zc = engine.factor, engine.zcache
    order = data.draw(st.permutations(range(1, n + 1)))
    engine.move_to([(v, data.draw(st.sampled_from((TRUE, FALSE))))
                    for v in order[:data.draw(st.integers(0, 2))]])
    cutoff = 1 if sparse else sdp.DENSE_MAX_COLUMNS
    with mock.patch.object(sdp, "DENSE_MAX_COLUMNS", cutoff):
        res = engine.solve_root()
    assert res.dense != sparse
    ledger = ShiftLedger(res.cert)
    losses = LossTracker(state, factor)
    root_ledger = ledger_state(ledger)
    root_losses = (list(losses.losses), losses.objective)
    root = dense_sdp_check(state)
    root_truth = dict(zip(root.index, root.cost[0]))

    lit = wide_literal(state, data)
    path = [] if lit is None else [(abs(lit), FALSE if lit > 0 else TRUE)]
    path += [(v, data.draw(st.sampled_from((TRUE, FALSE))))
             for v in data.draw(st.permutations(state.free_vars()))
             if not path or v != path[0][0]]
    path = path[:data.draw(st.integers(1, len(path)))]
    for var, value in path:
        before = losses.objective
        moved = assign(state, ws, var, value)
        ledger.apply(state, var, value, moved)
        d_obj = losses.move(state, moved)
        assert losses.objective == before + d_obj
        zc.rebuild(state, factor)
        assert losses.objective == pytest.approx(
            objective(state, factor, zc), abs=1e-9)
        assert ledger.dual_bound() == pytest.approx(
            ledger.cert_snapshot().dual_bound, abs=1e-9)
        child = dense_sdp_check(state)
        assert ledger.offset - res.cert.offset == pytest.approx(
            child.offset - root.offset, abs=1e-9)
        for v, entry in zip(child.index[1:], child.cost[0, 1:]):
            assert ledger.delta[v] == pytest.approx(entry - root_truth[v],
                                                    abs=1e-9)
    for _ in path:
        losses.revert()
        ledger.revert()
        unassign_to(state, ws, state.mark() - 1)
    assert ledger_state(ledger) == root_ledger
    assert (list(losses.losses), losses.objective) == root_losses
