import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsat.bounds import ShiftLedger, prune_floor
from sdpsat.config import SolverConfig
from sdpsat.generate import random_instance
from sdpsat.instance import (ACTIVE, FALSE, FREE, TRUE, NodeState,
                             WatchedStack, assign, evaluate,
                             instance_from_clauses, parse_dimacs,
                             unassign_to)
from sdpsat.oracle import brute_force, dense_sdp_check, min_unsat_completion
from sdpsat import sdp
from sdpsat.rounding import node_unsat, round_once
from sdpsat.sdp import (ZERO_UPDATE_NORM, Factor, LossTracker, ZCache,
                        active_losses, certificate, clause_loss,
                        default_rank, dense_objective, dense_sweep,
                        dual_from_primal, init_factor, mixing_sweep,
                        node_cost, objective, pruning_certificate, solve,
                        sparse_sweep, sweep_plan)
from sdpsat.search import Searcher, solve_complete
from tests.test_search import ceil_bound, small_formulas

TRIANGLE = "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0"


def fresh_solver_state(instance, seed=0, k=None):
    state = NodeState(instance)
    ws = WatchedStack()
    k = k or default_rank(max(instance.num_vars, 1))
    factor = init_factor(instance.num_vars, k, seed)
    zcache = ZCache(instance, k)
    zcache.rebuild(state, factor)
    return state, ws, factor, zcache


def integral_factor(instance, values, k=3):
    """Rank-1 factor encoding a +/-1 assignment (v_i = values[i] * v_0)."""
    cols = np.zeros((instance.num_vars + 1, k))
    cols[0, 0] = 1.0
    for v in range(1, instance.num_vars + 1):
        cols[v, 0] = float(values[v])
    return Factor(cols)


def priced_length(state, clause):
    """The length a clause is priced at, walked from the assignment: with
    f of its L literals free, min(L, max(f, 2))."""
    free = sum(state.assignment[abs(lit)] == FREE for lit in clause.lits)
    return min(clause.length, max(free, 2))


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list of its calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_default_rank_values():
    assert default_rank(120) == 17
    assert default_rank(1) == 3
    assert default_rank(7) == 5
    for n in range(1, 300):
        k = default_rank(n)
        assert (k - 1) ** 2 >= 2 * (n + 1)
        assert (k - 2) ** 2 < 2 * (n + 1)


def test_init_factor_deterministic():
    a = init_factor(3, 4, seed=42)
    b = init_factor(3, 4, seed=42)
    assert np.array_equal(a.cols, b.cols)


def test_init_factor_unit_norms_and_truth_column():
    f = init_factor(50, 7, seed=1)
    assert np.allclose(f.column_norms(), 1.0, atol=1e-9)
    assert np.array_equal(f.cols[0], np.eye(7)[0])


def test_init_factor_isotropy():
    f = init_factor(1999, 6, seed=7)
    rng = np.random.default_rng(0)
    dots = []
    for _ in range(1000):
        i, j = rng.choice(2000, size=2, replace=False)
        dots.append(float(f.cols[i] @ f.cols[j]))
    assert abs(np.mean(dots)) < 0.1


def test_init_factor_rank_floor():
    with pytest.raises(ValueError):
        init_factor(3, 1, seed=0)


def test_clause_loss_values():
    v0 = np.array([1.0, 0.0])
    assert clause_loss(-3.0 * v0, 2) == pytest.approx(1.0, abs=1e-12)
    assert clause_loss(-1.0 * v0, 2) == pytest.approx(0.0, abs=1e-12)
    assert clause_loss(0.0 * v0, 3) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_loss_case_table_exhaustive():
    # every clause length 1..4, every sign pattern, every integral assignment
    for n_j in range(1, 5):
        for signs in itertools.product((1, -1), repeat=n_j):
            lits = [s * (i + 1) for i, s in enumerate(signs)]
            inst = instance_from_clauses(n_j, [lits])
            for values in itertools.product((1, -1), repeat=n_j):
                full = (1,) + values
                factor = integral_factor(inst, full)
                zc = ZCache(inst, 3)
                state = NodeState(inst)
                zc.rebuild(state, factor)
                loss = clause_loss(zc.z[0], n_j)
                n_true = sum(1 for lit in lits if (lit > 0) == (full[abs(lit)] > 0))
                if n_true == 0:
                    assert loss == pytest.approx(1.0, abs=1e-12)
                elif n_true in (1, n_j):
                    assert loss == pytest.approx(0.0, abs=1e-12)
                else:
                    assert loss < -1e-12


def test_loss_case_table_at_partial_nodes():
    """Every clause of 1-4 literals, every partial assignment that leaves it
    active (the assigned literals false) and every completion of it: priced
    at its current length the loss is 1 when all free literals are false,
    0 when exactly one is true or when f <= 2 and the clause is satisfied,
    and at most 0 otherwise.  Read from a LossTracker seeded at the node,
    one moved there from the root, the z-cache rebuilt at the node, one
    moved there by assign_update and the dense oracle."""
    checked = 0
    for length in range(1, 5):
        for signs in itertools.product((1, -1), repeat=length):
            lits = [s * (i + 1) for i, s in enumerate(signs)]
            inst = instance_from_clauses(length, [lits])
            for false in itertools.product((False, True), repeat=length):
                free = [lit for lit, gone in zip(lits, false) if not gone]
                if not free:
                    continue
                for values in itertools.product((1, -1), repeat=len(free)):
                    full = [1] + [-s for s in signs]
                    for lit, value in zip(free, values):
                        full[abs(lit)] = value
                    factor = integral_factor(inst, full)
                    state, ws = NodeState(inst), WatchedStack()
                    moved_tracker = LossTracker(state, factor)
                    moved_zc = ZCache(inst, factor.k)
                    moved_zc.rebuild(state, factor)
                    for lit, gone in zip(lits, false):
                        if gone:
                            var = abs(lit)
                            moved = assign(state, ws, var, full[var])
                            moved_tracker.move(state, moved)
                            moved_zc.assign_update(state, factor, var, moved)
                    zc = ZCache(inst, factor.k)
                    zc.rebuild(state, factor)
                    losses = [LossTracker(state, factor).losses[0],
                              moved_tracker.losses[0],
                              active_losses(state, zc)[0],
                              active_losses(state, moved_zc)[0],
                              dense_sdp_check(state, factor).objective]
                    n_true = sum((lit > 0) == (full[abs(lit)] > 0)
                                 for lit in free)
                    if n_true == 0:
                        want = 1.0
                    elif n_true == 1 or len(free) <= 2:
                        want = 0.0
                    else:
                        assert max(losses) <= 1e-12, (lits, false, values)
                        checked += 1
                        continue
                    assert losses == pytest.approx([want] * 5, abs=1e-12), (
                        lits, false, values)
                    checked += 1
    # per sign pattern: sum over f >= 1 of C(L, f) 2^f = 3^L - 1 cases
    assert checked == sum(2 ** length * (3 ** length - 1)
                          for length in range(1, 5))


def test_price_table_matches_rule():
    """Every entry price[L][f], 1 <= f <= L <= 5, against the rule walked
    from the assignment (priced_length) in exact arithmetic: L', t and the
    integer part exactly, w within one rounding of 1/(4L') and each
    product within one rounding of its exact value at the table's w.
    price[L][0], the price of a clause that left, is all zeros."""
    clauses = [[first + i for i in range(length)]
               for length, first in zip(range(1, 6), (1, 2, 4, 7, 11))]
    inst = instance_from_clauses(15, clauses)
    state, ws = NodeState(inst), WatchedStack()
    u = Fraction(2) ** -53
    for clause in inst.clauses:
        length = clause.length
        assert not any(state.price[length][0])
        for free in range(1, length + 1):
            mark = state.mark()
            for var in clause.lits[free:]:
                assign(state, ws, var, FALSE)
            current = priced_length(state, clause)
            unassign_to(state, ws, mark)
            t = -1 - (current - free)
            cur, t_table, w, tw, diag, const, base = state.price[length][free]
            assert (cur, t_table) == (current, t)
            assert base == t * t + free - (current - 1) ** 2
            exact_w = Fraction(1, 4 * current)
            assert abs(Fraction(w) - exact_w) <= u * exact_w
            w = Fraction(w)
            for value, factor in ((tw, t), (diag, t * t + free),
                                  (const, (current - 1) ** 2)):
                assert abs(Fraction(value) - factor * w) <= u * abs(factor * w)


@settings(max_examples=100, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_node_objective_at_completions(inst, data):
    """At a random partial node with at most four free variables, the node
    objective at each integral completion (tracker and z-form) is at most
    that completion's unsat count, and equal to it when no active clause
    has three or more free literals."""
    n = inst.num_vars
    state, ws = NodeState(inst), WatchedStack()
    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(max(n - 4, 0), n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    exact = all(state.clause_status[j] != ACTIVE
                or sum(state.assignment[abs(lit)] == FREE
                       for lit in clause.lits) <= 2
                for j, clause in enumerate(inst.clauses))
    free = state.free_vars()
    zc = ZCache(inst, 3)
    for values in itertools.product((1, -1), repeat=len(free)):
        full = list(state.assignment)
        for var, value in zip(free, values):
            full[var] = value
        factor = integral_factor(inst, full)
        zc.rebuild(state, factor)
        unsat = evaluate(inst, full)
        for value in (LossTracker(state, factor).objective,
                      objective(state, factor, zc)):
            assert value <= unsat + 1e-9
            if exact:
                assert value == pytest.approx(unsat, abs=1e-9)


def test_objective_no_active_clauses():
    inst = parse_dimacs("p cnf 1 3\n0\n0\n0")
    state, ws, factor, zc = fresh_solver_state(inst)
    assert state.base_unsat == 3
    assert objective(state, factor, zc) == pytest.approx(3.0)


def test_objective_single_clause_all_false():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    factor = integral_factor(inst, (1, -1, -1))
    state = NodeState(inst)
    zc = ZCache(inst, 3)
    zc.rebuild(state, factor)
    assert objective(state, factor, zc) == pytest.approx(1.0, abs=1e-12)


def test_objective_matches_dense_recomputation():
    inst = random_instance(5, 10, 2, seed=3)
    state, ws, factor, zc = fresh_solver_state(inst, seed=4)
    dense = dense_sdp_check(state, factor=factor)
    assert objective(state, factor, zc) == pytest.approx(dense.objective,
                                                         abs=1e-9)


def test_mixing_sweep_unit_clause_closed_form():
    inst = parse_dimacs("p cnf 1 1\n1 0")
    state, ws, factor, zc = fresh_solver_state(inst, seed=5, k=3)
    mixing_sweep(state, factor, zc)
    assert np.allclose(factor.cols[1], factor.cols[0], atol=1e-12)
    assert objective(state, factor, zc) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shuffle=st.booleans())
def test_mixing_sweep_monotone_descent(seed, shuffle):
    inst = random_instance(12, 40, 2, seed=seed)
    state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
    order = (np.random.default_rng(seed).permutation(np.arange(1, 13))
             if shuffle else None)
    f_prev = objective(state, factor, zc)
    for _ in range(10):
        f_new = mixing_sweep(state, factor, zc, order)
        assert f_new <= f_prev + 1e-12
        f_prev = f_new
    assert np.allclose(factor.column_norms(), 1.0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_zcache_consistent_after_sweeps(seed):
    inst = random_instance(10, 30, 3, seed=seed)
    state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
    for _ in range(5):
        mixing_sweep(state, factor, zc)
    fresh = ZCache(inst, factor.k)
    fresh.rebuild(state, factor)
    for j in np.flatnonzero(state.view().active):
        assert np.allclose(zc.z[j], fresh.z[j], atol=1e-9)


def sequential_sweep(state, factor, zcache, order):
    """The column-at-a-time sweep: each free column in `order` in turn."""
    V, z = factor.cols, zcache.z
    lengths = [priced_length(state, clause)
               for clause in state.instance.clauses]
    for i in order:
        if state.assignment[i] != FREE:
            continue
        vi = V[i]
        g = np.zeros(factor.k)
        incident = []
        for j, sign in state.instance.occurrences[i]:
            if state.clause_status[j] != ACTIVE:
                continue
            zj = z[j]
            if sign > 0:
                zj -= vi
            else:
                zj += vi
            g += (sign / (4.0 * lengths[j])) * zj
            incident.append((j, sign))
        if not incident:
            continue
        norm = float(np.linalg.norm(g))
        if norm >= ZERO_UPDATE_NORM:
            V[i] = g / -norm
            vi = V[i]
        for j, sign in incident:
            if sign > 0:
                z[j] += vi
            else:
                z[j] -= vi
    return objective(state, factor, zcache)


def class_sorted(state, order):
    """`order` stably sorted by the rank of each variable's class, classes
    ranked by their first variable in `order`: the order a colored sweep
    updates the columns in."""
    first = {}
    for pos, var in enumerate(order):
        first.setdefault(state.color[var], pos)
    return sorted(order, key=lambda var: first[state.color[var]])


def with_isolated_variable(inst):
    """The formula with one more variable, in no clause."""
    return instance_from_clauses(
        inst.num_vars + 1,
        [c.lits for c in inst.clauses] + [[]] * inst.empty_count)


@settings(max_examples=300, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_colored_sweep_matches_sequential_sweep(inst, data):
    """A colored sweep is the column-at-a-time sweep over `order` stably
    sorted by class rank, at random partial nodes with an isolated variable
    (fully assigned and clause-free nodes included)."""
    inst = with_isolated_variable(inst)
    n = inst.num_vars
    state, ws, factor, zc = fresh_solver_state(
        inst, seed=data.draw(st.integers(0, 99)))
    for clause in inst.clauses:
        colors = [state.color[abs(lit)] for lit in clause.lits]
        assert len(set(colors)) == len(colors), clause.lits
    for c, entries in enumerate(state.class_entries):
        var = state.lit_var[entries]
        members, slots = np.unique(var, return_inverse=True)
        assert np.array_equal(members[slots], var)
        assert np.all(state.color[members] == c)
        assert np.all(np.diff(slots) >= 0)
    listed = np.sort(np.concatenate(state.class_entries))
    assert np.array_equal(listed, np.flatnonzero(state.lit_var > 0))

    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(0, n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    zc.rebuild(state, factor)
    order = data.draw(st.permutations(range(1, n + 1)))
    by_class = class_sorted(state, order)
    ref_factor, ref_zc = factor.copy(), ZCache(inst, factor.k)
    ref_zc.rebuild(state, ref_factor)
    for _ in range(3):
        colored = mixing_sweep(state, factor, zc, order)
        sequential = sequential_sweep(state, ref_factor, ref_zc, by_class)
        assert colored == pytest.approx(sequential, rel=0.0, abs=1e-12)
    assert np.allclose(factor.cols, ref_factor.cols, rtol=0.0, atol=1e-12)
    active = state.view().active
    assert np.allclose(zc.z[active], ref_zc.z[active], rtol=0.0, atol=1e-12)


def random_node(inst, data):
    """A fresh solver state at a random partial node of `inst` (fully
    assigned ones included) and a random sweep order.  The z-cache is left
    as rebuilt at the root, stale below it."""
    n = inst.num_vars
    state, ws, factor, zc = fresh_solver_state(
        inst, seed=data.draw(st.integers(0, 99)))
    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(0, n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    order = data.draw(st.permutations(range(1, n + 1)))
    return state, factor, zc, order


@settings(max_examples=200, deadline=None)
@given(inst=small_formulas(), data=st.data())
@mock.patch.object(sdp, "DENSE_MAX_COLUMNS", 0)
def test_solve_sweeps_match_fresh_sweeps(inst, data):
    """A sparse solve builds one sweep plan for all of its sweeps; they
    must equal, bit for bit, as many sweeps that each build a fresh plan
    from a fresh cost matrix, with the trace starting at dense_objective
    and falling by each sweep's decrease, at random partial nodes (fully
    assigned and clause-free ones included)."""
    state, factor, zc, order = random_node(inst, data)
    ref_factor = factor.copy()
    res = solve(state, factor, zc, eps=1e-300,
                max_sweeps=data.draw(st.integers(1, 6)), order=order)
    cost = node_cost(state, order)
    trace = [dense_objective(cost, ref_factor.cols[cost.index])]
    for _ in range(res.sweeps_used):
        plan = sweep_plan(node_cost(state, order))
        trace.append(trace[-1] - sparse_sweep(plan, ref_factor))
    assert not res.dense
    assert res.trace == trace
    assert np.array_equal(factor.cols, ref_factor.cols)


@st.composite
def cancelling_formulas(draw):
    """(x | y), (-x | y), (x | -y), (-x | -y) on x = 1 and y = 2, plus a
    small formula on the variables above them.  While x or y is free its
    row of C cancels to exactly zero (its truth and pair entries are
    +-w in equal numbers), so its update is zero."""
    rest = draw(small_formulas())
    clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
    clauses += [[lit + 2 if lit > 0 else lit - 2 for lit in clause.lits]
                for clause in rest.clauses]
    return instance_from_clauses(rest.num_vars + 2,
                                 clauses + [[]] * rest.empty_count)


@settings(max_examples=300, deadline=None)
@given(inst=st.one_of(small_formulas(), cancelling_formulas()),
       data=st.data())
def test_sparse_solve_matches_z_form(inst, data):
    """A sparse solve's sweeps are mixing_sweep's, the z-form reference:
    trace and factor within 1e-12, and after every sweep the trace is
    objective() on a freshly rebuilt z-cache within 1e-12.  Random partial
    nodes with an isolated variable cover unit-clause rows, rows whose only
    live entries are truth entries, rows that cancel to exactly zero,
    clauses of up to 4 literals, and fully assigned and clause-free nodes.
    The solve neither reads nor writes the z-cache."""
    inst = with_isolated_variable(inst)
    state, factor, zc, order = random_node(inst, data)
    ref_factor, ref_zc = factor.copy(), ZCache(inst, factor.k)
    ref_zc.rebuild(state, ref_factor)
    stale = zc.z.copy()
    rebuilt = []

    def sweep_and_rescore(plan, factor):
        drop = sweep(plan, factor)
        fresh = ZCache(inst, factor.k)
        fresh.rebuild(state, factor)
        rebuilt.append(objective(state, factor, fresh))
        return drop

    sweep = sdp.sparse_sweep
    with mock.patch.object(sdp, "DENSE_MAX_COLUMNS", 0), \
            mock.patch.object(sdp, "sparse_sweep", sweep_and_rescore):
        res = solve(state, factor, zc, eps=1e-300,
                    max_sweeps=data.draw(st.integers(1, 6)), order=order)
    assert not res.dense
    reference = [objective(state, ref_factor, ref_zc)]
    reference += [mixing_sweep(state, ref_factor, ref_zc, order)
                  for _ in range(res.sweeps_used)]
    assert res.trace == pytest.approx(reference, rel=0.0, abs=1e-12)
    assert res.trace[1:] == pytest.approx(rebuilt, rel=0.0, abs=1e-12)
    assert np.allclose(factor.cols, ref_factor.cols, rtol=0.0, atol=1e-12)
    assert np.array_equal(zc.z, stale)


@settings(max_examples=300, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_dense_solve_matches_sequential_sweeps(inst, data):
    """A dense solve's sweeps are the column-at-a-time sweep in class order:
    trace and factor within 1e-12, at random partial nodes with an isolated
    variable (fully assigned and clause-free nodes included).  It neither
    reads nor writes the z-cache."""
    inst = with_isolated_variable(inst)
    n = inst.num_vars
    state, ws, factor, zc = fresh_solver_state(
        inst, seed=data.draw(st.integers(0, 99)))
    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(0, n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    order = data.draw(st.permutations(range(1, n + 1)))
    ref_factor, ref_zc = factor.copy(), ZCache(inst, factor.k)
    ref_zc.rebuild(state, ref_factor)
    # stale rows: the z-cache of the node before the assignments
    stale = zc.z.copy()
    res = solve(state, factor, zc, eps=1e-300,
                max_sweeps=data.draw(st.integers(1, 6)), order=order)
    assert res.dense
    by_class = class_sorted(state, order)
    reference = [objective(state, ref_factor, ref_zc)]
    reference += [sequential_sweep(state, ref_factor, ref_zc, by_class)
                  for _ in range(res.sweeps_used)]
    assert res.trace == pytest.approx(reference, rel=0.0, abs=1e-12)
    assert np.allclose(factor.cols, ref_factor.cols, rtol=0.0, atol=1e-12)
    assert np.array_equal(zc.z, stale)


def masked_dense_sweep(cost, factor):
    """dense_sweep with every class step the masked matrix step: g =
    C[class] W, its row norms, and a divide masked by ZERO_UPDATE_NORM."""
    W = factor.cols.take(cost.index, axis=0)
    for lo, hi in cost.slices:
        g = cost.matrix[lo:hi] @ W
        norm = np.sqrt(np.vecdot(g, g))[:, None]
        np.divide(g, -norm, out=W[lo:hi], where=norm >= ZERO_UPDATE_NORM)
    factor.cols[cost.index] = W
    return dense_objective(cost, W)


def dense_max3sat_node(seed):
    """A random MAX3SAT n=14, m=98 node, 0-3 assignments below the root,
    with its factor and its cost in a seeded sweep order."""
    rng = np.random.default_rng(seed)
    state, ws, factor, _ = fresh_solver_state(
        random_instance(14, 98, 3, seed=seed), seed=seed)
    for var in rng.permutation(np.arange(1, 15))[:seed % 4].tolist():
        assign(state, ws, var, TRUE if rng.random() < 0.5 else FALSE)
    return state, factor, node_cost(state, rng.permutation(
        np.arange(1, 15)).tolist())


def test_dense_sweep_matches_masked_class_steps():
    """dense_sweep's vector step for a one-column class gives the masked
    matrix step's bits: objective and factor after each of four sweeps, at
    ten dense nodes, most of them with classes of both kinds."""
    mixed = 0
    for seed in range(10):
        _, factor, cost = dense_max3sat_node(seed)
        sizes = {hi - lo for lo, hi in cost.slices}
        mixed += 1 in sizes and max(sizes) > 1
        reference = factor.copy()
        for _ in range(4):
            assert dense_sweep(cost, factor) == masked_dense_sweep(
                cost, reference)
            assert np.array_equal(factor.cols, reference.cols)
    assert mixed >= 5


def test_dense_sweep_keeps_columns_without_live_entries():
    """A column whose row of C is zero, as one with no live entry has,
    keeps its exact value in a one-column class and in a larger one, and
    the sweep still matches the masked reference bit for bit."""
    _, factor, cost = dense_max3sat_node(1)
    single = next(lo for lo, hi in cost.slices if hi - lo == 1)
    shared = next(lo for lo, hi in cost.slices if hi - lo > 1)
    matrix = cost.matrix.copy()
    matrix[[single, shared]] = 0.0
    matrix[:, [single, shared]] = 0.0
    cost = replace(cost, matrix=matrix)
    columns = cost.index[[single, shared]]
    kept = factor.cols[columns].copy()
    reference = factor.copy()
    for _ in range(2):
        assert dense_sweep(cost, factor) == masked_dense_sweep(cost,
                                                               reference)
    assert np.array_equal(factor.cols[columns], kept)
    assert np.array_equal(factor.cols, reference.cols)


def test_solve_sweeps_dense_up_to_the_cutoff(monkeypatch):
    """A node of DENSE_MAX_COLUMNS columns sweeps on its dense cost matrix;
    one of a column more sweeps on its rows (sparse_sweep)."""
    inst = random_instance(sdp.DENSE_MAX_COLUMNS, 2 * sdp.DENSE_MAX_COLUMNS,
                           2, seed=8)
    state, ws, factor, zc = fresh_solver_state(inst, seed=8)
    sparse_sweeps = counting(monkeypatch, sdp, "sparse_sweep")
    dense_sweeps = counting(monkeypatch, sdp, "dense_sweep")
    res = solve(state, factor, zc, max_sweeps=2)
    assert not res.dense and state.free_count == sdp.DENSE_MAX_COLUMNS
    assert len(sparse_sweeps) == 2 and dense_sweeps == []
    assign(state, ws, 1, TRUE)
    res = solve(state, factor, zc, max_sweeps=2)
    assert res.dense and state.free_count + 1 == sdp.DENSE_MAX_COLUMNS
    assert len(sparse_sweeps) == 2 and len(dense_sweeps) == 2


@settings(max_examples=300, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_prune_stopped_solve_is_sound(inst, data):
    """A solve given the search's prune floor under an incumbent (random,
    or next to the ceiling of the solve without a floor) stops only on a
    certificate that passes the prune test and is PSD by the dense probe,
    without tolerance; before it stops, and without a stop, it sweeps bit
    for bit as the solve without a floor does."""
    n = inst.num_vars
    state, ws, factor, zc = fresh_solver_state(
        inst, seed=data.draw(st.integers(0, 99)))
    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(0, n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    zc.rebuild(state, factor)
    order = data.draw(st.permutations(range(1, n + 1)))
    max_sweeps = data.draw(st.integers(1, 30))
    cols, rows = factor.cols.copy(), zc.z.copy()

    def run(sweeps, floor=None):
        factor.cols[:] = cols
        zc.z[:] = rows
        res = solve(state, factor, zc, max_sweeps=sweeps, order=order,
                    floor=floor)
        return res, factor.cols.copy(), zc.z[state.view().active]

    plain, plain_cols, plain_z = run(max_sweeps)
    ceiling = ceil_bound(plain.dual_bound)
    best = data.draw(st.one_of(
        st.integers(max(ceiling - 1, 0), max(ceiling + 1, 0)),
        st.integers(0, inst.num_clauses + inst.empty_count + 1)))
    res, res_cols, res_z = run(max_sweeps, prune_floor(best))
    if not res.converged and res.sweeps_used < max_sweeps:
        assert res.pruned
    if res.pruned:
        assert not res.converged
        assert ceil_bound(res.dual_bound) >= best
        assert dense_sdp_check(state, lam=res.cert.lam).min_eig >= 0.0
        plain, plain_cols, plain_z = run(res.sweeps_used)
    else:
        assert np.array_equal(res.cert.lam, plain.cert.lam)
    assert res.trace == plain.trace
    assert np.array_equal(res_cols, plain_cols)
    assert np.array_equal(res_z, plain_z)


def test_dsatur_colors_crown_graph_with_two_classes():
    """The crown graph (u_i or w_j for i != j) is bipartite: DSatur colors it
    with two classes, where greedy coloring in variable order (u1, w1, u2,
    w2, ...) needs one class per pair."""
    k = 5
    clauses = [[2 * i + 1, 2 * j + 2]
               for i in range(k) for j in range(k) if i != j]
    inst = instance_from_clauses(2 * k, clauses)
    state = NodeState(inst)
    assert len(np.unique(state.color[1:])) == 2
    for a, b in clauses:
        assert state.color[a] != state.color[b]
    assert np.array_equal(NodeState(inst).color, state.color)

    greedy = [0] * (2 * k + 1)
    for v in range(1, 2 * k + 1):
        taken = {greedy[u] for c in clauses if v in c for u in c if u < v}
        greedy[v] = min(set(range(len(taken) + 1)) - taken)
    assert max(greedy) + 1 == k


def test_triangle_instance_bound_sandwich():
    inst = parse_dimacs(TRIANGLE)
    state, ws, factor, zc = fresh_solver_state(inst, seed=0)
    res = solve(state, factor, zc, eps=1e-6, max_sweeps=2000)
    best, _ = brute_force(inst)
    assert best == 1
    assert res.dual_bound <= res.objective_unsat + 1e-9
    assert res.objective_unsat <= 1.0 + 1e-9
    assert math.ceil(res.objective_unsat - 1e-6) == 1
    assert abs(res.objective_unsat - res.dual_bound) <= 1e-3


def test_solve_zero_active_clauses():
    inst = parse_dimacs("p cnf 1 2\n0\n0")
    state, ws, factor, zc = fresh_solver_state(inst)
    res = solve(state, factor, zc)
    assert res.sweeps_used == 0
    assert res.objective_unsat == pytest.approx(2.0)
    assert res.dual_bound == pytest.approx(2.0)
    assert res.converged


@pytest.mark.parametrize("eps", (0.0, -1.0, math.nan, math.inf))
def test_solve_rejects_eps_the_config_rejects(eps):
    """solve takes only 0 < eps < inf: a NaN eps, which no gap estimate
    could ever meet, is rejected too."""
    state, ws, factor, zc = fresh_solver_state(parse_dimacs(TRIANGLE))
    with pytest.raises(ValueError, match="eps"):
        solve(state, factor, zc, eps=eps)


def test_solve_reads_eps_at_each_call():
    """Without an eps a solve stops at sdp.EPS as it is at the call: a
    tighter EPS runs more sweeps from the same start, as many as a solve
    passed that eps."""
    inst = random_instance(20, 80, 2, seed=5)

    def sweeps(**passed):
        state, ws, factor, zc = fresh_solver_state(inst, seed=5)
        return solve(state, factor, zc, **passed).sweeps_used

    default = sweeps()
    with mock.patch.object(sdp, "EPS", 1e-6):
        tight = sweeps()
    assert default < tight == sweeps(eps=1e-6)


def test_solve_monotone_trace_random_instances():
    for seed in range(20):
        inst = random_instance(15, 60, 2, seed=seed)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        res = solve(state, factor, zc, eps=1e-3)
        for a, b in zip(res.trace, res.trace[1:]):
            assert b <= a + 1e-12
        assert res.dual_bound <= res.objective_unsat + 1e-9


def test_solve_flags_low_precision_when_sweeps_exhausted():
    inst = random_instance(40, 160, 2, seed=3)
    state, ws, factor, zc = fresh_solver_state(inst, seed=3)
    res = solve(state, factor, zc, eps=1e-12, max_sweeps=3)
    assert not res.converged
    assert res.sweeps_used == 3
    # the dual bound stays usable regardless
    assert res.dual_bound <= res.objective_unsat + 1e-9


def test_dual_zero_matrix(monkeypatch):
    inst = parse_dimacs("p cnf 2 1\n0")
    state, ws, factor, zc = fresh_solver_state(inst)
    eigensolves = counting(monkeypatch, np.linalg, "eigvalsh")
    cert = dual_from_primal(state, factor, zc)
    assert np.allclose(cert.lam, 0.0)
    assert cert.dual_bound == pytest.approx(state.base_unsat)
    # nothing to repair without an active clause
    assert eigensolves == []


def test_dual_certificate_feasible_at_convergence():
    inst = random_instance(12, 36, 2, seed=21)
    state, ws, factor, zc = fresh_solver_state(inst, seed=21)
    res = solve(state, factor, zc, eps=1e-8, max_sweeps=5000)
    check = dense_sdp_check(state, factor=factor, lam=res.cert.lam)
    assert check.min_eig >= -1e-6
    assert res.objective_unsat == pytest.approx(check.objective, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_weak_duality_any_factor(seed):
    # holds for arbitrary unit factors, converged or not (Cauchy-Schwarz)
    inst = random_instance(9, 25, 3, seed=seed)
    state, ws, factor, zc = fresh_solver_state(inst, seed=seed + 1)
    cert = dual_from_primal(state, factor, zc)
    assert cert.dual_bound <= objective(state, factor, zc) + 1e-9


def test_root_dual_bound_below_true_optimum():
    for seed in range(15):
        inst = random_instance(12, 48, 2, seed=seed + 100)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        res = solve(state, factor, zc, eps=1e-4, max_sweeps=2000)
        best, _ = brute_force(inst)
        assert math.ceil(res.dual_bound - 1e-6) <= best


def test_dual_bound_sound_even_at_loose_precision():
    # the repaired certificate must stay below the true optimum at any eps
    for seed in range(25):
        inst = random_instance(14, 56, 2, seed=seed + 500)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        res = solve(state, factor, zc, eps=0.5, max_sweeps=10)
        best, _ = brute_force(inst)
        assert math.ceil(res.dual_bound - 1e-6) <= best
        check = dense_sdp_check(state, factor=factor, lam=res.cert.lam)
        assert check.min_eig >= -1e-9


def test_repaired_certificate_psd_without_tolerance():
    # the repair's floating-point margin must cover the eigensolver's error,
    # so the independent dense probe sees no negative eigenvalue at all
    rng = np.random.default_rng(0)
    for seed in range(60):
        inst = random_instance(14, 56, 2 + seed % 2, seed=seed)
        state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
        count = int(rng.integers(0, 5))
        for var in rng.choice(np.arange(1, 15), size=count, replace=False):
            assign(state, ws, int(var), TRUE if rng.random() < 0.5 else FALSE)
        zc.rebuild(state, factor)
        res = solve(state, factor, zc, eps=0.5, max_sweeps=3)
        check = dense_sdp_check(state, lam=res.cert.lam)
        assert check.min_eig >= 0.0, f"seed {seed}: {check.min_eig}"


def z_based_multipliers(state, factor, zcache):
    """The raw multipliers as summed over the z-cache rows: ||g_i|| with
    g_i the sum over the live entries of column i of
    coeff * w * (z_j - coeff * v_i), w at the clause's current length."""
    view = state.view()
    live, weight = view.live, view.weight
    clause, var = state.lit_clause[live], state.lit_var[live]
    coeff = view.coeff[live]
    rows = zcache.z[clause] - coeff[:, None] * factor.cols[var]
    g = np.zeros_like(factor.cols)
    np.add.at(g, var, (coeff * weight[clause])[:, None] * rows)
    return np.linalg.norm(g, axis=1)


@settings(max_examples=300, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_node_cost_matches_dense_oracle(inst, data):
    """The one cost-matrix builder against the dense oracle, and the raw
    multipliers read from it against the z-cache sums, at random partial
    nodes (fully assigned and clause-free ones included) after 0-3 sweeps;
    the repair gives the borrowed diagonal back."""
    n = inst.num_vars
    state, ws, factor, zc = fresh_solver_state(
        inst, seed=data.draw(st.integers(0, 99)))
    path = data.draw(st.permutations(range(1, n + 1)))
    for var in path[:data.draw(st.integers(0, n))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    zc.rebuild(state, factor)
    for _ in range(data.draw(st.integers(0, 3))):
        mixing_sweep(state, factor, zc)
    cost = node_cost(state)
    dense = dense_sdp_check(state)
    # sweep order: the truth column, then class by class, by variable
    assert cost.index.tolist() == [0] + sorted(
        dense.index[1:], key=lambda v: (state.color[v], v))
    at = [dense.index.index(v) for v in cost.index.tolist()]
    assert np.allclose(cost.matrix, dense.cost[np.ix_(at, at)], rtol=0.0,
                       atol=1e-12)
    assert cost.diag_sum == pytest.approx(dense.diag_sum, rel=0.0, abs=1e-12)
    assert cost.const_offset == pytest.approx(dense.const_offset, rel=0.0,
                                              abs=1e-12)
    raw = certificate(cost, factor, repair=False)
    assert np.allclose(raw.lam, z_based_multipliers(state, factor, zc))
    repaired = certificate(cost, factor)
    assert np.all(np.diag(cost.matrix) == 0.0)
    assert np.all(repaired.lam >= raw.lam)
    assert dense_sdp_check(state, lam=repaired.lam).min_eig >= 0.0


def test_solve_builds_one_cost_matrix(monkeypatch):
    """On either layout (the sparse one with DENSE_MAX_COLUMNS at 0) the
    sweeps and every certificate of a solve share one cost matrix."""
    real = sdp.pruning_certificate
    tested = []

    def never_prunes(cost, factor, floor):
        # the real test runs on the shared matrix, its verdict is dropped
        tested.append(real(cost, factor, floor) is not None)

    monkeypatch.setattr(sdp, "pruning_certificate", never_prunes)
    builds = counting(monkeypatch, sdp, "node_cost")
    for dense_max in (sdp.DENSE_MAX_COLUMNS, 0):
        monkeypatch.setattr(sdp, "DENSE_MAX_COLUMNS", dense_max)
        inst = random_instance(20, 80, 2, seed=5)
        state, ws, factor, zc = fresh_solver_state(inst, seed=5)
        builds.clear()
        tested.clear()
        # every objective and raw bound is above the floor: a pruning
        # certificate is taken after each of the six sweeps, then the
        # final one
        res = solve(state, factor, zc, eps=1e-12, max_sweeps=6, floor=-1e6)
        assert res.dense == (dense_max > 0)
        assert res.sweeps_used == 6 and not res.pruned
        assert res.certificates == 7 and tested == [True] * 6
        assert len(builds) == 1
        # the borrowed diagonal is given back: the final certificate and
        # the returned matrix are those of a fresh build
        fresh = dual_from_primal(state, factor, zc)
        assert np.array_equal(res.cert.lam, fresh.lam)
        assert res.dual_bound == fresh.dual_bound
        assert np.array_equal(res.cost.matrix, node_cost(state).matrix)


@pytest.mark.parametrize("passes", ("before", "during the first sweep"))
@pytest.mark.parametrize("layout", ("dense", "sparse"))
def test_solve_past_deadline_takes_no_certificate(monkeypatch, layout,
                                                  passes):
    """Either layout builds its cost matrix once, before sweeping, but past
    the deadline no certificate, eigensolve or Cholesky is taken, and the
    z-cache is left as it was."""
    if layout == "sparse":
        monkeypatch.setattr(sdp, "DENSE_MAX_COLUMNS", 0)
    inst = random_instance(20, 80, 2, seed=5)
    state, ws, factor, zc = fresh_solver_state(inst, seed=5)
    builds = counting(monkeypatch, sdp, "node_cost")
    eigensolves = counting(monkeypatch, np.linalg, "eigvalsh")
    factorizations = counting(monkeypatch, np.linalg, "cholesky")
    if passes == "before":
        deadline = time.monotonic() - 1.0
    else:
        deadline = time.monotonic() + 0.25
        name = f"{layout}_sweep"
        sweep = getattr(sdp, name)

        def slow_sweep(*args):
            # the deadline passes during the first sweep, whose objective
            # is above the floor
            time.sleep(max(deadline - time.monotonic(), 0.0) + 0.01)
            return sweep(*args)

        monkeypatch.setattr(sdp, name, slow_sweep)
    before = zc.z.copy()
    res = solve(state, factor, zc, deadline=deadline, floor=-1e6)
    assert res.dense == (layout == "dense")
    assert res.sweeps_used == (0 if passes == "before" else 1)
    assert res.cert is None and res.certificates == 0
    assert res.dual_bound == -math.inf
    assert len(builds) == 1 and eigensolves == [] and factorizations == []
    assert np.array_equal(zc.z, before)


def solved_node(seed, n, length, assigned, sweeps):
    """A node `assigned` random assignments below the root of a random
    formula, after `sweeps` sweeps; returns its state, factor and solve."""
    rng = np.random.default_rng(seed)
    inst = random_instance(n, (4 if length == 2 else 7) * n, length,
                           seed=seed)
    state, ws, factor, zc = fresh_solver_state(inst, seed=seed)
    for var in rng.choice(np.arange(1, n + 1), size=assigned, replace=False):
        assign(state, ws, int(var), TRUE if rng.random() < 0.5 else FALSE)
    zc.rebuild(state, factor)
    return state, factor, solve(state, factor, zc, max_sweeps=sweeps)


def test_cholesky_prune_boundary():
    """At a solved node whose eigen repair needs the shift s*, a floor that
    leaves s* (1 + 1e-6) of room prunes, by a certificate PSD by the dense
    probe, and a floor that leaves s* (1 - 1e-6) does not."""
    tested = 0
    for seed in range(40):
        state, factor, res = solved_node(seed, 14 + seed % 3 * 7,
                                         2 + seed % 2, seed % 4, 1 + seed % 3)
        cost = res.cost
        raw = certificate(cost, factor, repair=False)
        dim = len(cost.index)
        s_star = float(np.mean(res.cert.lam[cost.index]
                               - raw.lam[cost.index]))
        if s_star < 1e-4:
            continue
        tested += 1
        room = raw.dual_bound - dim * s_star * (1 + 1e-6)
        cert = pruning_certificate(cost, factor, room)
        assert cert is not None, seed
        assert cert.dual_bound > room
        assert dense_sdp_check(state, lam=cert.lam).min_eig >= 0.0
        tight = raw.dual_bound - dim * s_star * (1 - 1e-6)
        assert pruning_certificate(cost, factor, tight) is None, seed
    assert tested >= 30


def test_cholesky_factor_matches_numpy():
    """sdp.cholesky_factor gives np.linalg.cholesky's verdict and, where
    that succeeds, its factor bit for bit: on positive definite matrices,
    on indefinite ones, and on PD matrices shifted to the singular
    boundary, where rounding decides either way."""
    rng = np.random.default_rng(5)
    matrices = []
    for dim in (1, 2, 15, 29, 61):
        for _ in range(4):
            half = rng.standard_normal((dim, dim))
            pd = half @ half.T + 0.1 * np.eye(dim)
            low = float(np.linalg.eigvalsh(pd)[0])
            matrices += [pd, pd - 2.0 * low * np.eye(dim),
                         pd - low * np.eye(dim),
                         pd - low * (1 - 1e-12) * np.eye(dim)]
    passed = failed = 0
    for matrix in matrices:
        factor = sdp.cholesky_factor(matrix)
        try:
            expected = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            assert factor is None
            failed += 1
            continue
        assert factor is not None
        assert np.array_equal(factor, expected)
        passed += 1
    assert passed >= 20 and failed >= 20


def test_repair_margin_covers_entry_error():
    """The eigen repair leaves room for the rounding of C's entries: with
    entry_error set to 1e-3 the repaired multipliers keep the dense
    oracle's smallest eigenvalue at least dim * 1e-3."""
    for seed in range(12):
        state, factor, res = solved_node(seed, 10 + seed % 3 * 4,
                                         2 + seed % 2, seed % 3, 2)
        cost = replace(res.cost, entry_error=1e-3)
        lam = certificate(cost, factor).lam
        check = dense_sdp_check(state, lam=lam)
        assert check.min_eig >= len(cost.index) * 1e-3, seed


def test_cholesky_and_eigen_prune_decisions_agree():
    """On 240 random MAX2SAT and MAX3SAT nodes and floors spread around the
    eigen-repaired bound, the Cholesky decision (pruning_certificate) and
    the eigen decision (repaired bound above the floor) agree except within
    1e-9 of the boundary.  That window is the Cholesky's PRUNE_SLACK of
    the excess (1e-9 when the excess is below 1); the two rounding margins
    (about dim^2 eps tr) add under 1e-10 here."""
    rng = np.random.default_rng(2)
    offsets = [sign * 10.0 ** -e for e in (1, 3, 5, 7, 8, 10, 12)
               for sign in (1, -1)]
    agreed = near = 0
    for node in range(240):
        length = 2 + node % 2
        state, factor, res = solved_node(
            node, int(rng.integers(8, 17)), length, int(rng.integers(0, 4)),
            int(rng.integers(1, 6)))
        cost = res.cost
        raw = certificate(cost, factor, repair=False).dual_bound
        eigen = res.dual_bound
        floors = [eigen + offset for offset in offsets]
        floors += [b - 1 + 1e-6 for b in range(math.ceil(eigen) - 1,
                                               math.ceil(raw) + 2)]
        for floor in floors:
            chol = pruning_certificate(cost, factor, floor) is not None
            if abs(eigen - floor) <= 1e-9 * max(1.0, raw - floor) + 1e-10:
                near += 1
                continue
            assert chol == (eigen > floor), (node, floor)
            agreed += 1
    assert agreed >= 200 * len(offsets) and near > 0


def test_search_eigensolves_only_final_certificates(monkeypatch):
    """In a complete search each solve builds its cost matrix once and
    expansion builds none; eigensolves come only from the final
    certificates of solves that did not prune, and every certificate that
    pruned was decided by Cholesky."""
    inst = random_instance(24, 96, 2, seed=11)
    builds = counting(monkeypatch, sdp, "node_cost")
    eigensolves = counting(monkeypatch, np.linalg, "eigvalsh")
    factorizations = counting(monkeypatch, sdp, "cholesky_factor")
    best, status, stats = solve_complete(inst, SolverConfig(seed=0))
    assert status == "OPTIMUM"
    assert stats.early_prunes > 0 and stats.child_cert_prunes > 0
    assert len(builds) == stats.sdp_solves
    assert 0 < len(eigensolves) <= stats.sdp_solves - stats.early_prunes
    assert len(factorizations) >= stats.early_prunes + stats.child_cert_prunes


def test_raw_multipliers_near_feasible_at_tight_convergence():
    inst = random_instance(10, 30, 2, seed=77)
    state, ws, factor, zc = fresh_solver_state(inst, seed=77)
    solve(state, factor, zc, eps=1e-10, max_sweeps=20_000)
    raw = dual_from_primal(state, factor, zc, repair=False)
    check = dense_sdp_check(state, factor=factor, lam=raw.lam)
    assert check.min_eig >= -1e-6


@settings(max_examples=300, deadline=None)
@given(inst=small_formulas(), data=st.data())
def test_node_arrays_match_clause_walks(inst, data):
    """The solver's array arithmetic against per-clause walks and the dense
    oracle, at random partial nodes (fully assigned and clause-free ones
    included), then along a chain of warm-started assignments below them."""
    n = inst.num_vars
    order = data.draw(st.permutations(range(1, n + 1)))
    depth = data.draw(st.integers(0, n))
    chain = data.draw(st.integers(0, n - depth))
    signs = data.draw(st.lists(st.sampled_from((TRUE, FALSE)),
                               min_size=n, max_size=n))
    path = list(zip(order, signs))
    engine = Searcher(inst, SolverConfig(seed=data.draw(st.integers(0, 99))))
    state, factor, zc = engine.state, engine.factor, engine.zcache
    engine.move_to(path[:depth])
    zc.rebuild(state, factor)

    V = factor.cols
    losses = []
    for j, clause in enumerate(inst.clauses):
        if state.clause_status[j] != ACTIVE:
            continue
        length = priced_length(state, clause)
        free = [lit for lit in clause.lits
                if state.assignment[abs(lit)] == FREE]
        row = (-1 - (length - len(free))) * V[0]
        for lit in free:
            row = row + (V[lit] if lit > 0 else -V[-lit])
        assert np.allclose(zc.z[j], row, rtol=0.0, atol=1e-12)
        losses.append(clause_loss(zc.z[j], length))
    assert engine.clipped_loss() == pytest.approx(
        state.base_unsat + math.fsum(x for x in losses if x > 0.0), abs=1e-12)
    dense = dense_sdp_check(state, factor)
    assert objective(state, factor, zc) == pytest.approx(dense.objective,
                                                         abs=1e-9)

    res = solve(state, factor, zc, eps=0.5, max_sweeps=3)
    cert = res.cert
    check = dense_sdp_check(state, lam=cert.lam)
    assert cert.diag_sum == pytest.approx(check.diag_sum, abs=1e-12)
    assert cert.const_offset == pytest.approx(check.const_offset, abs=1e-12)
    assert check.min_eig >= 0.0

    values = round_once(factor, state, np.random.default_rng(0))
    assert node_unsat(state, values) == evaluate(inst, values)

    ledger = ShiftLedger(cert)
    for var, value in path[depth:depth + chain]:
        moved = assign(state, engine.ws, var, value)
        ledger.apply(state, var, value, moved)
    # float noise only: the bound is at most the child's relaxation value
    assert ledger.dual_bound() <= min_unsat_completion(
        inst, state.assignment) + 1e-9
