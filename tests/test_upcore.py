"""Unit-propagation cores (bounds.up_cores) and the pop-time prune they
decide, checked against brute force."""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpsat.search
from sdpsat.bounds import ShiftLedger, up_cores
from sdpsat.config import SolverConfig
from sdpsat.generate import random_instance
from sdpsat.instance import (ACTIVE, FALSE, FREE, TRUE, NodeState,
                             WatchedStack, assign, instance_from_clauses,
                             parse_dimacs)
from sdpsat.oracle import brute_force, min_unsat_completion
from sdpsat.search import OPTIMUM, solve_complete
from tests.test_bounds import mixed_formulas


@st.composite
def random_formulas(draw):
    """Seeded random MAX2SAT or MAX3SAT, n = 4..12, m = n..6n."""
    length = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(4, 12))
    m = draw(st.integers(n, 6 * n))
    return random_instance(n, m, length, draw(st.integers(0, 10_000)))


def partial_state(inst, data):
    """A NodeState at a drawn partial assignment of `inst`."""
    state = NodeState(inst)
    ws = WatchedStack()
    order = data.draw(st.permutations(range(1, inst.num_vars + 1)))
    for var in order[:data.draw(st.integers(0, inst.num_vars - 1))]:
        assign(state, ws, var, data.draw(st.sampled_from((TRUE, FALSE))))
    return state


def free_literals(state, j):
    return [lit for lit in state.instance.clauses[j].lits
            if state.assignment[abs(lit)] == FREE]


def refuted(state, core) -> bool:
    """Every assignment of the core's free variables leaves a core clause
    with each of its free literals false."""
    clauses = [free_literals(state, j) for j in core]
    variables = sorted({abs(lit) for lits in clauses for lit in lits})
    for values in itertools.product((1, -1), repeat=len(variables)):
        value = dict(zip(variables, values))
        if all(any((lit > 0) == (value[abs(lit)] > 0) for lit in lits)
               for lits in clauses):
            return False
    return True


def assert_sound(state):
    cores = up_cores(state)
    bound = state.base_unsat + len(cores)
    assert bound <= min_unsat_completion(state.instance, state.assignment)
    flat = [j for core in cores for j in core]
    assert len(flat) == len(set(flat)), "cores overlap"
    for core in cores:
        assert all(state.clause_status[j] == ACTIVE for j in core)
        assert refuted(state, core), core
    return cores


@settings(max_examples=150, deadline=None)
@given(inst=random_formulas(), data=st.data())
def test_cores_bound_every_completion(inst, data):
    assert_sound(partial_state(inst, data))


@settings(max_examples=100, deadline=None)
@given(inst=mixed_formulas(), data=st.data())
def test_cores_bound_every_completion_mixed_lengths(inst, data):
    assert_sound(partial_state(inst, data))


def test_cores_found_and_disjoint():
    # units x1 and -x1, and the chain x2 -> x3 -> -x2 from unit x2
    inst = parse_dimacs("p cnf 3 5\n1 0\n-1 0\n2 0\n-2 3 0\n-3 -2 0")
    state = NodeState(inst)
    assert sorted(map(sorted, assert_sound(state))) == [[0, 1], [2, 3, 4]]
    assert up_cores(state, 1) == up_cores(state)[:1]


def test_cores_read_only_free_literals():
    # x1 false reduces (x1 v x2) and (x1 v -x2) to complementary units
    inst = parse_dimacs("p cnf 3 3\n1 2 0\n1 -2 0\n3 0")
    state = NodeState(inst)
    assert up_cores(state) == []
    assign(state, WatchedStack(), 1, FALSE)
    assert [sorted(core) for core in assert_sound(state)] == [[0, 1]]


@settings(max_examples=100, deadline=None)
@given(inst=random_formulas(), data=st.data())
def test_need_exits_early_and_never_over_counts(inst, data):
    """With a need the cores are a prefix of those found without one: all
    `need` of them when there are that many, never more."""
    state = partial_state(inst, data)
    full = up_cores(state)
    need = data.draw(st.integers(-1, len(full) + 3))
    got = up_cores(state, need)
    assert got == full[:len(got)]
    assert len(got) <= max(need, 0)
    if 0 <= need <= len(full):
        assert len(got) == need


def unit_clauses(state):
    return [j for j, status in enumerate(state.clause_status)
            if status == ACTIVE and len(free_literals(state, j)) == 1]


@settings(max_examples=100, deadline=None)
@given(inst=random_formulas(), data=st.data())
def test_default_units_are_every_unit_clause(inst, data):
    state = partial_state(inst, data)
    assert up_cores(state) == up_cores(state, units=unit_clauses(state))


@settings(max_examples=150, deadline=None)
@given(inst=random_formulas(), data=st.data())
def test_cores_outside_taken_are_sound(inst, data):
    """Cores found from some of the unit clauses, with a drawn set of
    clauses taken, avoid the taken clauses and are disjoint, active and
    refuted by brute force over their own free variables."""
    state = partial_state(inst, data)
    units = data.draw(st.lists(st.sampled_from(unit_clauses(state)),
                               unique=True)
                      if unit_clauses(state) else st.just([]))
    taken = data.draw(st.sets(st.integers(0, inst.num_clauses - 1)))
    cores = up_cores(state, units=units, taken=taken)
    flat = [j for core in cores for j in core]
    assert len(flat) == len(set(flat)), "cores overlap"
    assert taken.isdisjoint(flat)
    for core in cores:
        assert all(state.clause_status[j] == ACTIVE for j in core)
        assert refuted(state, core), core


@settings(max_examples=150, deadline=None)
@given(inst=random_formulas(), depth_limit=st.integers(1, 8),
       data=st.data())
def test_carried_cores_bound_every_decided_node(inst, depth_limit, data):
    """With the ledger's bound switched off, every node the DFS below a
    solved root (a drawn partial assignment) decides is priced by
    base_unsat plus the cores carried to it, which is at most the node's
    exact minimum; the incumbent count is drawn, so the propagation gate
    opens at varying depths."""
    engine = sdpsat.search.Searcher(
        inst, SolverConfig(seed=data.draw(st.integers(0, 99))))
    order = data.draw(st.permutations(range(1, inst.num_vars + 1)))
    depth = data.draw(st.integers(0, inst.num_vars - 1))
    engine.move_to([(var, data.draw(st.sampled_from((TRUE, FALSE))))
                    for var in order[:depth]])
    res = engine.solve_root()
    engine.reorder(res.cert)
    engine.best_unsat = data.draw(st.integers(1, inst.num_clauses + 1))
    records = []
    real_decide = sdpsat.search.decide

    def decide(primal, dual, best_known):
        state = engine.state
        records.append((list(state.assignment), state.base_unsat, dual))
        return real_decide(primal, dual, best_known)

    with mock.patch.multiple(sdpsat.search, decide=decide,
                             DEPTH_LIMIT=depth_limit), \
            mock.patch.object(ShiftLedger, "dual_bound",
                              lambda ledger: -math.inf):
        engine.expand_root(res, 0, cores=up_cores(engine.state))
    for values, base, dual in records:
        assert dual == int(dual) >= base
        assert dual <= min_unsat_completion(inst, values)


def test_dfs_core_prunes_counted_among_dual_prunes():
    for seed in range(10):
        inst = random_instance(14, 98, 3, seed)
        _, status, stats = solve_complete(inst, SolverConfig(seed=0))
        assert status == OPTIMUM
        assert 0 < stats.dfs_core_prunes <= stats.prunes_by_dual, seed


def test_complete_optimum_matches_brute_force():
    for length in (2, 3, (1, 2, 3)):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 15))
            if isinstance(length, int):
                inst = random_instance(n, 5 * n, length, seed)
            else:
                inst = instance_from_clauses(n, [
                    [int(v) * int(rng.choice((-1, 1))) for v in
                     rng.choice(np.arange(1, n + 1), size=rng.choice(length),
                                replace=False)]
                    for _ in range(5 * n)])
            best, status, _ = solve_complete(inst, SolverConfig(seed=seed))
            assert status == OPTIMUM
            assert best.unsat == brute_force(inst)[0], (length, seed)


def test_up_cores_runs_once_per_solved_pop():
    """The full up_cores (from every unit clause) runs once per popped
    root that is neither pruned by its own dual nor a leaf, before its
    solve, and never while a root's children are priced: there, only
    calls that name their units run.  Its prunes count as pop-time dual
    prunes."""
    calls = []
    real = sdpsat.search.up_cores
    totals = dict.fromkeys(("calls", "popped", "leaf", "pop", "core",
                            "dual", "carried"), 0)
    for seed in range(10):
        inst = random_instance(14, 98, 3, seed)
        engine = sdpsat.search.Searcher(inst, SolverConfig(seed=0))
        real_expand = engine.expand_root

        def expand_root(res, depth, **kwargs):
            calls.append("expand")
            try:
                return real_expand(res, depth, **kwargs)
            finally:
                calls.append("done")

        def counted(state, need=None, units=None, taken=()):
            expanding = calls[-1:] == ["expand"]
            assert expanding == (units is not None), "full call expanding"
            if units is None:
                calls.append("up")
            else:
                totals["carried"] += 1
            return real(state, need, units, taken)

        engine.expand_root = expand_root
        with mock.patch.object(sdpsat.search, "up_cores", counted):
            assert engine.run() == OPTIMUM
        stats = engine.stats
        totals["calls"] += calls.count("up")
        calls.clear()
        totals["popped"] += stats.nodes_popped
        totals["leaf"] += stats.leaf_pops
        totals["pop"] += stats.pruned_at_pop
        totals["core"] += stats.up_core_prunes
        totals["dual"] += stats.prunes_by_dual
        assert stats.sdp_solves == (stats.nodes_popped - stats.leaf_pops
                                    - stats.pruned_at_pop)
    assert totals["calls"] == (totals["popped"] - totals["leaf"]
                               - (totals["pop"] - totals["core"]))
    assert 0 < totals["core"] <= totals["pop"] <= totals["dual"]
    assert totals["carried"] > 0
