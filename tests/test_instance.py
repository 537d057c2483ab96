import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsat.generate import random_instance
from sdpsat.instance import (ACTIVE, FALSIFIED, FREE, SATISFIED, FALSE, TRUE,
                             Instance, NodeState, ParseError, WatchedStack,
                             assign, evaluate, instance_from_clauses,
                             parse_dimacs, unassign_to)

EXAMPLE = "p cnf 2 3 \n 1 2 0 \n -1 2 0 \n -2 0"


def naive_statuses(instance, assignment):
    """Reference re-derivation of clause statuses from scratch."""
    statuses = []
    base = instance.empty_count
    for cl in instance.clauses:
        sat = False
        n_assigned = 0
        for lit in cl.lits:
            val = assignment[abs(lit)]
            if val != FREE:
                n_assigned += 1
                if (lit > 0) == (val > 0):
                    sat = True
        if sat:
            statuses.append(SATISFIED)
        elif n_assigned == cl.length:
            statuses.append(FALSIFIED)
            base += 1
        else:
            statuses.append(ACTIVE)
    return statuses, base


def test_parse_basic():
    inst = parse_dimacs(EXAMPLE)
    assert inst.num_vars == 2
    assert inst.num_clauses == 3
    assert [c.lits for c in inst.clauses] == [(1, 2), (-1, 2), (-2,)]
    assert inst.occurrences[1] == [(0, 1), (1, -1)]
    assert inst.occurrences[2] == [(0, 1), (1, 1), (2, -1)]


def test_parse_tautology_dropped():
    inst = parse_dimacs("p cnf 1 1 \n 1 -1 0")
    assert inst.num_vars == 1
    assert inst.num_clauses == 0
    assert inst.tautology_count == 1


def test_parse_literal_out_of_range():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1 \n 3 0")


def test_parse_malformed_header():
    with pytest.raises(ParseError):
        parse_dimacs("p dnf 2 1\n1 0")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf two 1\n1 0")
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0")


def test_parse_duplicate_literal_deduped():
    inst = parse_dimacs("p cnf 2 1\n1 1 2 0")
    assert inst.clauses[0].lits == (1, 2)


def test_parse_empty_clause_counted():
    inst = parse_dimacs("p cnf 2 2\n0\n1 2 0")
    assert inst.empty_count == 1
    assert inst.num_clauses == 1
    assert evaluate(inst, [0, 1, 1]) == 1


def test_parse_multiline_clause():
    inst = parse_dimacs("p cnf 3 1\n1 2\n3 0")
    assert inst.clauses[0].lits == (1, 2, 3)


def test_parse_percent_tail():
    inst = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert inst.num_clauses == 1


def test_parse_wcnf_uniform():
    inst = parse_dimacs("p wcnf 2 2 5\n1 1 2 0\n1 -1 0")
    assert inst.num_clauses == 2
    assert inst.clauses[0].lits == (1, 2)


def test_parse_wcnf_nonuniform_rejected():
    with pytest.raises(ParseError):
        parse_dimacs("p wcnf 2 2 5\n1 1 2 0\n2 -1 0")


@pytest.mark.parametrize("text", [
    "p wcnf 1 2 9\n9 1 0\n9 -1 0",  # two contradictory hard clauses
    "p wcnf 2 2 5\n7 1 2 0\n7 -1 0",  # uniform weights above top
    "p wcnf 2 2 5\n1 1 2 0\n5 -1 0",  # a soft and a hard clause
])
def test_parse_wcnf_hard_clause_rejected(text):
    """A clause of weight >= top is hard (partial MAXSAT): rejected, not
    solved as a soft clause."""
    with pytest.raises(ParseError, match="hard clause"):
        parse_dimacs(text)


@pytest.mark.parametrize("top", ["0", "-3", "x", "2.5"])
def test_parse_wcnf_bad_top_rejected(top):
    with pytest.raises(ParseError, match="bad top weight"):
        parse_dimacs(f"p wcnf 1 1 {top}\n1 1 0")


def test_evaluate_example():
    inst = parse_dimacs(EXAMPLE)
    # brute-check: v = (T, F) leaves exactly (-1, 2) unsatisfied
    assert evaluate(inst, [0, TRUE, FALSE]) == 1
    best = min(evaluate(inst, [0, a, b]) for a in (1, -1) for b in (1, -1))
    assert best == 1


def test_evaluate_unit_clause():
    inst = parse_dimacs("p cnf 1 1\n1 0")
    assert evaluate(inst, [0, FALSE]) == 1
    assert evaluate(inst, [0, TRUE]) == 0


def test_evaluate_empty_instance():
    inst = parse_dimacs("p cnf 3 1\n1 -1 0")
    assert evaluate(inst, [0, 1, 1, 1]) == 0


def test_evaluate_touch_count_is_nnz():
    """evaluate reads the assignment once per literal occurrence."""

    class Counted(list):
        lookups = 0

        def __getitem__(self, index):
            self.lookups += 1
            return super().__getitem__(index)

    inst = random_instance(20, 60, 3, seed=5)
    values = Counted([1] * 21)
    assert evaluate(inst, values) == evaluate(inst, [1] * 21)
    assert values.lookups == inst.nnz


def test_assign_coefficient_move():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws = NodeState(inst), WatchedStack()
    assert state.s0[0] == -1
    assign(state, ws, 1, FALSE)
    assert state.s0[0] == -2
    assert state.clause_status[0] == ACTIVE
    assign(state, ws, 2, FALSE)
    assert state.s0[0] == -3
    assert state.clause_status[0] == FALSIFIED
    assert state.base_unsat == 1


def test_assign_satisfies():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 1, TRUE)
    assert state.clause_status[0] == SATISFIED
    assert state.s0[0] == 0


def test_assign_non_free_rejected():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 1, TRUE)
    with pytest.raises(ValueError):
        assign(state, ws, 1, FALSE)


def test_unassign_involution():
    inst = parse_dimacs(EXAMPLE)
    state, ws = NodeState(inst), WatchedStack()
    snapshot = (list(state.assignment), list(state.s0),
                list(state.clause_status), state.base_unsat, state.free_count)
    mark = state.mark()
    assign(state, ws, 1, FALSE)
    assign(state, ws, 2, TRUE)
    unassign_to(state, ws, mark)
    assert (list(state.assignment), list(state.s0), list(state.clause_status),
            state.base_unsat, state.free_count) == snapshot
    assert state.trail == []


def test_unassign_noop_and_bad_mark():
    inst = parse_dimacs(EXAMPLE)
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 1, TRUE)
    unassign_to(state, ws, state.mark())  # no-op
    assert state.trail == [1]
    with pytest.raises(ValueError):
        unassign_to(state, ws, 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_ops_match_naive_rescan(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(12, 40, int(rng.integers(1, 4)), seed=seed)
    state, ws = NodeState(inst), WatchedStack()
    for _ in range(50):
        if state.trail and (state.free_count == 0 or rng.random() < 0.4):
            unassign_to(state, ws, int(rng.integers(0, len(state.trail))))
        else:
            free = state.free_vars()
            var = free[int(rng.integers(0, len(free)))]
            assign(state, ws, var, TRUE if rng.random() < 0.5 else FALSE)
        statuses, base = naive_statuses(inst, state.assignment)
        assert statuses == state.clause_status
        assert base == state.base_unsat
        # s0 identity: -1 plus the signed sum over assigned literals.  It is
        # asserted for non-satisfied clauses only: a satisfied clause freezes
        # its s0 (later assignments skip it), and LIFO undo guarantees the
        # frozen value is exact again whenever the clause reactivates.
        for j, cl in enumerate(inst.clauses):
            if state.clause_status[j] == SATISFIED:
                continue
            expected = -1 + sum(
                (1 if lit > 0 else -1) * state.assignment[abs(lit)]
                for lit in cl.lits if state.assignment[abs(lit)] != FREE)
            assert state.s0[j] == expected
            if state.clause_status[j] == FALSIFIED:
                assert state.s0[j] == -1 - cl.length


def test_full_assignment_touches_equal_nnz():
    inst = random_instance(30, 90, 2, seed=3)
    state, ws = NodeState(inst), WatchedStack()
    rng = np.random.default_rng(0)
    order = rng.permutation(np.arange(1, 31))
    for v in order:
        assign(state, ws, int(v), TRUE if rng.random() < 0.5 else FALSE)
    assert ws.touch_count == inst.nnz
    # and the result agrees with a fresh evaluate
    assert state.base_unsat == evaluate(inst, state.assignment)


def test_occurrence_transpose_consistency():
    inst = random_instance(15, 50, 3, seed=9)
    for v in range(1, inst.num_vars + 1):
        for j, sign in inst.occurrences[v]:
            assert sign * v in inst.clauses[j].lits
    total = sum(len(occ) for occ in inst.occurrences)
    assert total == inst.nnz


def test_instance_from_clauses_rejects_zero_literal():
    with pytest.raises(ParseError):
        instance_from_clauses(2, [[1, 0]])
