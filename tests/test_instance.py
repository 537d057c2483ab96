import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpsat.instance
from sdpsat.config import SolverConfig
from sdpsat.generate import random_instance
from sdpsat.instance import (ACTIVE, FALSIFIED, FREE, SATISFIED, FALSE, TRUE,
                             Instance, NodeState, ParseError, WatchedStack,
                             assign, evaluate, instance_from_clauses,
                             parse_dimacs, unassign_to)
from sdpsat.search import Searcher

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
    inst = parse_dimacs("p wcnf 2 2 5\n3 1 2 0\n3 -1 0")
    assert inst.num_clauses == 2
    assert inst.clauses[0].lits == (1, 2)
    assert inst.weight == 3
    assert parse_dimacs(EXAMPLE).weight == 1


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


@pytest.mark.parametrize("text", [
    "p cnf 20 1\n1_0 -2 0",  # int() reads 1_0 as 10
    "p cnf 1_2 1\n3 0",  # ... and a header count 1_2 as 12
    "p cnf 3 1\n١ ٢ 0",  # ... and Arabic-Indic digits as 1, 2
    "p wcnf 2 1\n3_0 1 0",  # ... and a weight 3_0 as 30
    "p wcnf 2 1 ١٠\n3 1 0",  # ... and a top 10 in Arabic-Indic digits
])
def test_parse_non_dimacs_integer_rejected(text):
    """Integers are ASCII digits with an optional sign, as DIMACS has them,
    not everything Python's int() reads."""
    with pytest.raises(ParseError, match="bad integer token"):
        parse_dimacs(text)


def test_parse_non_ascii_outside_integers_accepted():
    """Comments may hold anything, and Unicode whitespace still separates
    tokens: only the integers themselves must be ASCII."""
    inst = parse_dimacs("c café 1_0\np cnf 2 1\n+1\u00a0-2 0\n")
    assert [c.lits for c in inst.clauses] == [(1, -2)]


def test_parse_wcnf_trailing_weight_rejected():
    """A weight that opens a clause the file never ends is an unterminated
    clause, as a CNF clause without its 0 is."""
    with pytest.raises(ParseError, match="not zero-terminated"):
        parse_dimacs("p wcnf 2 1\n3 1 0\n3\n")


@pytest.mark.parametrize("text", [
    "p cnf 3 5\n1 0\n2 0\n3 0\n",  # fewer clauses than the header counts
    "p cnf 3 1\n1 0\n2 0\n",  # more
    "p cnf 3 -1\n",  # a negative count
    "p wcnf 3 5 9\n1 1 0\n1 2 0\n1 3 0\n",
    "p wcnf 3 1 9\n1 1 0\n1 2 0\n",
    "p wcnf 3 -1 9\n",
])
def test_parse_clause_count_must_match_header(text):
    """A file holds exactly the clauses its problem line counts: one cut
    short after a clause, or with clauses added, is not solved as read."""
    with pytest.raises(ParseError):
        parse_dimacs(text)


@st.composite
def dimacs_texts(draw):
    """(text, num_vars, clause lists, weight, cut offsets): a CNF or
    uniform-weight WCNF formula rendered with comments and blank lines
    mixed in, clauses split over lines or sharing one, and an optional '%'
    tail; a cut offset ends the text just after a clause's terminating 0,
    one per clause but the last."""
    n = draw(st.integers(1, 12))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, max_size=5), max_size=8))
    weight = draw(st.integers(1, 50)) if draw(st.booleans()) else None
    # any top above the weight, and any positive one if no clause has it
    top = "" if weight is None or draw(st.booleans()) else " " + str(
        draw(st.integers(weight + 1 if clauses else 1, weight + 100)))
    kind = "cnf" if weight is None else "wcnf"
    text = draw(st.sampled_from(["", "c a comment\n", "\n  \n"]))
    text += f"p {kind} {n} {len(clauses)}{top}\n"
    cuts = []
    for clause in clauses:
        prefix = [] if weight is None else [weight]
        for token in [*prefix, *clause, 0]:
            text += draw(st.sampled_from([" ", " ", "\n", "\n\nc 1 0\n"]))
            text += str(token)
        cuts.append(len(text))
    text += "\n" + draw(st.sampled_from(["", "%\n0\n", "c 5 0 end\n"]))
    # a file without clauses has no weight to read: it is 1, as in CNF
    return text, n, clauses, weight if weight and clauses else 1, cuts[:-1]


@settings(max_examples=200, deadline=None)
@given(case=dimacs_texts())
def test_parse_round_trip(case):
    """A rendered formula parses to exactly the Instance of its clauses,
    and the same text cut after any clause but the last is rejected."""
    text, n, clauses, weight, cuts = case
    inst = parse_dimacs(text)
    ref = instance_from_clauses(n, clauses, weight)
    assert inst.num_vars == ref.num_vars
    assert inst.clauses == ref.clauses
    assert inst.weight == ref.weight
    assert inst.empty_count == ref.empty_count
    assert inst.tautology_count == ref.tautology_count
    for cut in cuts:
        with pytest.raises(ParseError):
            parse_dimacs(text[:cut])


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
    assert state.clause_free[0] == 2
    assign(state, ws, 1, FALSE)
    assert state.clause_free[0] == 1
    assert state.clause_status[0] == ACTIVE
    assign(state, ws, 2, FALSE)
    assert state.clause_free[0] == 0
    assert state.clause_status[0] == FALSIFIED
    assert state.base_unsat == 1


def test_assign_satisfies():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 1, TRUE)
    assert state.clause_status[0] == SATISFIED
    assert state.clause_free[0] == 1


def test_assign_non_free_rejected():
    inst = parse_dimacs("p cnf 2 1\n1 2 0")
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 1, TRUE)
    with pytest.raises(ValueError):
        assign(state, ws, 1, FALSE)


def test_unassign_involution():
    """unassign_to restores the node exactly, also through another counter
    than the one the steps were assigned through: the undo records live on
    the node's trail, and the two counters' touches sum to one counter's."""
    for inst, steps in ((parse_dimacs(EXAMPLE), ((1, FALSE), (2, TRUE))),
                        (random_instance(12, 40, 2, seed=0),
                         ((3, TRUE), (5, FALSE)))):
        state, ws = NodeState(inst), WatchedStack()

        def snapshot():
            return (list(state.assignment), list(state.clause_free),
                    list(state.clause_status), state.base_unsat,
                    state.free_count)

        before = snapshot()
        mark = state.mark()
        for var, value in steps:
            assign(state, ws, var, value)
        unassign_to(state, ws, mark)
        assert snapshot() == before
        assert state.trail == []
        steps_ws, rollback_ws = WatchedStack(), WatchedStack()
        for var, value in steps:
            assign(state, steps_ws, var, value)
        unassign_to(state, rollback_ws, mark)
        assert snapshot() == before
        assert state.trail == []
        assert steps_ws.touch_count + rollback_ws.touch_count == ws.touch_count


def test_unassign_noop_and_bad_mark():
    inst = parse_dimacs(EXAMPLE)
    state, ws = NodeState(inst), WatchedStack()
    assign(state, ws, 1, TRUE)
    unassign_to(state, ws, state.mark())  # no-op
    assert state.path() == ((1, TRUE),)
    with pytest.raises(ValueError):
        unassign_to(state, ws, 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_ops_match_naive_rescan(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(12, 40, int(rng.integers(1, 4)), seed=seed)
    state, ws = NodeState(inst), WatchedStack()
    for _ in range(50):
        moved = None
        if state.trail and (state.free_count == 0 or rng.random() < 0.4):
            unassign_to(state, ws, int(rng.integers(0, len(state.trail))))
        else:
            free = state.free_vars()
            var = free[int(rng.integers(0, len(free)))]
            before = list(state.clause_status)
            moved = assign(state, ws, var,
                           TRUE if rng.random() < 0.5 else FALSE)
        statuses, base = naive_statuses(inst, state.assignment)
        assert statuses == state.clause_status
        assert base == state.base_unsat
        if moved is not None:
            # the clauses active before the step, in occurrence order
            assert moved == [(j, statuses[j]) for j, _ in inst.occurrences[var]
                             if before[j] == ACTIVE]
        # the free count is asserted for non-satisfied clauses only: a
        # satisfied clause freezes its count (later assignments skip it),
        # and LIFO undo makes the frozen count exact again whenever the
        # clause reactivates.
        for j, cl in enumerate(inst.clauses):
            if state.clause_status[j] == SATISFIED:
                continue
            expected = sum(state.assignment[abs(lit)] == FREE
                           for lit in cl.lits)
            assert state.clause_free[j] == expected
            if state.clause_status[j] == FALSIFIED:
                assert state.clause_free[j] == 0


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


def assert_view_matches_replay(state):
    """state.view() equals, array for array (dtype included), the view of a
    fresh NodeState that replays the state's trail."""
    fresh, ws = NodeState(state.instance), WatchedStack()
    for var, value in state.path():
        assign(fresh, ws, var, value)
    for ours, theirs in zip(state.view(), fresh.view(), strict=True):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("seed", range(4))
def test_view_is_kept_until_the_trail_moves(seed):
    """view() returns one object per node, rebuilt after assign, after an
    unassign_to that pops the trail and after a move_to onto a path that
    shares a prefix with the trail; each equals a fresh replay of the
    trail, and an unassign_to that pops nothing keeps it."""
    rng = np.random.default_rng(seed)
    engine = Searcher(random_instance(10, 40, 1 + seed % 3, seed=seed),
                      SolverConfig(seed=0))
    state, ws = engine.state, engine.ws
    view = state.view()
    assert state.view() is view
    for var in rng.permutation(np.arange(1, 11))[:6].tolist():
        assign(state, ws, var, TRUE if rng.random() < 0.5 else FALSE)
        assert state.view() is not view
        view = state.view()
        assert state.view() is view
        assert_view_matches_replay(state)
    unassign_to(state, ws, state.mark())
    assert state.view() is view
    path = state.path()
    unassign_to(state, ws, 3)
    assert state.view() is not view
    assert_view_matches_replay(state)
    view = state.view()
    free = state.free_vars()[:2]
    engine.move_to(path[:2] + tuple((v, FALSE) for v in free))
    assert state.path() == path[:2] + tuple((v, FALSE) for v in free)
    assert state.view() is not view
    assert_view_matches_replay(state)


def test_view_arrays_are_read_only():
    """Every array of a view is read-only, so a reader that writes into one
    raises instead of corrupting the node's other readers."""
    state, ws = NodeState(random_instance(8, 30, 3, seed=2)), WatchedStack()
    assign(state, ws, 3, TRUE)
    view = state.view()
    for array in view:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_instance_imports_no_solver_module():
    """instance.py is the bottom layer: it imports no other module of the
    package, neither at the top nor inside a function body."""
    tree = ast.parse(Path(sdpsat.instance.__file__).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        assert not any(name.split(".")[0] == "sdpsat" for name in names)
