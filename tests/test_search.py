import math
import time
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdpsat.search
from sdpsat import bounds, rounding, sdp
from sdpsat.bounds import Decision, decide
from sdpsat.config import SolverConfig
from sdpsat.generate import random_instance
from sdpsat.instance import (FALSE, TRUE, assign, evaluate,
                             instance_from_clauses, parse_dimacs,
                             unassign_to)
from sdpsat.oracle import (BRUTE_FORCE_CAP, brute_force, brute_force_dense,
                           dense_sdp_check, min_unsat_completion)
from sdpsat.search import (OPTIMUM, TIMEOUT, Searcher, solve_complete,
                           solve_incomplete)

TRIANGLE = "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0"

# v1 -> v2 -> v3 -> v4 as implications: satisfiable chain
CHAIN = "p cnf 4 3\n-1 2 0\n-2 3 0\n-3 4 0"


def ceil_bound(x: float, tol: float = 1e-6) -> int:
    """Integer ceiling with a guard against float noise at the boundary."""
    return math.ceil(x - tol)


def record_bounds(engine, records, verdicts=None):
    """A patch of the search that appends (path, bound), in search order,
    for every child its DFS decides (the child's dual) and every child
    dropped by its own certificate (the certificate's bound), and each
    decided child's verdict to `verdicts` if one is given."""
    real_decide = sdpsat.search.decide
    real_certificate = sdpsat.search.pruning_certificate

    def decide(primal, dual, best_known):
        records.append((engine.state.path(), dual))
        verdict = real_decide(primal, dual, best_known)
        if verdicts is not None:
            verdicts.append(verdict)
        return verdict

    def pruning_certificate(cost, factor, floor):
        cert = real_certificate(cost, factor, floor)
        if cert is not None:
            records.append((engine.state.path(), cert.dual_bound))
        return cert

    return mock.patch.multiple(sdpsat.search, decide=decide,
                               pruning_certificate=pruning_certificate)


def test_complete_triangle():
    inst = parse_dimacs(TRIANGLE)
    best, status, stats = solve_complete(inst, SolverConfig(seed=1))
    assert status == OPTIMUM
    assert best.unsat == 1
    assert stats.nodes_popped >= 1


def test_complete_satisfiable_chain():
    inst = parse_dimacs(CHAIN)
    best, status, stats = solve_complete(inst, SolverConfig(seed=2))
    assert status == OPTIMUM
    assert best.unsat == 0


def test_complete_matches_oracle_random_batch():
    for seed in range(30):
        inst = random_instance(16, 64, 2, seed=seed)
        best, status, _ = solve_complete(inst, SolverConfig(seed=seed))
        oracle_best, _ = brute_force(inst)
        assert status == OPTIMUM
        assert best.unsat == oracle_best, f"seed {seed}"


def test_complete_max3sat_small_batch():
    for seed in range(10):
        inst = random_instance(12, 50, 3, seed=seed + 40)
        best, status, _ = solve_complete(inst, SolverConfig(seed=seed))
        oracle_best, _ = brute_force(inst)
        assert status == OPTIMUM
        assert best.unsat == oracle_best, f"seed {seed}"


# Exact optima of random_instance(n, m, 2, seed), the CI's two pools that no
# brute force reaches (n above oracle.BRUTE_FORCE_CAP), computed once by an
# independent MILP (perfbench/reference.py's milp_min_unsat: binary x_v, one
# slack per clause; HiGHS through scipy 1.17.1).
MILP_OPTIMA = {
    (28, 112): (
        7, 9, 5, 9, 9, 10, 8, 6, 11, 8, 9, 8, 9, 7, 9, 9, 6, 8, 9, 5,
        9, 8, 11, 9, 8, 10, 8, 6, 7, 8, 8, 8, 10, 10, 10, 9, 4, 10, 8,
        10, 10, 10, 7, 9, 10, 9, 10, 8, 7, 6, 7, 8, 6, 10, 9, 6, 9, 9,
        8, 9, 11, 11, 7, 9, 8, 9, 9, 8, 9, 8, 6, 9, 8, 9, 6, 10, 7, 8,
        10, 7, 8, 7, 7, 9, 11, 8, 8, 7, 10, 9, 8, 3, 10, 9, 10, 7, 7,
        9, 10, 9),
    (60, 600): (75, 82, 86),
}


def test_complete_matches_milp_optima_above_the_brute_force_cap():
    """solve_complete proves exactly the MILP optima of formulas too large
    for the brute-force oracle: seeds 0-99 at n=28, m=112 and 0-2 at n=60,
    m=600 (MAX2SAT)."""
    assert len(MILP_OPTIMA[28, 112]) == 100
    assert sum(MILP_OPTIMA[28, 112]) == 834
    assert sum(MILP_OPTIMA[60, 600]) == 243
    for (n, m), optima in MILP_OPTIMA.items():
        assert n > BRUTE_FORCE_CAP
        for seed, optimum in enumerate(optima):
            best, status, _ = solve_complete(random_instance(n, m, 2, seed),
                                             SolverConfig(seed=0))
            assert status == OPTIMUM
            assert best.unsat == optimum, f"n={n} m={m} seed {seed}"


def test_complete_timeout_returns_incumbent():
    # the complete proof of this instance takes 86 s without a time limit
    # (172x the limit below; 2-CPU VM, one BLAS thread)
    inst = random_instance(120, 600, 2, seed=5)
    best, status, stats = solve_complete(
        inst, SolverConfig(seed=5, time_limit=0.5))
    assert status == TIMEOUT
    assert best is not None
    assert best.unsat >= 0


def test_zero_time_limit_reports_timeout():
    """A deadline that has passed before the first root is solved leaves
    the search undone, so it proves nothing, but one rounding of the
    untouched root still gives an incumbent to report."""
    inst = random_instance(28, 112, 2, seed=1)
    best, status, stats = solve_complete(
        inst, SolverConfig(seed=1, time_limit=0.0))
    assert status == TIMEOUT
    assert best is not None
    assert evaluate(inst, best.assignment) == best.unsat
    assert (stats.nodes_popped, stats.roundings) == (0, 1)


def test_timeout_skips_certificate_repair_and_rounding_at_scale():
    # one root: its certificate's eigensolve alone (dimension 3201) takes
    # about four times the limit, and its rounding about half of it
    inst = random_instance(3200, 12800, 2, seed=3)
    best, stats = solve_incomplete(inst, SolverConfig(seed=3, time_limit=0.3))
    assert stats.wall_time < 0.8
    assert best is not None
    assert evaluate(inst, best.assignment) == best.unsat


def test_early_prunes_counted_among_dual_prunes():
    inst = random_instance(28, 112, 2, seed=1)
    _, status, stats = solve_complete(inst, SolverConfig(seed=1))
    assert status == OPTIMUM
    assert 0 < stats.early_prunes <= stats.prunes_by_dual


def test_deadline_inside_first_root_rounds_once():
    inst = random_instance(40, 160, 2, seed=6)
    engine = Searcher(inst, SolverConfig(seed=6, time_limit=60.0))
    real_solve = sdpsat.search.solve

    def solve_past_deadline(*args, **kwargs):
        # the deadline passes as the first root's solve starts
        engine.deadline = time.monotonic()
        return real_solve(*args, **dict(kwargs, deadline=engine.deadline))

    with mock.patch.object(sdpsat.search, "solve", solve_past_deadline):
        status = engine.run()
    assert status == TIMEOUT
    assert engine.stats.sdp_solves == 1
    assert engine.stats.roundings == 1
    assert engine.best is not None
    assert evaluate(inst, engine.best.assignment) == engine.best.unsat


def test_child_cert_prunes_counted_among_dual_prunes():
    inst = random_instance(28, 112, 2, seed=8)
    _, status, stats = solve_complete(inst, SolverConfig(seed=8))
    assert status == OPTIMUM
    assert stats.child_cert_prunes > 0
    assert (stats.pruned_at_pop + stats.early_prunes + stats.child_cert_prunes
            <= stats.prunes_by_dual)


def test_certificates_counted_in_solves_and_at_expansion():
    inst = random_instance(28, 112, 2, seed=1)
    _, status, stats = solve_complete(inst, SolverConfig(seed=1))
    assert status == OPTIMUM
    # each solve takes its final or pruning certificate, and each child
    # dropped at expansion was decided by one of its own
    assert stats.certificates >= stats.sdp_solves + stats.child_cert_prunes


def test_complete_optimum_under_time_limit_is_exact():
    # a deadline that cuts an expansion short must not leave a proof behind
    optima = {}
    proved = 0
    for seed in range(20):
        inst = random_instance(20, 120, 2, seed=seed)
        for time_limit in (0.002, 0.005, 0.01, 0.02, 0.05):
            with mock.patch.object(rounding, "ROUNDING_C", 0.2):
                best, status, _ = solve_complete(
                    inst, SolverConfig(seed=seed, time_limit=time_limit))
            if status != OPTIMUM:
                continue
            if seed not in optima:
                optima[seed], _ = brute_force_dense(inst)
            assert best.unsat == optima[seed], (
                f"seed {seed}, time limit {time_limit}")
            proved += 1
    assert proved > 0


def test_every_deadline_exit_under_a_counter_clock():
    """A deadline clock that passes after K checks, for K = 0, 1, ...
    until a run proves: every exit the deadline can take (before the first
    pop, inside a solve, a rounding or an expansion) leaves a checked
    incumbent, K = 0 proves nothing, and the first OPTIMUM is the true one."""
    inst = random_instance(14, 98, 3, seed=3)
    optimum, _ = brute_force(inst)
    checks = [0]

    def past(deadline):
        if deadline is None:
            return False
        checks[0] += 1
        return checks[0] > limit

    with mock.patch.object(sdp, "past", past), \
            mock.patch.object(sdpsat.search, "past", past), \
            mock.patch.object(rounding, "past", past):
        for limit in range(1000):
            checks[0] = 0
            best, status, _ = solve_complete(
                inst, SolverConfig(seed=0, time_limit=1e9))
            assert evaluate(inst, best.assignment) == best.unsat, limit
            if status == OPTIMUM:
                break
        else:
            pytest.fail("no run proved")
    assert limit > 0
    assert best.unsat == optimum


@pytest.mark.parametrize("tol", (0.0, 1e-6))
def test_prunes_is_the_floor(tol):
    """The search's prune test, decide's prune verdict and the floor a
    solve is given are one line: a bound prunes exactly when it is above
    best_unsat - 1 + PRUNE_TOL.  Away from float noise at the floor that is
    the guarded ceiling meeting the incumbent."""
    engine = Searcher(parse_dimacs(TRIANGLE), SolverConfig())
    with mock.patch.object(bounds, "PRUNE_TOL", tol):
        for best in (0, 1, 3, 7, 40):
            engine.best_unsat = best
            floor = engine.floor()
            assert floor == best - 1 + tol
            near = (floor, floor - 1e-9, floor + 1e-9)
            for bound in near + tuple(float(b)
                                      for b in range(best - 3, best + 3)):
                verdict = bound > floor
                assert engine.prunes(bound) == verdict
                assert (decide(math.inf, bound, best)
                        == Decision.PRUNE) == verdict
                if bound != floor:
                    assert (ceil_bound(bound, tol) >= best) == verdict


@st.composite
def small_formulas(draw):
    """n <= 9, clause lengths 0-4 (repeated and opposite literals allowed),
    some clauses repeated verbatim."""
    n = draw(st.integers(0, 9))
    if n == 0:
        clause = st.just([])
    else:
        clause = st.lists(st.integers(1, n).flatmap(
            lambda v: st.sampled_from((v, -v))), max_size=4)
    clauses = draw(st.lists(clause, max_size=24))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=4))
    return instance_from_clauses(n, clauses)


@settings(max_examples=500, deadline=None)
@given(inst=small_formulas(), max_sweeps=st.sampled_from((1, 3, 400)),
       depth_limit=st.integers(1, 10),
       time_limit=st.sampled_from((None, 0.001, 0.005)),
       seed=st.integers(0, 1000))
def test_any_optimum_is_the_true_optimum(inst, max_sweeps, depth_limit,
                                         time_limit, seed):
    engine = Searcher(inst, SolverConfig(seed=seed, time_limit=time_limit))
    with mock.patch.object(sdp, "MAX_SWEEPS", max_sweeps), \
            mock.patch.object(sdpsat.search, "DEPTH_LIMIT", depth_limit):
        status = engine.run()
    optimum, _ = brute_force(inst)
    if engine.best is not None:
        assert engine.best.unsat >= optimum
    if status == OPTIMUM:
        assert engine.best.unsat == optimum


def test_update_best_rejects_miscounted_incumbent(monkeypatch):
    monkeypatch.setattr(sdpsat.search, "evaluate",
                        lambda inst, values: evaluate(inst, values) + 1)
    with pytest.raises(RuntimeError, match="re-evaluation"):
        solve_complete(parse_dimacs(TRIANGLE), SolverConfig(seed=1))


def test_complete_empty_and_trivial_instances():
    best, status, _ = solve_complete(parse_dimacs("p cnf 3 0\n"),
                                     SolverConfig(seed=0))
    assert status == OPTIMUM and best.unsat == 0
    best, status, _ = solve_complete(parse_dimacs("p cnf 0 1\n0"),
                                     SolverConfig(seed=0))
    assert status == OPTIMUM and best.unsat == 1
    best, status, _ = solve_complete(parse_dimacs("p cnf 1 2\n1 0\n-1 0"),
                                     SolverConfig(seed=0))
    assert status == OPTIMUM and best.unsat == 1


def test_incomplete_triangle_first_root_hits_optimum():
    inst = parse_dimacs(TRIANGLE)
    seen = []
    best, stats = solve_incomplete(inst, SolverConfig(seed=3),
                                   emit=lambda inc: seen.append(inc.unsat))
    assert best.unsat == 1
    assert seen[0] == 1  # found at the very first root


def test_incomplete_emissions_strictly_decreasing():
    for seed in range(10):
        inst = random_instance(20, 80, 2, seed=seed + 7)
        seen = []
        solve_incomplete(inst, SolverConfig(seed=seed),
                         emit=lambda inc: seen.append(inc.unsat))
        assert seen, "no incumbent emitted"
        assert all(a > b for a, b in zip(seen, seen[1:]))


def test_incomplete_drained_queue_reaches_oracle():
    for seed in range(15):
        inst = random_instance(14, 56, 2, seed=seed + 90)
        best, _ = solve_incomplete(inst, SolverConfig(seed=seed))
        oracle_best, _ = brute_force(inst)
        assert best.unsat == oracle_best


def test_incomplete_runs_the_complete_search():
    """With no time limit, anytime mode searches the complete mode's tree:
    the same incumbents, final assignment and counters."""
    for seed in range(20):
        n = 12 + seed % 5
        inst = random_instance(n, 5 * n, 2, seed=seed + 300)
        runs = []
        for solver in (solve_complete, solve_incomplete):
            seen = []
            best, *_, stats = solver(inst, SolverConfig(seed=seed),
                                     lambda inc: seen.append(inc.unsat))
            counters = asdict(stats)
            del counters["wall_time"]
            runs.append((best.assignment, best.unsat, seen, counters))
        assert runs[0] == runs[1], f"seed {seed}"


def test_expand_root_bound_saturation_gives_no_children():
    inst = parse_dimacs(TRIANGLE)
    engine = Searcher(inst, SolverConfig(seed=0))
    res = engine.solve_root()
    engine.round_root()
    # incumbent already equals the dual ceiling: every child prunes
    assert engine.best_unsat == math.ceil(res.cert.dual_bound - 1e-6)
    children = engine.expand_root(res, 0)
    assert children == []


def test_expand_root_depth_limit_one(monkeypatch):
    monkeypatch.setattr(sdpsat.search, "DEPTH_LIMIT", 1)
    inst = random_instance(12, 48, 2, seed=13)
    engine = Searcher(inst, SolverConfig(seed=13))
    res = engine.solve_root()
    engine.round_root()
    engine.reorder(res.cert)
    children = engine.expand_root(res, 0)
    assert len(children) <= 2
    for child in children:
        assert len(child.path) == 1
        engine.move_to(child.path)
        assert dense_sdp_check(engine.state, engine.factor).objective \
            >= child.dual - 1e-6


def test_expand_root_partition_when_nothing_prunes(monkeypatch):
    monkeypatch.setattr(sdpsat.search, "DEPTH_LIMIT", 4)
    inst = random_instance(10, 40, 2, seed=17)
    engine = Searcher(inst, SolverConfig(seed=17))
    res = engine.solve_root()
    engine.reorder(res.cert)
    # huge incumbent: nothing prunes, everything expands to the frontier
    engine.best_unsat = 10_000
    children = engine.expand_root(res, 0)
    assert len(children) == 16
    split = {var for child in children for var, _ in child.path}
    assert len(split) == 4
    leaves = {tuple(val for _, val in child.path) for child in children}
    assert len(leaves) == 16  # all sign patterns of the split variables


def test_expansion_prices_children_after_a_dense_solve():
    """A dense solve leaves the z-cache as it was (here all zero) and
    expansion reads none of it, yet every emitted child's dual is at most
    its objective at the solved factor by the dense oracle."""
    inst = random_instance(12, 48, 2, seed=33)
    engine = Searcher(inst, SolverConfig(seed=33))
    res = engine.solve_root()
    assert res.dense and not engine.zcache.z.any()
    engine.round_root()
    engine.reorder(res.cert)
    children = engine.expand_root(res, 0)
    assert children
    assert not engine.zcache.z.any()
    for child in children:
        engine.move_to(child.path)
        assert child.dual <= (
            dense_sdp_check(engine.state, engine.factor).objective + 1e-6)


def test_clipped_loss_matches_dense():
    """The clipped loss at a solved root against the loss formula written
    out on the z-cache's rows."""
    inst = random_instance(12, 48, 2, seed=33)
    engine = Searcher(inst, SolverConfig(seed=33))
    engine.solve_root()
    engine.zcache.rebuild(engine.state, engine.factor)
    z = engine.zcache.z
    expected = engine.state.base_unsat + sum(
        max(0.0, (float(z[j] @ z[j]) - (inst.lengths[j] - 1) ** 2)
            / (4 * inst.lengths[j]))
        for j in np.flatnonzero(engine.state.view().active))
    assert engine.clipped_loss() == pytest.approx(expected, abs=1e-9)


def test_stats_accounting_identity():
    for seed in (0, 4, 9):
        inst = random_instance(14, 56, 2, seed=seed + 30)
        _, status, stats = solve_complete(inst, SolverConfig(seed=seed))
        assert status == OPTIMUM
        assert (stats.nodes_popped
                == stats.pruned_at_pop + stats.sdp_solves + stats.leaf_pops)


def test_determinism_identical_runs():
    inst = random_instance(15, 60, 2, seed=77)
    runs = []
    for _ in range(2):
        seen = []
        best, status, stats = solve_complete(
            inst, SolverConfig(seed=5),
            on_improve=lambda inc: seen.append(inc.unsat))
        runs.append((best.assignment, best.unsat, status, seen,
                     stats.nodes_popped, stats.sdp_solves,
                     stats.sweeps_total, stats.roundings))
    assert runs[0] == runs[1]


def test_move_to_reads_the_trail_after_direct_steps():
    """move_to rewinds along the state's own trail, so it reaches its path
    after steps taken on the state directly: the node then matches one
    reached by move_to alone."""
    inst = random_instance(6, 20, 2, seed=4)
    target = ((1, TRUE), (2, FALSE), (3, TRUE))
    fresh = Searcher(inst, SolverConfig(seed=0))
    fresh.move_to(target)
    for direct in (lambda s, ws: unassign_to(s, ws, 0),
                   lambda s, ws: assign(s, ws, 3, FALSE)):
        engine = Searcher(inst, SolverConfig(seed=0))
        engine.move_to(target[:2])
        direct(engine.state, engine.ws)
        engine.move_to(target)
        state = engine.state
        assert state.path() == target
        assert state.assignment == fresh.state.assignment
        assert state.clause_free == fresh.state.clause_free
        assert state.clause_status == fresh.state.clause_status
        assert state.base_unsat == fresh.state.base_unsat


def test_rank_above_columns_is_clamped():
    """A default rank above n + 1 is capped there: the rank-(n + 1) factor
    already spans the full relaxation.  Here k = n + 1 at n = 1 and 2."""
    for n, clauses in ((1, [[1], [-1]]), (2, [[1, 2], [-1, 2], [-2]])):
        inst = instance_from_clauses(n, clauses)
        engine = Searcher(inst, SolverConfig(seed=0))
        assert engine.factor.k == n + 1
        assert engine.factor.cols.shape == (n + 1, n + 1)
        assert engine.run() == OPTIMUM
        assert engine.best.unsat == brute_force(inst)[0] == 1


def count_expansions(engine) -> list:
    """Wrap the engine's expand_root; the list returned grows by one entry
    per call."""
    calls = []
    real = engine.expand_root

    def expand_root(res, depth, **kwargs):
        calls.append(depth)
        return real(res, depth, **kwargs)

    engine.expand_root = expand_root
    return calls


def dfs_prunes(stats, expansions: int) -> int:
    """The prunes SearchStats counts in the DFS below solved roots: every
    dual prune but those at pop, of a root's own solve (a solved root is
    pruned or expanded when no deadline is set) and of a child's own
    certificate."""
    return (stats.prunes_by_dual - stats.pruned_at_pop
            - stats.child_cert_prunes - (stats.sdp_solves - expansions))


def test_recorded_bounds_sound_on_small_instance():
    """The bound of every decided child, and of every child dropped by its
    own certificate, is at most the child's exact minimum.  Every DFS
    node the stats count as pruned, by its carried cores or otherwise,
    reaches decide, so the records miss none of them."""
    checked = 0
    for seed in range(55, 63):
        inst = random_instance(12, 60, 3, seed=seed)
        records, verdicts = [], []
        engine = Searcher(inst, SolverConfig(seed=seed))
        expansions = count_expansions(engine)
        with record_bounds(engine, records, verdicts):
            status = engine.run()
        assert status == OPTIMUM
        assert verdicts.count(Decision.PRUNE) == dfs_prunes(
            engine.stats, len(expansions))
        for path, dual in records[:50]:
            values = [0] * 13
            values[0] = 1
            for var, val in path:
                values[var] = val
            assert math.ceil(dual - 1e-6) <= min_unsat_completion(inst, values)
            checked += 1
    assert checked >= 100


def test_walks_run_only_where_cheaper_stages_do_not_prune():
    """Each decided DFS node is priced cheapest first.  ShiftLedger.apply
    runs at no leaf and at no node that base_unsat plus its carried cores
    prunes (only those count in dfs_core_prunes, unless base_unsat alone
    prunes), and LossTracker.move only at nodes whose dual does not
    prune; the walk counts equal the matching verdict counts."""
    totals = dict.fromkeys(("decided", "apply", "move", "solved"), 0)
    for seed in range(6):
        inst = random_instance(14, 98, 3, seed)
        engine = Searcher(inst, SolverConfig(seed=0))
        expansions = count_expansions(engine)
        walks = []  # (walk, path, free count, bound) since the last decide
        nodes = []  # ({walk: bound}, dual, verdict, base_unsat, floor)
        real_apply = bounds.ShiftLedger.apply
        real_move = bounds.LossTracker.move
        real_decide = sdpsat.search.decide

        def apply(ledger, state, var, value, moved):
            real_apply(ledger, state, var, value, moved)
            walks.append(("apply", state.path(), state.free_count,
                          ledger.dual_bound()))

        def move(tracker, state, moved):
            walks.append(("move", state.path(), state.free_count, None))
            return real_move(tracker, state, moved)

        def decide(primal, dual, best_known):
            verdict = real_decide(primal, dual, best_known)
            state = engine.state
            # a walk at a leaf would be charged to the next decided node
            assert all(path == state.path() and free > 0
                       for _, path, free, _ in walks)
            nodes.append(({name: bound for name, _, _, bound in walks},
                          dual, verdict, state.base_unsat,
                          bounds.prune_floor(best_known)))
            walks.clear()
            return verdict

        with mock.patch.object(bounds.ShiftLedger, "apply", apply), \
                mock.patch.object(bounds.LossTracker, "move", move), \
                mock.patch.object(sdpsat.search, "decide", decide):
            assert engine.run() == OPTIMUM
        assert walks == []
        by_cores = by_base = 0
        for walked, dual, verdict, base, floor in nodes:
            pruned = verdict == Decision.PRUNE
            assert ("move" in walked) == (not pruned)
            if "apply" in walked:
                # the dual beyond the ledger's is base_unsat plus the
                # cores, which did not prune
                assert dual == walked["apply"] or dual <= floor
            else:
                assert pruned and "move" not in walked
                assert dual == int(dual) > floor
                by_cores += 1
                by_base += base > floor
        verdicts = [verdict for _, _, verdict, _, _ in nodes]
        stats = engine.stats
        assert by_cores == stats.dfs_core_prunes + by_base
        assert verdicts.count(Decision.PRUNE) == dfs_prunes(
            stats, len(expansions))
        totals["decided"] += len(nodes)
        totals["apply"] += sum("apply" in walked for walked, *_ in nodes)
        totals["move"] += sum("move" in walked for walked, *_ in nodes)
        totals["solved"] += len(nodes) - verdicts.count(Decision.PRUNE)
    assert totals["move"] == totals["solved"]
    assert 0 < totals["move"] <= totals["apply"] < totals["decided"]


@settings(max_examples=1000, deadline=None)
@given(inst=small_formulas(), max_sweeps=st.sampled_from((1, 3, 400)),
       depth_limit=st.integers(1, 10), seed=st.integers(0, 99),
       data=st.data())
def test_children_dropped_by_own_certificate_are_sound(
        inst, max_sweeps, depth_limit, seed, data):
    """Every child that expansion drops by its own certificate, in a search
    started from a random incumbent count, has a certificate that is PSD by
    the dense probe without tolerance, that passes the prune test, and whose
    ceiling is at most the child's exact minimum; each of them was decided
    (by bounds.decide) before it was tested."""
    decided = set()
    engine = Searcher(inst, SolverConfig(seed=seed))
    engine.best_unsat = data.draw(st.integers(
        0, inst.num_clauses + inst.empty_count + 1))
    dropped = []
    real = sdpsat.search.pruning_certificate
    real_decide = sdpsat.search.decide

    def recorded_decide(primal, dual, best_known):
        decided.add(engine.state.path())
        return real_decide(primal, dual, best_known)

    def audited(cost, factor, floor):
        cert = real(cost, factor, floor)
        if cert is not None:
            state = engine.state
            dropped.append((engine.state.path(), cert.dual_bound,
                            engine.best_unsat,
                            dense_sdp_check(state, lam=cert.lam).min_eig,
                            min_unsat_completion(inst, state.assignment)))
        return cert

    with mock.patch.multiple(sdpsat.search, pruning_certificate=audited,
                             decide=recorded_decide,
                             DEPTH_LIMIT=depth_limit), \
            mock.patch.object(sdp, "MAX_SWEEPS", max_sweeps):
        engine.run()
    assert len(dropped) == engine.stats.child_cert_prunes
    for path, bound, best_unsat, min_eig, exact in dropped:
        assert min_eig >= 0.0
        assert ceil_bound(bound) >= best_unsat
        assert ceil_bound(bound) <= exact
        assert path in decided
