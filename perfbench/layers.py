"""Isolated layer timings on fixed node states of one workload formula.

Two node states are timed: the root, and a state DEEP assignments below it
along the resolution order (values from the root's rounding).  Each state is
settled by STATE_SWEEPS sweeps and its caches are warm before any timing.
Every figure is a median over timing batches, normalized to its unit
of work; figures from both states are pooled as total time over total work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sdpsat import sdp
from sdpsat.bounds import ShiftLedger
from sdpsat.config import SolverConfig
from sdpsat.instance import ACTIVE, FREE, TRUE, assign, parse_dimacs, unassign_to
from sdpsat.rounding import best_rounding
from sdpsat.search import INCOMPLETE, Searcher

STATE_SWEEPS = 10
DEEP = 4
SPLITS = 8
ROUNDING_TRIALS = 8
BATCH_S = 0.01
BATCHES = 5
SLOW_S = 0.05
SLOW_BATCHES = 3
VERY_SLOW_S = 0.3


def per_call(fn, counter=None):
    """Median seconds per call over batches of at least BATCH_S each.

    The first call is an untimed warm-up.  Calls slower than SLOW_S get
    SLOW_BATCHES single-call batches, calls slower than VERY_SLOW_S a single
    timed call.  With `counter`, a function returning a
    running work count, returns (seconds, work per timed call) instead.
    """
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    reps = max(1, int(BATCH_S / max(once, 1e-9)))
    batches = (BATCHES if once < SLOW_S else
               SLOW_BATCHES if once < VERY_SLOW_S else 1)
    work = counter() if counter else 0
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    median = statistics.median(samples)
    if counter is None:
        return median
    return median, (counter() - work) / (batches * reps)


def _active_work(state):
    """(active clauses, free literal occurrences in active clauses)."""
    clauses = nnz = 0
    assignment = state.assignment
    for j, clause in enumerate(state.instance.clauses):
        if state.clause_status[j] != ACTIVE:
            continue
        clauses += 1
        nnz += sum(1 for lit in clause.lits if assignment[abs(lit)] == FREE)
    return clauses, nnz


class _Pooled:
    """Accumulates (seconds, units) per metric across node states."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.units: dict[str, float] = {}

    def add(self, name: str, seconds: float, units: float = 1.0) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.units[name] = self.units.get(name, 0.0) + units

    def rate(self, name: str, scale: float = 1.0) -> float:
        return scale * self.seconds[name] / max(self.units[name], 1.0)


def _settle(engine: Searcher, path):
    engine.move_to(path)
    engine.zcache.rebuild(engine.state, engine.factor)
    return sdp.solve(engine.state, engine.factor, engine.zcache,
                     eps=engine.cfg.eps, max_sweeps=STATE_SWEEPS,
                     order=engine.order)


def _time_state(engine: Searcher, pooled: _Pooled, root: bool) -> None:
    state, ws, factor, zc = engine.state, engine.ws, engine.factor, engine.zcache
    inst = engine.inst
    clauses, nnz = _active_work(state)
    k = factor.k

    pooled.add("objective", per_call(
        lambda: sdp.objective(state, factor, zc)), clauses)
    pooled.add("sweep", per_call(
        lambda: sdp.mixing_sweep(state, factor, zc, engine.order)), nnz * k)
    pooled.add("rebuild", per_call(lambda: zc.rebuild(state, factor)),
               inst.nnz)
    pooled.add("clipped_loss", per_call(engine.clipped_loss))
    rng = np.random.default_rng(0)
    pooled.add("rounding", per_call(
        lambda: best_rounding(factor, state, ROUNDING_TRIALS, rng)),
        ROUNDING_TRIALS * nnz)
    if root:
        pooled.add("cert_raw", per_call(
            lambda: sdp.dual_from_primal(state, factor, zc, repair=False)))
        pooled.add("cert_repaired", per_call(
            lambda: sdp.dual_from_primal(state, factor, zc, repair=True)))

    # one sweep plus certificate, as the search hands a root to expansion
    res = sdp.solve(state, factor, zc, eps=engine.cfg.eps, max_sweeps=1,
                    order=engine.order)
    stats = engine.stats
    emitted = [0]

    def expand():
        emitted[0] += len(engine.expand_root(res, 0))

    # children priced: pruned, expanded further, or emitted as roots
    pooled.add("expand", *per_call(expand, lambda: (
        stats.prunes_by_dual + stats.expands_by_primal + emitted[0])))

    splits = [v for v in engine.order if state.assignment[v] == FREE][:SPLITS]
    ledger = ShiftLedger(res.cert)
    for var in splits:
        moved = assign(state, ws, var, TRUE)

        def apply_revert():
            ledger.apply(state, var, TRUE, moved)
            ledger.revert()

        pooled.add("ledger", per_call(apply_revert))
        unassign_to(state, ws, len(state.trail) - 1)

    mark = state.mark()

    def assign_undo():
        for var in splits:
            assign(state, ws, var, TRUE)
        unassign_to(state, ws, mark)

    pooled.add("assign_undo", *per_call(assign_undo,
                                        lambda: ws.touch_count))


def isolated(text: str, anytime: bool) -> dict:
    """Per-layer costs of one formula, keyed by per-layer metric name."""
    inst = parse_dimacs(text)
    num_lits = sum(len(c.lits) for c in inst.clauses)
    parse_s = per_call(lambda: parse_dimacs(text))

    engine = Searcher(inst, SolverConfig(seed=0))
    if anytime:
        engine.mode = INCOMPLETE
    pooled = _Pooled()
    res = _settle(engine, ())
    engine.round_root()
    engine.reorder(res.cert)
    deep = tuple((v, int(engine.best.assignment[v]))
                 for v in engine.order[:DEEP])
    _time_state(engine, pooled, root=True)

    pooled.add("move_to", per_call(
        lambda: (engine.move_to(deep), engine.move_to(()))), 2)

    _settle(engine, deep)
    _time_state(engine, pooled, root=False)

    return {
        "sdp.sweep_ns_per_nnzk": pooled.rate("sweep", 1e9),
        "sdp.objective_ns_per_clause": pooled.rate("objective", 1e9),
        "sdp.cert_raw_s": pooled.rate("cert_raw"),
        "sdp.cert_repaired_s": pooled.rate("cert_repaired"),
        "sdp.zcache_rebuild_ns_per_nnz": pooled.rate("rebuild", 1e9),
        "search.expand_s_per_child": pooled.rate("expand"),
        "search.move_to_s": pooled.rate("move_to"),
        "search.clipped_loss_s": pooled.rate("clipped_loss"),
        "bounds.ledger_ns_per_assign": pooled.rate("ledger", 1e9),
        "instance.assign_undo_ns_per_touch": pooled.rate("assign_undo", 1e9),
        "instance.parse_ns_per_lit": 1e9 * parse_s / max(num_lits, 1),
        "rounding.trial_ns_per_nnz": pooled.rate("rounding", 1e9),
    }
