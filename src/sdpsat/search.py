"""Branch-and-bound driver over relaxation roots.

One depth-first search serves both modes: the root queue is a stack, and
a run is a proof exactly when its stack drains: work the deadline cuts
short stays on it (Searcher.run).  Complete mode returns that status;
incomplete (anytime) mode runs the same search, reports every incumbent
improvement as it happens, and claims no proof.  Each popped root is
solved by sweeps from the factor the previous solve left (in DFS order
mostly its parent's), rounded, and then
expanded by one depth-limited DFS whose interior nodes are priced with the
warm-started bound pair: prune on the dual ceiling, recurse on a primal that
already ties the incumbent, and emit everything else as a new root.  The
dual side is the highest of the ledger's bound, the node's falsified-clause
count (base_unsat) and base_unsat plus the node's disjoint
unit-propagation cores (bounds.up_cores): the falsified clauses are unsat
in every completion, and so is a clause of each core.  A popped root is
priced by base_unsat plus its cores once, before its solve, and a root
whose count meets the incumbent is pruned unsolved.  Otherwise its cores
are carried down the DFS below it (bounds.carry_step), with the new unit
clauses of its steps pending.  The pending units are propagated, outside
the carried cores, only when there are at least as many as the cores a
prune still lacks (each core holds its own unit, so fewer cannot prune),
and are then cleared.  A child about to be emitted whose warm-started
objective already meets the incumbent is first decided by its own
certificate, taken from the parent's factor and the child's cost matrix
exactly as a solve takes one between sweeps; when it prunes, the child is
dropped instead of being queued, replayed and re-solved.
The child's cost matrix is derived from the one its root's solve built
(ShiftLedger.child_cost), never rebuilt.  Every DFS step costs O(clauses it
moves) in scalar steps, plus a propagation only where one could prune.
The walkers that decode a step live in bounds (ShiftLedger prices its
dual side, LossTracker its primal side, carry_step its cores), and this
module only stages them; neither a step nor a solve reads the z-cache.  A
node is priced in stages, cheapest first, and the first stage that
prunes ends its pricing: a leaf (no free variable) only updates the
incumbent; any other node is first priced by base_unsat plus its carried
cores, then, only if that does not prune, by the ledger's walk (the dual
is the higher of the two), and only if that does not prune either by the
tracker's walk, whose primal decides between expanding and emitting.  A
walk is reverted only where it ran.  Every decided node, pruned at any
stage, reaches bounds.decide once.

Every prune compares a bound with one number, the floor best_unsat - 1 +
PRUNE_TOL (bounds.prune_floor).  A prune decided by a certificate is
verified by one Cholesky (sdp.pruning_certificate); only the final
certificate of a root solve that neither pruned nor hit the deadline is
eigen-repaired, because it seeds the ShiftLedger that prices the root's
children.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (Decision, LossTracker, ShiftLedger, carry_step, decide,
                     prune_floor, up_cores)
from .config import SolverConfig
from .instance import (FREE, TRUE, Instance, NodeState, WatchedStack,
                       assign, evaluate, unassign_to)
from .rounding import best_rounding, rounding_budget
from .sdp import (ZCache, active_losses, default_rank, init_factor, past,
                  pruning_certificate, solve)

# free variables split below each solved root (expand_root); read at call
# time, so tests can patch it
DEPTH_LIMIT = 8

OPTIMUM = "OPTIMUM"
TIMEOUT = "TIMEOUT"

COMPLETE = "complete"
INCOMPLETE = "incomplete"


@dataclass(frozen=True, slots=True)
class SearchNode:
    """Stack entry: assignment path from the original root plus its dual
    bound (at least the node's falsified-clause count).

    The path, read off the trail (NodeState.path), is kept as the expanded
    root's path, one tuple shared by all of that root's children, and the
    DFS steps below it, so a stacked node holds only its own few steps."""

    root_path: tuple
    steps: tuple
    dual: float

    @property
    def path(self) -> tuple:
        return self.root_path + self.steps


@dataclass(frozen=True)
class Incumbent:
    assignment: tuple
    unsat: int
    found_at: float


@dataclass
class SearchStats:
    nodes_popped: int = 0
    sdp_solves: int = 0
    # solves swept on the node's cost matrix (sdp.dense_sweep)
    dense_solves: int = 0
    sweeps_total: int = 0
    prunes_by_dual: int = 0
    expands_by_primal: int = 0
    pruned_at_pop: int = 0
    leaf_pops: int = 0
    # solves ended by a pruning certificate before convergence
    early_prunes: int = 0
    # children dropped at expansion by their own certificate
    child_cert_prunes: int = 0
    # popped roots pruned by unit-propagation cores before their solve
    up_core_prunes: int = 0
    # decided DFS nodes pruned by base_unsat plus their carried cores, the
    # first pricing stage, where base_unsat alone would not prune
    dfs_core_prunes: int = 0
    # certificates taken, in solves and at expansion
    certificates: int = 0
    roundings: int = 0
    wall_time: float = 0.0


class Searcher:
    """Single-owner engine: one state, one factor workspace, one stack."""

    def __init__(self, instance: Instance, config: SolverConfig, emit=None):
        self.inst = instance
        self.cfg = config
        self.emit = emit
        n = instance.num_vars
        # a rank-(n+1) factor already spans the full relaxation
        k = min(default_rank(max(n, 1)), max(2, n + 1))
        self.rng = np.random.default_rng(config.seed)
        self.state = NodeState(instance)
        self.ws = WatchedStack()
        self.factor = init_factor(n, k, self.rng)
        self.zcache = ZCache(instance, k)
        self.order = list(range(1, n + 1))
        self.best: Incumbent | None = None
        self.best_unsat = instance.num_clauses + instance.empty_count + 1
        self.stats = SearchStats()
        self.t0 = time.monotonic()
        self.deadline = (None if config.time_limit is None
                         else self.t0 + config.time_limit)

    # -- plumbing ----------------------------------------------------------

    def floor(self) -> float:
        """The prune line under the current incumbent."""
        return prune_floor(self.best_unsat)

    def prunes(self, bound: float) -> bool:
        """The dual prune test: the bound is above the floor."""
        return bound > self.floor()

    def move_to(self, path) -> None:
        """Rewind to the trail's longest prefix on `path`, assign the rest."""
        common = 0
        for ours, theirs in zip(self.state.path(), path):
            if ours != theirs:
                break
            common += 1
        unassign_to(self.state, self.ws, common)
        for var, value in path[common:]:
            assign(self.state, self.ws, var, value)

    def update_best(self, values, unsat: int) -> None:
        if unsat >= self.best_unsat:
            return
        if evaluate(self.inst, values) != unsat:
            raise RuntimeError("incumbent failed re-evaluation")
        self.best_unsat = unsat
        self.best = Incumbent(tuple(values), unsat,
                              time.monotonic() - self.t0)
        if self.emit is not None:
            self.emit(self.best)

    def clipped_loss(self) -> float:
        """base_unsat plus the positive active losses, summed from scratch
        on the z-cache, which no solve keeps (always rebuild it first).
        No search step calls it: it is a perfbench hook (tracing.py wraps
        it, layers.py times it) with no live counterpart until the harness
        times the paths the solver runs (ROADMAP Direction 1)."""
        losses = active_losses(self.state, self.zcache)
        positive = losses[losses > 0.0].tolist()
        return self.state.base_unsat + math.fsum(positive)

    # -- per-root work -----------------------------------------------------

    def solve_root(self):
        res = solve(self.state, self.factor, self.zcache, order=self.order,
                    deadline=self.deadline, floor=self.floor())
        self.stats.sdp_solves += 1
        self.stats.dense_solves += res.dense
        self.stats.sweeps_total += res.sweeps_used
        self.stats.early_prunes += res.pruned
        self.stats.certificates += res.certificates
        return res

    def round_root(self) -> None:
        # past the deadline one trial is enough for an incumbent to report
        budget = (1 if past(self.deadline) else
                  rounding_budget(self.state.free_count))
        values, unsat, trials = best_rounding(self.factor, self.state,
                                              budget, self.rng, self.deadline)
        self.stats.roundings += trials
        self.update_best(values, unsat)

    def reorder(self, cert) -> None:
        """Resolution order: free variables by descending multiplier."""
        lam = cert.lam
        free = self.state.free_vars()
        free.sort(key=lambda v: (-lam[v], v))
        assigned = [v for v in self.order
                    if self.state.assignment[v] != FREE]
        self.order = free + assigned

    def expand_root(self, res, node_depth: int,
                    cores=()) -> list[SearchNode]:
        """Depth-limited DFS below the solved root, which has a free variable.

        Branches over the top DEPTH_LIMIT free variables in resolution order,
        trying the incumbent's value first.  Interior children are priced by
        the warm-started bound pair; the frontier (depth limit, or a SOLVE
        decision) emits queue nodes, and fully assigned leaves update the
        incumbent directly.  A frontier child whose objective passes the
        prune test is first tested by its own certificate (no certificate's
        bound exceeds the objective, so no other child can prune) and
        dropped if that prunes; its cost matrix is derived from the root's
        (`res.cost`) by the ledger.

        The ledger and a LossTracker seeded here from the solved factor
        walk each step, and `cores`, the root's unit-propagation cores from
        its pop, are carried down the DFS, staged cheapest first as the
        module doc says.  The children come back in search order;
        the caller pushes them so the first is popped first.  A deadline
        that stops the DFS with branches left emits the node where it
        stopped; each ancestor with a branch left then emits itself as
        well.  `node_depth` is ignored: perfbench/layers.py still passes
        one."""
        state, ws = self.state, self.ws
        ledger = ShiftLedger(res.cert)
        losses = LossTracker(state, self.factor)
        root_path = state.path()
        split_vars = [v for v in self.order
                      if state.assignment[v] == FREE][:DEPTH_LIMIT]
        children: list[SearchNode] = []
        prefer = self.best.assignment if self.best is not None else None

        def emit_child(dual: float) -> None:
            if self.prunes(losses.objective) and not past(self.deadline):
                self.stats.certificates += 1
                cert = pruning_certificate(
                    ledger.child_cost(res.cost, state), self.factor,
                    self.floor())
                if cert is not None:
                    self.stats.prunes_by_dual += 1
                    self.stats.child_cert_prunes += 1
                    return
            children.append(SearchNode(
                root_path=root_path, steps=state.path(len(root_path)),
                dual=dual))

        def carry_cores(moved, cores: list, units: list):
            """The cores and pending units one step down (module doc)."""
            cores, units = carry_step(state, moved, cores, units)
            missing = self.best_unsat - state.base_unsat - len(cores)
            if 0 < missing <= len(units):
                cores = cores + up_cores(
                    state, units=units,
                    taken=[j for core in cores for j in core])
                units = []
            return cores, units

        def descend(depth: int, cores: list, units: list) -> None:
            # cores: disjoint UP cores of the node, outside its base_unsat;
            # units: its unit clauses not yet propagated outside the cores
            var = split_vars[depth]
            first = int(prefer[var]) if prefer is not None else TRUE
            for value in (first, -first):
                if past(self.deadline):
                    emit_child(max(ledger.dual_bound(),
                                   state.base_unsat + len(cores)))
                    return
                moved = assign(state, ws, var, value)
                if state.free_count == 0:
                    self.update_best(list(state.assignment), state.base_unsat)
                else:
                    # priced cheapest first, each walk only where the bound so
                    # far does not prune: base_unsat plus the carried cores,
                    # then the ledger, then the tracker's primal, which decide
                    # reads only where the dual does not prune
                    kept, pending = carry_cores(moved, cores, units)
                    floor = self.floor()
                    dual = state.base_unsat + len(kept)
                    primal = math.inf
                    core_pruned = dual > floor
                    if not core_pruned:
                        ledger.apply(state, var, value, moved)
                        dual = max(ledger.dual_bound(), dual)
                        if dual <= floor:
                            losses.move(state, moved)
                            primal = losses.objective
                    verdict = decide(primal, dual, self.best_unsat)
                    if verdict == Decision.PRUNE:
                        self.stats.prunes_by_dual += 1
                        self.stats.dfs_core_prunes += (
                            core_pruned and state.base_unsat <= floor)
                    elif (verdict == Decision.EXPAND
                          and depth + 1 < len(split_vars)):
                        self.stats.expands_by_primal += 1
                        descend(depth + 1, kept, pending)
                    else:
                        emit_child(dual)
                    if verdict != Decision.PRUNE:
                        losses.revert()
                    if not core_pruned:
                        ledger.revert()
                unassign_to(state, ws, len(state.trail) - 1)

        descend(0, list(cores), [])
        return children

    # -- driver ------------------------------------------------------------

    def process_root(self, node: SearchNode) -> list[SearchNode]:
        """Pop-time handling of one root; returns its children to push."""
        stats = self.stats
        stats.nodes_popped += 1
        if self.prunes(node.dual):
            stats.pruned_at_pop += 1
            stats.prunes_by_dual += 1
            return []
        self.move_to(node.path)
        if self.state.free_count == 0:
            stats.leaf_pops += 1
            self.update_best(list(self.state.assignment),
                             self.state.base_unsat)
            return []
        base = self.state.base_unsat
        cores = up_cores(self.state, self.best_unsat - base)
        if self.prunes(base + len(cores)):
            stats.up_core_prunes += 1
            stats.pruned_at_pop += 1
            stats.prunes_by_dual += 1
            return []
        res = self.solve_root()
        if past(self.deadline):
            # the solve may have taken no certificate: the root stays undone
            return [node]
        # the test after the rounding also catches a rounding that attains
        # the dual ceiling
        if not self.prunes(res.dual_bound):
            self.round_root()
        if self.prunes(res.dual_bound):
            stats.prunes_by_dual += 1
            return []
        self.reorder(res.cert)
        return self.expand_root(res, 0, cores=cores)

    def run(self) -> str:
        """The DFS over the root stack, until it drains or the deadline.

        A drained stack is a proof: work the deadline cut short (a solve
        that ran past it, an expansion it stopped with branches left) stays
        on the stack, so a run it ends leaves nodes there.  Work that merely
        ends after the deadline, such as the last rounding or prune, leaves
        the proof whole.  A run that ends with no incumbent rounds the
        current node once (one trial) only to have one to report."""
        stack = [SearchNode((), (), 0.0)]
        while stack and not past(self.deadline):
            stack.extend(reversed(self.process_root(stack.pop())))
        if stack and self.best is None:
            self.round_root()
        self.stats.wall_time = time.monotonic() - self.t0
        return TIMEOUT if stack else OPTIMUM


def solve_complete(instance: Instance, config: SolverConfig | None = None,
                   on_improve=None):
    """DFS to a proved optimum (or the best incumbent at the time limit)."""
    engine = Searcher(instance, config or SolverConfig(), emit=on_improve)
    status = engine.run()
    return engine.best, status, engine.stats


def solve_incomplete(instance: Instance, config: SolverConfig | None = None,
                     emit=None):
    """Anytime mode: the same search, stopped at the time limit with no
    proof claimed; emit fires on every incumbent improvement."""
    best, _, stats = solve_complete(instance, config, on_improve=emit)
    return best, stats
