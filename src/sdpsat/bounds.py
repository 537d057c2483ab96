"""Expand/prune bounds for subproblems, warm-started from a solved parent,
and every walker that decodes a DFS step (instance.assign's transition
list): ShiftLedger, LossTracker and carry_step.  Outside this module only
the z-form reference sdp.ZCache.assign_update reads one.

Primal side: the parent's free columns are already feasible for the child, so
the child objective after the coefficient moves is an upper bound on the
child's relaxation optimum, which a LossTracker keeps along a DFS path.

Dual side: assigning variables moves clause coefficients in the truth
row/column of the cost matrix (entries delta_i per free column i) and
changes free-free pair coefficients.  Each active clause is priced at its
current length L' (see sdp); NodeState.price tabulates, per clause length
L and free count f, its truth coefficient t, its weight w and its share
of the bound's offset.  One rule covers every transition: a moved clause
goes from f + 1 free literals to f, so its price goes from price[L][f + 1]
to price[L][f] while it stays active and to zero once it leaves, and the
step adds the difference: s_i (t'w' - t w) to the truth-row entry of each
free column i, s_a s_b (w' - w) to each free pair when f >= 2, and
share' - share to the offset (plus 1, its loss, for a falsified
clause).

Shifting the parent multipliers by

    xi_0 = ||delta||_1,   xi_i = |delta_i| + eta_i,
    eta_i = sum of |change| over the changed pairs holding column i,

i.e. (f - 1)|w' - w| per moved clause with f >= 2 free literals
containing i, adds a diagonally dominant (hence PSD) matrix on top of the
change, so the shifted certificate stays feasible for the child without a
new solve.  The same moves give the child's cost matrix itself: the root's
on the child's columns, plus delta in the truth row and column, plus the
recorded signed pair changes (ShiftLedger.child_cost).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from itertools import combinations

import numpy as np

from .instance import ACTIVE, FALSIFIED, FREE, NodeState
from .sdp import DualCert, Factor, NodeCost, pair_matrix


# guard against float noise at integer boundaries in the prune tests
PRUNE_TOL = 1e-6


class Decision(Enum):
    PRUNE = "prune"
    EXPAND = "expand"
    SOLVE = "solve"


def prune_floor(best_known: int) -> float:
    """The prune line: a lower bound above it has a ceiling (guarded by
    PRUNE_TOL) that meets the incumbent, so the node cannot improve on
    it."""
    return best_known - 1 + PRUNE_TOL


def decide(primal: float, dual: float, best_known: int) -> Decision:
    """Prune if the dual is above the prune floor; expand while the primal
    shows the subtree cannot be pruned by its own solve; otherwise solve.
    The primal test allows PRUNE_TOL too, so a primal that ties the
    incumbent up to rounding expands however it was summed."""
    if dual > prune_floor(best_known):
        return Decision.PRUNE
    if primal <= best_known + PRUNE_TOL:
        return Decision.EXPAND
    return Decision.SOLVE


class ShiftLedger:
    """Running xi-shift accounting along a DFS path below one solved root.

    lam is the root's multipliers with the assigned columns zeroed; delta and
    eta are the accumulated shift terms per column.  All three are Python
    lists with running sums, so dual_bound is O(1).  apply makes one pass
    over the clauses an assignment moved, in scalar steps, and saves the
    sums, the assigned column's lam and, per column it touches, the
    (column, delta, eta) it overwrites, so revert is exact.  It also
    records each free-free pair change (a, b, signed change) of a moved
    clause with two or more literals free, which child_cost adds.
    cert_snapshot materializes the shifted certificate; child_cost derives
    the child's cost matrix.
    """

    __slots__ = ("lam", "delta", "eta", "lam_sum", "abs_delta_sum",
                 "eta_sum", "offset", "pairs", "_undo")

    def __init__(self, cert: DualCert):
        self.lam = cert.lam.tolist()
        self.delta = [0.0] * len(self.lam)
        self.eta = [0.0] * len(self.lam)
        self.lam_sum = float(cert.lam.sum())
        self.abs_delta_sum = 0.0
        self.eta_sum = 0.0
        self.offset = cert.offset
        self.pairs: list[tuple[int, int, float]] = []
        self._undo: list = []

    def apply(self, state: NodeState, var: int, value: int, moved) -> None:
        """Account for one assignment (state already updated; `moved` is
        instance.assign's transition list).  `value` is ignored: the state
        holds it; the parameter stays for callers that pass it.

        Each moved clause had f + 1 free literals and has f = clause_free
        now.  Its old price is state.price[L][f + 1] and its new one
        price[L][f] while it is still active, zero once it left
        (price[L][0]); the step adds the difference: share' - share to the
        offset (plus 1 for a falsified clause), s (tw' - tw) to the
        truth-row entry of each free column and, with f >= 2 free,
        s_a s_b (w' - w) to each free pair, with eta (f - 1)|w' - w| on
        each of their columns.
        """
        lam, delta, eta = self.lam, self.delta, self.eta
        assignment, clause_free = state.assignment, state.clause_free
        clause_lits, price = state.clause_lits, state.price
        pairs = self.pairs
        saved = [(var, delta[var], eta[var])]
        save = saved.append
        self._undo.append((saved, lam[var], len(pairs), self.lam_sum,
                           self.abs_delta_sum, self.eta_sum, self.offset))
        lam_sum = self.lam_sum - lam[var]
        abs_sum = self.abs_delta_sum - abs(delta[var])
        eta_sum = self.eta_sum - eta[var]
        lam[var] = delta[var] = eta[var] = 0.0
        d_offset = 0.0
        for j, new_status in moved:
            lits = clause_lits[j]
            f = clause_free[j]
            row = price[len(lits)]
            _, _, w, tw, share, _ = row[f + 1]
            _, _, w_new, tw_new, share_new, _ = row[
                f if new_status == ACTIVE else 0]
            d_offset += share_new - share + (new_status == FALSIFIED)
            truth = tw_new - tw
            if f >= 2:
                pair = w_new - w
                # |pair| on both ends of each of a column's f - 1 pairs
                e = (f - 1) * abs(pair)
                eta_sum += f * e
                free = []
            for lit in lits:
                v = abs(lit)
                if assignment[v] != FREE:
                    continue
                old = delta[v]
                save((v, old, eta[v]))
                new = old + truth if lit > 0 else old - truth
                delta[v] = new
                abs_sum += abs(new) - abs(old)
                if f >= 2:
                    eta[v] += e
                    free.append(lit)
            if f == 2:
                a, b = free
                pairs.append((abs(a), abs(b),
                              pair if (a > 0) == (b > 0) else -pair))
            elif f > 2:
                pairs += [(abs(a), abs(b),
                           pair if (a > 0) == (b > 0) else -pair)
                          for a, b in combinations(free, 2)]
        self.lam_sum = lam_sum
        self.abs_delta_sum = abs_sum
        self.eta_sum = eta_sum
        self.offset += d_offset

    def revert(self) -> None:
        (saved, lam_var, num_pairs, self.lam_sum, self.abs_delta_sum,
         self.eta_sum, self.offset) = self._undo.pop()
        delta, eta = self.delta, self.eta
        for v, old_delta, old_eta in reversed(saved):
            delta[v] = old_delta
            eta[v] = old_eta
        self.lam[saved[0][0]] = lam_var
        del self.pairs[num_pairs:]

    def dual_bound(self) -> float:
        return (-(self.lam_sum + 2.0 * self.abs_delta_sum + self.eta_sum)
                + self.offset)

    def cert_snapshot(self) -> DualCert:
        """Materialize the current shifted certificate."""
        abs_delta = np.abs(self.delta)
        lam = np.array(self.lam) + abs_delta + np.array(self.eta)
        lam[0] += abs_delta.sum()
        return DualCert(lam=lam, offset=self.offset)

    def child_cost(self, root: NodeCost, state: NodeState) -> NodeCost:
        """The cost matrix of the node at the end of the path, derived from
        the root's (`root`, the sdp.node_cost of the solved root) instead of
        built from scratch: its submatrix on the node's columns, with delta
        added to the truth row and column, plus the recorded pair changes
        whose two columns are both still free (a clause falsified on the
        path has no free column left).  The columns keep the root's order
        and the matrix stays exactly symmetric (see sdp.pair_matrix);
        `root` is left untouched.
        """
        columns = state.column_mask()
        keep = np.flatnonzero(columns[root.index])
        index = root.index[keep]
        matrix = root.matrix.take(keep, axis=0).take(keep, axis=1)
        moves = np.array(self.delta)[index[1:]]
        matrix[0, 1:] += moves
        matrix[1:, 0] += moves
        assignment = state.assignment
        changed = [pair for pair in self.pairs
                   if assignment[pair[0]] == FREE
                   and assignment[pair[1]] == FREE]
        if changed:
            a, b, value = (np.array(column) for column in zip(*changed))
            pos = np.empty(len(columns), dtype=np.intp)
            pos[index] = np.arange(len(index))
            matrix += pair_matrix(pos[a], pos[b], value, len(index))
        return NodeCost(index, matrix, self.offset, root.entry_error)


@cache
def clause_pairs(length: int) -> tuple:
    """The entry pairs (p, q) of a clause of `length` literals, entry 0
    being its truth entry, in the literal table's pair order."""
    return tuple(combinations(range(length + 1), 2))


class LossTracker:
    """Active-clause losses along a DFS path below one solved root.

    ||z_j||^2 expands into the squared coefficients of the clause's live
    entries (every column has unit norm) plus twice the coefficient-weighted
    dot products of its live pairs, so the loss is (base + 2 cross) w with
    base and w from the clause's price row.  The tracker takes the
    factor's dot product over every pair of the literal table that is live
    at the root (truth pairs included) in one vectorized pass; an
    assignment only kills entries, so no other pair is read below the root.
    move() then reprices each moved clause from its L(L+1)/2 pairs and its
    entry of NodeState.price in scalar steps, and keeps the objective
    (base_unsat plus the active losses) running; revert() restores it
    exactly.  `losses[j]` is meaningful only while clause j is active.  The
    factor's columns must stay as they were at the seed, as in an expansion.
    """

    __slots__ = ("dots", "losses", "objective", "_undo")

    def __init__(self, state: NodeState, factor: Factor):
        a, b = state.pair_a, state.pair_b
        active, _, live, price, coeff = state.view()
        _, _, weight, _, _, base = price.T
        coeff = np.where(live, coeff, 0.0)
        V = factor.cols
        dots = np.zeros(len(a))
        pairs = np.flatnonzero(live[a] & live[b])
        # take gathers rows at about a third of the cost of V[...]
        dots[pairs] = np.vecdot(V.take(state.pair_var_a[pairs], axis=0),
                                V.take(state.pair_var_b[pairs], axis=0))
        cross = np.bincount(state.pair_clause, coeff[a] * coeff[b] * dots,
                            minlength=len(state.clause_len))
        losses = (base + 2.0 * cross) * weight
        self.dots = dots.tolist()
        self.losses = losses.tolist()
        self.objective = state.base_unsat + math.fsum(losses[active].tolist())
        self._undo: list = []

    def move(self, state: NodeState, moved) -> float:
        """Reprice the clauses of one assignment's transition list `moved`
        (instance.assign's, already applied); returns the objective change.
        An active clause with f free takes its coefficients, weight w and
        integer part base from state.price[L][f]: its loss is
        (base + 2 cross) w, cross the coefficient-weighted sum of its pair
        dot products.  A clause that left has loss 1 when falsified and
        leaves the objective when satisfied."""
        losses, dots = self.losses, self.dots
        assignment, clause_free = state.assignment, state.clause_free
        clause_lits, price = state.clause_lits, state.price
        pair_first = state.pair_first
        saved = []
        d_obj = 0.0
        for j, new_status in moved:
            old = losses[j]
            if new_status != ACTIVE:
                d_obj += (new_status == FALSIFIED) - old
                continue
            lits = clause_lits[j]
            coeff = [0]
            for lit in lits:
                coeff.append(0 if assignment[abs(lit)] != FREE
                             else 1 if lit > 0 else -1)
            L = len(lits)
            _, coeff[0], w, _, _, base = price[L][clause_free[j]]
            pairs = clause_pairs(L)
            t = pair_first[j]
            cross = 0.0
            for (p, q), dot in zip(pairs, dots[t:t + len(pairs)]):
                cross += coeff[p] * coeff[q] * dot
            new = (base + 2.0 * cross) * w
            saved.append((j, old))
            losses[j] = new
            d_obj += new - old
        self._undo.append((saved, self.objective))
        self.objective += d_obj
        return d_obj

    def revert(self) -> None:
        saved, self.objective = self._undo.pop()
        for j, old in saved:
            self.losses[j] = old


def carry_step(state: NodeState, moved, cores: list,
               units: list) -> tuple[list, list]:
    """The carried cores and pending unit clauses after one DFS step
    (`moved`, instance.assign's transition list): the cores and units
    holding no clause the step satisfied or falsified (a core whose clauses
    all stay active still refutes, as a shrunk clause only strengthens
    propagation), and the step's new unit clauses added to the units."""
    gone = {j for j, status in moved if status != ACTIVE}
    if gone:
        cores = [core for core in cores if gone.isdisjoint(core)]
        units = [j for j in units if j not in gone]
    free = state.clause_free
    return cores, units + [j for j, status in moved
                           if status == ACTIVE and free[j] == 1]


def up_cores(state: NodeState, need: int | None = None, units=None,
             taken=()) -> list[tuple]:
    """Disjoint unit-propagation cores of the node's active clauses, each
    clause reduced to its free literals (NodeState.clause_free of them).

    Every completion falsifies a clause of each core, so base_unsat plus
    the number of cores is a lower bound (Li, Manya and Planes, CP 2005
    and AAAI 2006).  From each unit clause (f = 1) not yet in a core, one
    propagation of its own runs on the clauses outside the earlier cores:
    each clause it reaches keeps a counter of its free literals not yet
    walked false and is dropped once satisfied.  A clause whose free
    literals are all false is a conflict; its reasons, traced back to the
    unit, are the core.

    `units` lists the unit clauses to start from, in order (default: every
    active clause with one free literal, in index order), and the clauses
    in `taken` are left out as if already in a core.  The search passes
    both below a solved root: the cores it carries down stay cores of
    every descendant whose step leaves all their clauses active (a clause
    that shrinks only strengthens propagation), so a step propagates only
    its new units, outside the carried cores, and the new cores are
    disjoint from them.

    Cores are disjoint and each holds the unit it started from, so with a
    `need` the search stops once it has `need` cores, or once the cores
    plus the units left to try fall short of it; the cores returned are
    then a prefix of those found without one.

    The marks, values and reasons live on the node (NodeState.core_mark,
    core_value and core_reason) across calls, so a call costs what it
    walks, not O(m + n): each call takes fresh stamps above the last
    call's, which leave every older mark stale.
    """
    clause_free, status = state.clause_free, state.clause_status
    if units is None:
        # a satisfied clause keeps its count, so may read 1 too
        units = [j for j, f in enumerate(clause_free)
                 if f == 1 and status[j] == ACTIVE]
    if need is not None and len(units) < need:
        return []
    assignment, falsifies = state.assignment, state.falsifies
    clause_lits = state.clause_lits
    mark, value, reason = state.core_mark, state.core_value, state.core_reason
    # this call's propagations are numbered first + 1, first + 2, ... and
    # a clause in a core (or taken) is marked `dead`, above them all, so a
    # mark below first + 1 is a stale one from an earlier call
    first = state.core_stamp
    dead = first + len(units) + 1
    state.core_stamp = dead
    for j in taken:
        mark[j] = dead
    cores: list[tuple] = []
    for i, unit in enumerate(units):
        # the units from this one on can add a core each at most
        if need is not None and (len(cores) >= need or
                                 len(cores) + len(units) - i < need):
            break
        if mark[unit] == dead or status[unit] != ACTIVE:
            continue
        stamp = first + 1 + i
        for lit in clause_lits[unit]:
            if assignment[abs(lit)] == FREE:
                break
        value[abs(lit)] = 1 if lit > 0 else -1
        reason[abs(lit)] = unit
        mark[unit] = stamp
        queue = [abs(lit)]
        # per clause reached with three or more free literals, those not
        # yet walked false
        count: dict[int, int] = {}
        conflict = -1
        for var in queue:
            # a clause the walk satisfies is left alone: if it ever has
            # one literal not walked false, that is the true one
            for j in falsifies[2 * var + (value[var] > 0)]:
                # marks of this call are at most `stamp` except `dead`
                if mark[j] >= stamp or status[j] != ACTIVE:
                    continue
                # f - 1 free literals left once this one is walked false;
                # a clause with f <= 2 is settled now, so needs no count
                left = clause_free[j] - 1
                if left > 1:
                    left = count.get(j, left + 1) - 1
                    if left > 1:
                        count[j] = left
                        continue
                # at most one free literal is not walked yet: derive it,
                # find it true, or find every free literal false (conflict)
                for other in clause_lits[j]:
                    u = abs(other)
                    if assignment[u] != FREE:
                        continue
                    want = 1 if other > 0 else -1
                    got = value[u]
                    if got == 0:
                        value[u] = want
                        reason[u] = j
                        queue.append(u)
                        mark[j] = stamp
                        break
                    if got == want:
                        mark[j] = stamp
                        break
                else:
                    conflict = j
                    break
            if conflict >= 0:
                break
        if conflict >= 0:
            core = [conflict]
            mark[conflict] = dead
            # a variable with a value is free and not traced yet: clear
            # its value once traced (an assigned variable never has one)
            stack = list(map(abs, clause_lits[conflict]))
            while stack:
                var = stack.pop()
                if not value[var]:
                    continue
                value[var] = 0
                j = reason[var]
                if mark[j] != dead:
                    mark[j] = dead
                    core.append(j)
                    stack += map(abs, clause_lits[j])
            cores.append(tuple(core))
        for var in queue:
            value[var] = 0
    return cores
