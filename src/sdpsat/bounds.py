"""Expand/prune bounds for subproblems, warm-started from a solved parent.

Primal side: the parent's free columns are already feasible for the child, so
the child objective after the coefficient moves is an upper bound on the
child's relaxation optimum.

Dual side: assigning variables moves clause coefficients in the truth
row/column of the cost matrix (entries delta_i per free column i) and
changes free-free pair coefficients in two cases (each clause is priced at
its current length L', see sdp):

- a clause satisfied with f >= 2 free literals left drops its pairs, a
  change of -s_a s_b w per pair;
- a literal of a clause going false with f >= 2 free literals left moves
  the clause from L' = f + 1 to L' = f, so its weight grows from
  w = 1/(4(f + 1)) to w' = 1/(4f) with its truth coefficient still -1:
  every pair changes by s_a s_b (w' - w), and each truth-row entry by
  -s_i (w' - w), a delta move.

Shifting the parent multipliers by

    xi_0 = ||delta||_1,   xi_i = |delta_i| + eta_i,
    eta_i = sum of |change| over the changed pairs holding column i,

i.e. (f - 1) w per dropped clause and (f - 1)(w' - w) per rescaled one
containing i, adds a diagonally dominant (hence PSD) matrix on top of the
change, so the shifted certificate stays feasible for the child without a
new solve.  The same moves give the child's cost matrix itself: the root's
on the child's columns, plus delta in the truth row and column, plus the
recorded signed pair changes (ShiftLedger.child_cost).
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

import numpy as np

from .instance import (FALSIFIED, FREE, SATISFIED, NodeState,
                       current_length)
from .sdp import DualCert, NodeCost, pair_matrix


class Decision(Enum):
    PRUNE = "prune"
    EXPAND = "expand"
    SOLVE = "solve"


def prune_floor(best_known: int, tol: float = 1e-6) -> float:
    """The prune line: a lower bound above it has a ceiling (guarded by tol)
    that meets the incumbent, so the node cannot improve on it."""
    return best_known - 1 + tol


def decide(primal: float, dual: float, best_known: int,
           tol: float = 1e-6) -> Decision:
    """Prune if the dual is above the prune floor; expand while the primal
    shows the subtree cannot be pruned by its own solve; otherwise solve.
    The primal test allows `tol` too, so a primal that ties the incumbent
    up to rounding expands however it was summed."""
    if dual > prune_floor(best_known, tol):
        return Decision.PRUNE
    if primal <= best_known + tol:
        return Decision.EXPAND
    return Decision.SOLVE


class ShiftLedger:
    """Running xi-shift accounting along a DFS path below one solved root.

    lam is the root's multipliers with the assigned columns zeroed; delta and
    eta are the accumulated shift terms per column.  All three are Python
    lists with running sums, so dual_bound is O(1).  apply makes one pass
    over the clauses an assignment moved, in scalar steps, and saves every
    entry and sum it overwrites, so revert is exact.  It also records each
    free-free pair change (a, b, signed change) of a clause it satisfies or
    rescales with two or more literals free, which child_cost adds.
    cert_snapshot materializes the shifted certificate, the only place a
    child certificate is built; child_cost derives the child's cost
    matrix.
    """

    __slots__ = ("lam", "delta", "eta", "lam_sum", "abs_delta_sum",
                 "eta_sum", "diag_sum", "const_offset", "pairs", "_undo")

    def __init__(self, cert: DualCert):
        self.lam = cert.lam.tolist()
        self.delta = [0.0] * len(self.lam)
        self.eta = [0.0] * len(self.lam)
        self.lam_sum = float(cert.lam.sum())
        self.abs_delta_sum = 0.0
        self.eta_sum = 0.0
        self.diag_sum = cert.diag_sum
        self.const_offset = cert.const_offset
        self.pairs: list[tuple[int, int, float]] = []
        self._undo: list = []

    def apply(self, state: NodeState, var: int, value: int, moved) -> None:
        """Account for one assignment (state already updated; `moved` is
        instance.assign's transition list).

        Per moved clause, priced at its current length L' with truth
        coefficient s0' and weight w before the move: a satisfied clause
        moves the truth-row entry of each of its f free columns by -s0' s w
        and, with f >= 2, drops their pairs (change -s_a s_b w, eta
        (f - 1) w on each column); a literal gone false that leaves f >= 2
        free columns rescales the clause to w' = 1/(4f) (truth-row moves
        -s (w' - w), pair changes s_a s_b (w' - w), eta (f - 1)(w' - w) on
        each column); one that leaves a single free column moves its
        truth-row entry by -s w; a falsified clause moves only the folded
        diagonal and the constant offset.
        """
        lam, delta, eta = self.lam, self.delta, self.eta
        assignment, s0 = state.assignment, state.s0
        clause_lits, length_w = state.clause_lits, state.length_w
        pairs = self.pairs
        saved = [(lam, var, lam[var]), (delta, var, delta[var]),
                 (eta, var, eta[var])]
        save = saved.append
        self._undo.append((saved, len(pairs), self.lam_sum,
                           self.abs_delta_sum, self.eta_sum, self.diag_sum,
                           self.const_offset))
        lam_sum = self.lam_sum - lam[var]
        abs_sum = self.abs_delta_sum - abs(delta[var])
        eta_sum = self.eta_sum - eta[var]
        lam[var] = delta[var] = eta[var] = 0.0
        d_diag = 0.0
        d_offset = 0.0
        for j, _, new_status in moved:
            lits = clause_lits[j]
            size = len(lits)
            if new_status == FALSIFIED:
                # the assigned variable was the last free one; priced at
                # current_length(size, 1) with truth coefficient -length
                length = current_length(size, 1)
                w = length_w[length]
                d_diag -= (length * length + 1) * w
                d_offset += 1.0 + (length - 1) ** 2 * w
                continue
            # s0 absorbed +1 (satisfied) or -1 (a literal false); before
            # that, size + 1 + s0 counted the free literals, one more than
            # the f left now.  Each free column's truth-row entry moves by
            # s * truth, each free pair's entry by s_a s_b * pair.
            s0_old = s0[j] - 1 if new_status == SATISFIED else s0[j] + 1
            f = size + s0_old
            if new_status == SATISFIED:
                length = current_length(size, f + 1)
                coeff = s0_old + size - length  # truth coefficient before
                w = length_w[length]
                truth, pair = -coeff * w, -w
                d_diag -= (coeff * coeff + f + 1) * w
                d_offset += (length - 1) ** 2 * w
            elif f >= 2:
                # a literal went false: priced at current_length f + 1
                # before and f now, truth coefficient -1 on both, so every
                # entry scales from weight w to w'
                w, w_new = length_w[f + 1], length_w[f]
                pair = w_new - w
                truth = -pair
                d_diag += (f + 1) * w_new - (f + 2) * w
                d_offset += f * f * w - (f - 1) ** 2 * w_new
            else:
                # a literal went false, one left: priced at two literals
                # before and now, truth coefficient s0 + size - 2 now
                w = length_w[2]
                truth = -w
                # s0'_new^2 - s0'_old^2 - 1 with s0'_old = s0'_new + 1
                d_diag -= 2 * (s0[j] + size - 1) * w
            if f >= 2:
                # |pair| on both ends of each of a column's f - 1 pairs
                e = (f - 1) * abs(pair)
                eta_sum += f * e
                free = []
            for lit in lits:
                v = abs(lit)
                if assignment[v] != FREE:
                    continue
                old = delta[v]
                save((delta, v, old))
                new = old + truth if lit > 0 else old - truth
                delta[v] = new
                abs_sum += abs(new) - abs(old)
                if f >= 2:
                    save((eta, v, eta[v]))
                    eta[v] += e
                    free.append(lit)
            if f >= 2:
                pairs += [(abs(a), abs(b),
                           pair if (a > 0) == (b > 0) else -pair)
                          for a, b in combinations(free, 2)]
        self.lam_sum = lam_sum
        self.abs_delta_sum = abs_sum
        self.eta_sum = eta_sum
        self.diag_sum += d_diag
        self.const_offset += d_offset

    def revert(self) -> None:
        (saved, num_pairs, self.lam_sum, self.abs_delta_sum, self.eta_sum,
         self.diag_sum, self.const_offset) = self._undo.pop()
        for entries, v, old in reversed(saved):
            entries[v] = old
        del self.pairs[num_pairs:]

    def dual_bound(self) -> float:
        return (-(self.lam_sum + 2.0 * self.abs_delta_sum + self.eta_sum)
                + self.diag_sum + self.const_offset)

    def cert_snapshot(self) -> DualCert:
        """Materialize the current shifted certificate (for audits)."""
        abs_delta = np.abs(self.delta)
        lam = np.array(self.lam) + abs_delta + np.array(self.eta)
        lam[0] += abs_delta.sum()
        return DualCert(lam=lam, const_offset=self.const_offset,
                        diag_sum=self.diag_sum)

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
        return NodeCost(index, matrix, self.diag_sum, self.const_offset,
                        root.entry_error, state.active_mask())
