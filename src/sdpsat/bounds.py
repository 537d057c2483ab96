"""Expand/prune bounds for subproblems, warm-started from a solved parent.

Primal side: the parent's free columns are already feasible for the child, so
the child objective after the coefficient moves is an upper bound on the
child's relaxation optimum.

Dual side: assigning variables only moves clause coefficients into the truth
row/column of the cost matrix (entries delta_i per free column i), except that
a clause dropped from the active set with f >= 2 free variables left also
removes its free-free pair coefficients.  Shifting the parent multipliers by

    xi_0 = ||delta||_1,   xi_i = |delta_i| + eta_i,
    eta_i = (f - 1) / (4 n_j)  summed over dropped clauses containing i,

adds a diagonally dominant (hence PSD) matrix on top of the change, so the
shifted certificate stays feasible for the child without a new solve.  The
same moves give the child's cost matrix itself: the root's on the child's
columns, plus delta in the truth row and column, minus the free-free pairs
of the dropped clauses (ShiftLedger.child_cost).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .instance import ACTIVE, FREE, SATISFIED, NodeState
from .sdp import DualCert, NodeCost, pair_matrix


class Decision(Enum):
    PRUNE = "prune"
    EXPAND = "expand"
    SOLVE = "solve"


def ceil_bound(x: float, tol: float = 1e-6) -> int:
    """Integer ceiling with a guard against float noise at the boundary."""
    return math.ceil(x - tol)


def prune_floor(best_known: int, tol: float = 1e-6) -> float:
    """The prune line: a lower bound above it has a ceiling (guarded by tol)
    that meets the incumbent, so the node cannot improve on it."""
    return best_known - 1 + tol


def decide(primal: float, dual: float, best_known: int,
           tol: float = 1e-6) -> Decision:
    """Prune if the dual is above the prune floor; expand while the primal
    shows the subtree cannot be pruned by its own solve; otherwise solve."""
    if dual > prune_floor(best_known, tol):
        return Decision.PRUNE
    if primal <= best_known:
        return Decision.EXPAND
    return Decision.SOLVE


def collect_shift(state: NodeState, var: int, value: int, moved):
    """Coefficient movement caused by one assignment (state already updated).

    Returns (delta_entries, eta_entries, d_diag, d_offset): the signed change
    of the truth-row coefficient c_{0i} per still-free variable i, the
    dropped-clause compensation, and the change of the folded diagonal and
    of the constant offset (base_unsat minus per-clause loss constants).
    """
    inst = state.instance
    assignment = state.assignment
    delta_entries: list[tuple[int, float]] = []
    eta_entries: list[tuple[int, float]] = []
    d_diag = 0.0
    d_offset = 0.0
    for j, sign, new_status in moved:
        cl = inst.clauses[j]
        L = cl.length
        w = 1.0 / (4.0 * L)
        if new_status == ACTIVE:
            # literal went false: s0 absorbed -1, still active
            s0_new = state.s0[j]
            s0_old = s0_new + 1
            coeff = float(value * sign) * w
            for lit in cl.lits:
                v = abs(lit)
                if assignment[v] != FREE:
                    continue
                delta_entries.append((v, coeff if lit > 0 else -coeff))
            d_diag += (s0_new * s0_new - s0_old * s0_old - 1) * w
        elif new_status == SATISFIED:
            s0_old = state.s0[j] - 1
            free_lits = [(abs(lit), 1.0 if lit > 0 else -1.0)
                         for lit in cl.lits if assignment[abs(lit)] == FREE]
            f = len(free_lits)
            for v, s in free_lits:
                delta_entries.append((v, -s0_old * s * w))
                if f >= 2:
                    eta_entries.append((v, (f - 1) * w))
            d_diag -= (s0_old * s0_old + f + 1) * w
            d_offset += (L - 1) ** 2 * w
        else:  # FALSIFIED: the assigned variable was the clause's last free one
            s0_old = state.s0[j] + 1
            d_diag -= (s0_old * s0_old + 1) * w
            d_offset += 1.0 + (L - 1) ** 2 * w
    return delta_entries, eta_entries, d_diag, d_offset


class ShiftLedger:
    """Running xi-shift accounting along a DFS path below one solved root.

    lam is the root's multipliers with the assigned columns zeroed; delta and
    eta are the accumulated shift terms per column.  apply costs
    O(touched clauses) and saves the entries it overwrites, so revert is
    exact.  cert_snapshot materializes the shifted certificate, the only
    place a child certificate is built; child_cost derives the child's cost
    matrix.
    """

    __slots__ = ("lam", "delta", "eta", "diag_sum", "const_offset", "_undo")

    def __init__(self, cert: DualCert):
        self.lam = cert.lam.copy()
        self.delta = np.zeros_like(self.lam)
        self.eta = np.zeros_like(self.lam)
        self.diag_sum = cert.diag_sum
        self.const_offset = cert.const_offset
        self._undo: list = []

    def apply(self, state: NodeState, var: int, value: int, moved) -> None:
        delta_entries, eta_entries, d_diag, d_offset = collect_shift(
            state, var, value, moved)
        touched = ([var] + [v for v, _ in delta_entries]
                   + [v for v, _ in eta_entries])
        self._undo.append((touched, self.lam[touched], self.delta[touched],
                           self.eta[touched], self.diag_sum,
                           self.const_offset))
        for v, d in delta_entries:
            self.delta[v] += d
        for v, e in eta_entries:
            self.eta[v] += e
        self.lam[var] = self.delta[var] = self.eta[var] = 0.0
        self.diag_sum += d_diag
        self.const_offset += d_offset

    def revert(self) -> None:
        (touched, lam, delta, eta, self.diag_sum,
         self.const_offset) = self._undo.pop()
        self.lam[touched] = lam
        self.delta[touched] = delta
        self.eta[touched] = eta

    def dual_bound(self) -> float:
        return float(-(self.lam.sum() + 2.0 * np.abs(self.delta).sum()
                       + self.eta.sum()) + self.diag_sum + self.const_offset)

    def cert_snapshot(self) -> DualCert:
        """Materialize the current shifted certificate (for audits)."""
        abs_delta = np.abs(self.delta)
        lam = self.lam + abs_delta + self.eta
        lam[0] += abs_delta.sum()
        return DualCert(lam=lam, const_offset=self.const_offset,
                        diag_sum=self.diag_sum)

    def child_cost(self, root: NodeCost, state: NodeState) -> NodeCost:
        """The cost matrix of the node at the end of the path, derived from
        the root's (`root`, the sdp.node_cost of the solved root) instead of
        built from scratch: its submatrix on the node's columns, with delta
        added to the truth row and column, less the free-free pairs of the
        clauses active at the root and no longer active (a clause falsified
        on the path has no free column left).  The columns keep the root's
        order and the matrix stays exactly symmetric (see sdp.pair_matrix);
        `root` is left untouched.
        """
        columns = state.column_mask()
        keep = np.flatnonzero(columns[root.index])
        index = root.index[keep]
        matrix = root.matrix.take(keep, axis=0).take(keep, axis=1)
        moves = self.delta[index[1:]]
        matrix[0, 1:] += moves
        matrix[1:, 0] += moves
        active = state.active_mask()
        dropped = root.active & ~active
        if dropped.any():
            clause = state.lit_clause.take(state.pair_a)
            pairs = np.flatnonzero(dropped[clause])
            a, b = state.pair_a[pairs], state.pair_b[pairs]
            va, vb = state.lit_var[a], state.lit_var[b]
            # a clause's truth entry comes first, so only pair_a can be one
            gone = np.flatnonzero((va != 0) & columns[va] & columns[vb])
            value = (state.lit_sign[a[gone]] * state.lit_sign[b[gone]]
                     * state.weight[clause[pairs[gone]]])
            pos = np.empty(len(columns), dtype=np.intp)
            pos[index] = np.arange(len(index))
            matrix -= pair_matrix(pos[va[gone]], pos[vb[gone]], value,
                                  len(index))
        return NodeCost(index, matrix, self.diag_sum, self.const_offset,
                        root.entry_error, active)
